// Command perfbench is the repository benchmark. It starts the real
// melserved binary as its own process, drives it over the wire protocol
// from one load-generator process with two connections, checks every
// verdict against one computed in-process, and prints the end-to-end
// metrics of a workload. With --trace 1 it instead runs the workload
// with traced requests and replays the same inputs through each layer's
// public functions, printing a per-layer table that ends in a residual
// row.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash perfbench/run.sh --workload serve_text_4k --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero on
// any wrong verdict or failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the selected workloads and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all for every workload in BENCHMARK.json")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics; 0 prints end-to-end metrics")
	daemon := fs.String("daemon", "", "melserved binary (run.sh builds it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *daemon == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --daemon, --seconds > 0 and --trace 0|1")
		return 2
	}
	list := manifestWorkloads()
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		list = []Workload{w}
		if w.Held != "" {
			fmt.Fprintf(stderr, "perfbench: %s is not in BENCHMARK.json: it %s\n", w.Name, w.Held)
		}
	}
	prov := newProvenance(*seed, *seconds, *trace)
	code := 0
	for _, w := range list {
		cfg := runConfig{
			W:       w,
			Seed:    *seed,
			Seconds: time.Duration(*seconds * float64(time.Second)),
			Trace:   *trace == 1,
			Daemon:  *daemon,
		}
		prov.HostSHA256 = hostSpeed()
		steal0, total0 := hostCPU()
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
		steal1, total1 := hostCPU()
		prov.Workload = w.Name
		prov.StealShare = 0
		if total1 > total0 {
			prov.StealShare = float64(steal1-steal0) / float64(total1-total0)
		}
		res.print(stdout, prov)
		if !res.ok() {
			code = 1
		}
	}
	return code
}

// setupBatch is how many daemon start-ups an untraced run times at each
// of its three points; setup_s is the median of all of them.
const setupBatch = 7

// procs is the number of goroutines CPU-bound set-up work is spread over.
func procs() int { return runtime.GOMAXPROCS(0) }
