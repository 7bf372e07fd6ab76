package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// taintcheck: every byte this system serves is attacker-controlled —
// that is the MEL paper's premise — so any value derived from the wire
// (frame lengths, payload bytes), from content-decode views, or from
// StreamScanner input must pass a dominating bounds guard before it
// sizes an allocation, indexes a buffer, or limits an io read. An
// unguarded use is a remotely triggerable panic or memory blowup: the
// DoS surface the server's maxPayload and the content pipeline's
// zip-bomb budgets exist to close.
//
// The analysis is flow-sensitive and interprocedural, built on the
// dataflow layer (dataflow.go):
//
//   - sources: io.ReadFull / io.ReadAtLeast / reader.Read buffer fills
//     and bufio.Reader.Peek results inside the wire-facing packages
//     (server, client, proxy, content); the payload parameters of the
//     content pipeline and StreamScanner entry points; values ranged
//     out of content.Decoder.Views;
//   - propagation: through locals, arithmetic, conversions,
//     binary.*Endian decodes, strconv parses, slicing, element loads,
//     struct fields (field-sensitive, base-insensitive), and — via
//     per-function summaries translated at call sites — through
//     module-internal calls;
//   - guards: a comparison against a non-hostile bound kills the
//     compared value's taint on the branch edge the bound holds on
//     (`n <= max` on true, `n > max` on false, equality on true,
//     inequality on false, through && / || decomposition); min/max
//     clamps with an untainted operand, masking, and modulo by an
//     untainted value also untaint;
//   - sinks: make sizes and capacities, slice/array/string index and
//     slice-expression bounds, io.CopyN / io.LimitReader limits.
//     io.CopyN into io.Discard is exempt (draining a connection is
//     bounded by the peer), and a byte-typed index into an array of
//     256+ elements cannot overflow and is not reported.
//
// Unguarded sinks on parameter-derived values are not reported where
// they occur: they enter the function's summary and are reported at
// whichever call site actually passes hostile data — interprocedural
// summary propagation along call-graph SCCs.
//
// Known limits, accepted for noise control: function literals are not
// analyzed (the serving paths do their reads in declared functions),
// len/cap results are never tainted (materialized buffers were already
// admitted by a budget), and guards hidden behind a boolean variable
// or a helper's early return are not recognized — hoist the comparison
// into the branch condition.

// TaintCheckAnalyzer returns the hostile-input bounds-guard analyzer.
func TaintCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "taintcheck",
		Doc:  "wire/decode-derived values must pass a bounds guard before sizing allocations or indexing buffers",
		Run:  runTaintCheck,
	}
}

// taintReadScoped reports whether the package's import path is one of
// the wire-facing layers where raw reader fills are hostile by
// definition. Elsewhere (corpus loading, benchmarks, tools) a Read is
// trusted local IO.
func taintReadScoped(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		switch seg {
		case "server", "client", "proxy", "content":
			return true
		}
	}
	return false
}

// taintSourceParams lists, by call-graph key relative to the module
// path, parameters (receiver first) that carry attacker bytes into
// the module: the content pipeline and stream-scanner entry points.
func taintSourceParams(modPath string) map[string][]int {
	return map[string][]int{
		modPath + "/internal/core.StreamScanner.Write": {1},
		modPath + "/internal/content.Pipeline.Scan":    {1},
		modPath + "/internal/content.Triage.Assess":    {1},
		modPath + "/internal/content.Decoder.Views":    {1},
	}
}

// taintRangeSources lists functions whose ranged-over iterator yields
// attacker-derived values: decoded content views.
func taintRangeSources(modPath string) map[string]bool {
	return map[string]bool{
		modPath + "/internal/content.Decoder.Views": true,
	}
}

type taintChecker struct {
	pass         *Pass
	m            *Module
	g            *CallGraph
	summaries    map[string]*FlowSummary
	sourceParams map[string][]int
	rangeSources map[string]bool
}

func runTaintCheck(pass *Pass) {
	m := pass.Module
	g := m.CallGraph()
	tc := &taintChecker{
		pass:         pass,
		m:            m,
		g:            g,
		summaries:    make(map[string]*FlowSummary),
		sourceParams: taintSourceParams(m.PkgPath),
		rangeSources: taintRangeSources(m.PkgPath),
	}
	// Summary phase: callee-first over the condensation, iterating
	// recursive components to fixpoint. Reporting is off — blocks run
	// many times here.
	for _, scc := range g.SCCs() {
		recursive := len(scc) > 1
		if !recursive {
			for _, callee := range scc[0].Callees {
				if callee == scc[0].Key {
					recursive = true
					break
				}
			}
		}
		if !recursive {
			tc.summaries[scc[0].Key] = tc.analyzeFunc(scc[0], false)
			continue
		}
		for round := 0; round < 10; round++ {
			changed := false
			for _, gf := range scc {
				sum := tc.analyzeFunc(gf, false)
				if !sum.equal(tc.summaries[gf.Key]) {
					tc.summaries[gf.Key] = sum
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	// Report phase: one deterministic replay per function with the
	// final summaries in view.
	for _, key := range g.order {
		tc.analyzeFunc(g.Funcs[key], true)
	}
}

// taintFunc is the per-function flow client.
type taintFunc struct {
	tc      *taintChecker
	gf      *GraphFunc
	params  []types.Object
	results []types.Object
	ranges  map[ast.Expr]*ast.RangeStmt
	sum     *FlowSummary
	sunk    map[string]bool
	report  bool
}

// analyzeFunc solves one function and returns its summary. With
// report set it also emits diagnostics for definite-taint sinks.
func (tc *taintChecker) analyzeFunc(gf *GraphFunc, report bool) *FlowSummary {
	ir := tc.m.FuncIR(gf.Pkg, gf.Decl)
	tf := &taintFunc{
		tc:      tc,
		gf:      gf,
		params:  paramObjects(gf.Pkg, gf.Decl),
		results: resultObjects(gf.Pkg, gf.Decl),
		ranges:  make(map[ast.Expr]*ast.RangeStmt),
		sunk:    make(map[string]bool),
		report:  report,
	}
	tf.sum = &FlowSummary{Results: make([]FlowMask, len(tf.results))}
	ast.Inspect(gf.Decl.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			tf.ranges[rs.X] = rs
		}
		return true
	})
	entry := make(FlowState)
	srcParams := tc.sourceParams[gf.Key]
	for i, p := range tf.params {
		if p == nil {
			continue
		}
		mask := ParamBit(i)
		for _, s := range srcParams {
			if s == i {
				mask |= FlowDef
			}
		}
		entry[p] = mask
	}
	ins := solveFlow(ir, entry, tf)
	replayFlow(ir, ins, tf, tf.visit)
	return tf.sum
}

func (tf *taintFunc) info() *types.Info { return tf.gf.Pkg.Info }

func (tf *taintFunc) obj(id *ast.Ident) types.Object {
	if o := tf.info().Uses[id]; o != nil {
		return o
	}
	return tf.info().Defs[id]
}

func (tf *taintFunc) isParam(obj types.Object) bool {
	for _, p := range tf.params {
		if p != nil && p == obj {
			return true
		}
	}
	return false
}

// fieldVar resolves a selector to the field object it reads or
// writes, if it is a field selection.
func (tf *taintFunc) fieldVar(sel *ast.SelectorExpr) types.Object {
	if s, ok := tf.info().Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// ---- expression taint ----

func (tf *taintFunc) taintOf(st FlowState, e ast.Expr) FlowMask {
	switch e := e.(type) {
	case *ast.Ident:
		if o := tf.obj(e); o != nil {
			return st[o]
		}
	case *ast.ParenExpr:
		return tf.taintOf(st, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return 0
		}
		return tf.taintOf(st, e.X)
	case *ast.StarExpr:
		return tf.taintOf(st, e.X)
	case *ast.BinaryExpr:
		l, r := tf.taintOf(st, e.X), tf.taintOf(st, e.Y)
		switch e.Op {
		case token.REM, token.AND:
			// x % m and x & m are bounded by m: a clean bound launders
			// the value.
			if l == 0 || r == 0 {
				return 0
			}
		}
		return l | r
	case *ast.CallExpr:
		masks := tf.callResultMasks(st, e)
		if len(masks) > 0 {
			return masks[0]
		}
	case *ast.IndexExpr:
		// An element of a hostile container is hostile; the index adds
		// nothing to the element's value.
		return tf.taintOf(st, e.X)
	case *ast.SliceExpr:
		return tf.taintOf(st, e.X)
	case *ast.SelectorExpr:
		if fv := tf.fieldVar(e); fv != nil {
			base := FlowMask(0)
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if o := tf.obj(id); o != nil {
					base = st[o]
				}
			}
			return st[fv] | base
		}
		// Qualified identifier (pkg.Name).
		if o := tf.info().Uses[e.Sel]; o != nil {
			return st[o]
		}
	case *ast.TypeAssertExpr:
		return tf.taintOf(st, e.X)
	case *ast.CompositeLit:
		var m FlowMask
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			m |= tf.taintOf(st, elt)
		}
		return m
	}
	return 0
}

// builtinName returns the builtin's name when the call invokes one.
func (tf *taintFunc) builtinName(call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := tf.info().Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// callResultMasks computes the taint of each result of a call:
// conversions and a small intrinsic set propagate structurally;
// module-internal calls translate the callee's summary by re-binding
// parameter bits to argument masks; everything else is clean.
func (tf *taintFunc) callResultMasks(st FlowState, call *ast.CallExpr) []FlowMask {
	// Conversion: T(x) keeps x's taint.
	if tv, ok := tf.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []FlowMask{tf.taintOf(st, call.Args[0])}
	}
	switch tf.builtinName(call) {
	case "len", "cap":
		// Deliberately clean: a materialized buffer's length was
		// already admitted by whatever budget allocated it.
		return []FlowMask{0}
	case "min", "max":
		// A clamp against any clean operand bounds the result.
		var m FlowMask
		for _, a := range call.Args {
			am := tf.taintOf(st, a)
			if am == 0 {
				return []FlowMask{0}
			}
			m |= am
		}
		return []FlowMask{m}
	case "append":
		var m FlowMask
		for _, a := range call.Args {
			m |= tf.taintOf(st, a)
		}
		return []FlowMask{m}
	case "make", "new", "copy":
		return []FlowMask{0}
	case "":
	default:
		return []FlowMask{0}
	}
	nres := tf.callResultCount(call)
	switch types.ExprString(call.Fun) {
	case "binary.BigEndian.Uint16", "binary.BigEndian.Uint32", "binary.BigEndian.Uint64",
		"binary.LittleEndian.Uint16", "binary.LittleEndian.Uint32", "binary.LittleEndian.Uint64",
		"math.Float64frombits", "math.Float32frombits":
		if len(call.Args) == 1 {
			return []FlowMask{tf.taintOf(st, call.Args[0])}
		}
	case "strconv.Atoi", "strconv.ParseInt", "strconv.ParseUint", "strconv.ParseFloat":
		out := make([]FlowMask, nres)
		if len(call.Args) > 0 {
			out[0] = tf.taintOf(st, call.Args[0])
		}
		return out
	}
	if tf.isWirePeek(call) {
		// A peek into a buffered reader is a fill by another name: the
		// returned bytes are the connection's.
		out := make([]FlowMask, nres)
		out[0] = FlowDef
		return out
	}
	key, ok := callTargetKey(tf.gf.Pkg, call)
	if !ok {
		return make([]FlowMask, nres)
	}
	sum := tf.tc.summaries[key]
	callee := tf.tc.g.Funcs[key]
	if sum == nil || callee == nil {
		return make([]FlowMask, nres)
	}
	argMasks, ok := tf.callArgMasks(st, call, callee)
	out := make([]FlowMask, nres)
	for i := 0; i < nres && i < len(sum.Results); i++ {
		rm := sum.Results[i]
		out[i] = rm & FlowDef
		if ok {
			rm.ParamBits(func(j int) {
				if j < len(argMasks) {
					out[i] |= argMasks[j]
				}
			})
		}
	}
	return out
}

// isWirePeek reports a (*bufio.Reader).Peek call inside a wire-facing
// package.
func (tf *taintFunc) isWirePeek(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Peek" || !taintReadScoped(tf.gf.Pkg.Path) {
		return false
	}
	tv, ok := tf.info().Types[sel.X]
	return ok && tv.Type != nil && types.TypeString(tv.Type, nil) == "*bufio.Reader"
}

// callResultCount returns how many values the call produces.
func (tf *taintFunc) callResultCount(call *ast.CallExpr) int {
	tv, ok := tf.info().Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	return 1
}

// callArgMasks aligns the call's arguments to the callee's parameter
// list (receiver first) and returns their taint masks. ok is false
// when the shapes don't line up (method expressions, g(f()) tuples) —
// callers then drop parameter-bit translation and keep only FlowDef.
func (tf *taintFunc) callArgMasks(st FlowState, call *ast.CallExpr, callee *GraphFunc) ([]FlowMask, bool) {
	nparams := len(paramObjects(callee.Pkg, callee.Decl))
	masks := make([]FlowMask, 0, nparams)
	if callee.Decl.Recv != nil {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		masks = append(masks, tf.taintOf(st, sel.X))
	}
	for _, a := range call.Args {
		masks = append(masks, tf.taintOf(st, a))
	}
	if len(masks) == nparams {
		return masks, true
	}
	// Variadic call: fold the extra arguments into the last slot.
	if len(masks) > nparams && nparams > 0 {
		folded := masks[:nparams]
		for _, m := range masks[nparams:] {
			folded[nparams-1] |= m
		}
		return folded, true
	}
	return nil, false
}

// ---- transfer ----

func (tf *taintFunc) transfer(st FlowState, n ast.Node) {
	tf.sideEffects(st, n)
	switch n := n.(type) {
	case *ast.AssignStmt:
		tf.assign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				tf.valueSpec(st, vs)
			}
		}
	case *ast.ReturnStmt:
		tf.recordReturn(st, n)
	case ast.Expr:
		if rs := tf.ranges[n]; rs != nil {
			tf.rangeBind(st, rs)
		}
	}
}

func (tf *taintFunc) assign(st FlowState, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		masks := make([]FlowMask, len(as.Rhs))
		for i, rhs := range as.Rhs {
			masks[i] = tf.taintOf(st, rhs)
		}
		for i, lhs := range as.Lhs {
			tf.assignTo(st, lhs, masks[i], as.Tok)
		}
		return
	}
	// Tuple assignment from one multi-value producer.
	if len(as.Rhs) != 1 {
		return
	}
	var masks []FlowMask
	switch rhs := ast.Unparen(as.Rhs[0]).(type) {
	case *ast.CallExpr:
		masks = tf.callResultMasks(st, rhs)
	case *ast.TypeAssertExpr:
		masks = []FlowMask{tf.taintOf(st, rhs.X), 0}
	case *ast.IndexExpr:
		masks = []FlowMask{tf.taintOf(st, rhs.X), 0}
	}
	for i, lhs := range as.Lhs {
		m := FlowMask(0)
		if i < len(masks) {
			m = masks[i]
		}
		tf.assignTo(st, lhs, m, as.Tok)
	}
}

func (tf *taintFunc) valueSpec(st FlowState, vs *ast.ValueSpec) {
	if len(vs.Values) == len(vs.Names) {
		for i, name := range vs.Names {
			tf.assignTo(st, name, tf.taintOf(st, vs.Values[i]), token.DEFINE)
		}
		return
	}
	if len(vs.Values) == 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			masks := tf.callResultMasks(st, call)
			for i, name := range vs.Names {
				m := FlowMask(0)
				if i < len(masks) {
					m = masks[i]
				}
				tf.assignTo(st, name, m, token.DEFINE)
			}
		}
	}
}

// assignTo writes mask into the lvalue: strong update for plain
// identifiers (a clean re-assignment launders), weak (accumulating)
// update for fields and elements, which are shared cells.
func (tf *taintFunc) assignTo(st FlowState, lhs ast.Expr, mask FlowMask, tok token.Token) {
	weak := tok != token.ASSIGN && tok != token.DEFINE // op-assign reads the old value
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		o := tf.obj(lhs)
		if o == nil {
			return
		}
		if weak {
			st[o] |= mask
		} else {
			st[o] = mask
		}
	case *ast.SelectorExpr:
		if fv := tf.fieldVar(lhs); fv != nil {
			st[fv] |= mask
			// A hostile store also marks a *local* base struct hostile,
			// so returning it propagates; parameter bases stay clean —
			// writing one field does not make the caller's object
			// hostile.
			if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
				if o := tf.obj(id); o != nil && !tf.isParam(o) {
					st[o] |= mask
				}
			}
		}
	case *ast.IndexExpr:
		for _, o := range tf.lvalueObjs(lhs.X) {
			st[o] |= mask
		}
	case *ast.StarExpr:
		for _, o := range tf.lvalueObjs(lhs.X) {
			st[o] |= mask
		}
	}
}

// lvalueObjs returns the local objects a storage expression roots in.
func (tf *taintFunc) lvalueObjs(e ast.Expr) []types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := tf.obj(e); o != nil {
			return []types.Object{o}
		}
	case *ast.SliceExpr:
		return tf.lvalueObjs(e.X)
	case *ast.IndexExpr:
		return tf.lvalueObjs(e.X)
	case *ast.StarExpr:
		return tf.lvalueObjs(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return tf.lvalueObjs(e.X)
		}
	case *ast.SelectorExpr:
		if fv := tf.fieldVar(e); fv != nil {
			return []types.Object{fv}
		}
	}
	return nil
}

// sideEffects applies call side effects anywhere inside the node:
// reader fills taint their buffer (in wire-facing packages), copy
// propagates source taint into the destination.
func (tf *taintFunc) sideEffects(st FlowState, n ast.Node) {
	scoped := taintReadScoped(tf.gf.Pkg.Path)
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tf.builtinName(call) == "copy" && len(call.Args) == 2 {
			if m := tf.taintOf(st, call.Args[1]); m != 0 {
				for _, o := range tf.lvalueObjs(call.Args[0]) {
					st[o] |= m
				}
			}
			return true
		}
		if !scoped {
			return true
		}
		var fill ast.Expr
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name := types.ExprString(call.Fun)
			switch {
			case (name == "io.ReadFull" || name == "io.ReadAtLeast") && len(call.Args) >= 2:
				fill = call.Args[1]
			case fun.Sel.Name == "Read" && len(call.Args) == 1:
				// A method Read on a value (not a package function like
				// rand.Read): the buffer now holds connection bytes.
				if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
					if _, isPkg := tf.info().Uses[id].(*types.PkgName); isPkg {
						return true
					}
				}
				fill = call.Args[0]
			}
		}
		if fill != nil {
			for _, o := range tf.lvalueObjs(fill) {
				st[o] |= FlowDef
			}
		}
		return true
	})
}

// rangeBind assigns taint to a range statement's key/value bindings
// when its head expression is evaluated.
func (tf *taintFunc) rangeBind(st FlowState, rs *ast.RangeStmt) {
	var keyMask, valMask FlowMask
	if call, ok := ast.Unparen(rs.X).(*ast.CallExpr); ok {
		if key, ok := callTargetKey(tf.gf.Pkg, call); ok && tf.tc.rangeSources[key] {
			// Iterating decoded content views: both yielded values are
			// attacker-derived.
			keyMask, valMask = FlowDef, FlowDef
		}
	}
	if keyMask == 0 && valMask == 0 {
		xm := tf.taintOf(st, rs.X)
		t := types.Type(nil)
		if tv, ok := tf.info().Types[rs.X]; ok {
			t = tv.Type
		}
		switch types.Unalias(t).(type) {
		case *types.Map:
			keyMask, valMask = xm, xm
		case *types.Chan:
			valMask = xm
		case *types.Basic:
			// range over an int: the induction variable is bounded by
			// the loop itself.
		default:
			// Slices, arrays, strings: indices are safe, elements carry
			// the container's taint.
			valMask = xm
		}
	}
	if rs.Key != nil {
		tf.assignTo(st, rs.Key, keyMask, rs.Tok)
	}
	if rs.Value != nil {
		tf.assignTo(st, rs.Value, valMask, rs.Tok)
	}
}

// recordReturn folds the return's masks into the summary.
func (tf *taintFunc) recordReturn(st FlowState, ret *ast.ReturnStmt) {
	if len(ret.Results) == 0 {
		for i, ro := range tf.results {
			if ro != nil {
				tf.sum.Results[i] |= st[ro]
			}
		}
		return
	}
	if len(ret.Results) == 1 && len(tf.sum.Results) > 1 {
		// return f() forwarding a tuple.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			masks := tf.callResultMasks(st, call)
			for i := range tf.sum.Results {
				if i < len(masks) {
					tf.sum.Results[i] |= masks[i]
				}
			}
		}
		return
	}
	for i, r := range ret.Results {
		if i < len(tf.sum.Results) {
			tf.sum.Results[i] |= tf.taintOf(st, r)
		}
	}
}

// ---- branch refinement ----

// refine kills taint along the branch edge where a comparison bounds
// the value: the guard-dominates-sink rule.
func (tf *taintFunc) refine(st FlowState, cond ast.Expr, branch bool) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			tf.refine(st, c.X, !branch)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if branch {
				tf.refine(st, c.X, true)
				tf.refine(st, c.Y, true)
			}
		case token.LOR:
			if !branch {
				tf.refine(st, c.X, false)
				tf.refine(st, c.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			tf.refineCompare(st, c, branch)
		}
	}
}

func (tf *taintFunc) refineCompare(st FlowState, c *ast.BinaryExpr, branch bool) {
	killLeft, killRight := false, false
	switch c.Op {
	case token.LSS, token.LEQ:
		// x < bound holds on true; bound < x bounds the right side on
		// false.
		killLeft, killRight = branch, !branch
	case token.GTR, token.GEQ:
		killLeft, killRight = !branch, branch
	case token.EQL:
		killLeft, killRight = branch, branch
	case token.NEQ:
		killLeft, killRight = !branch, !branch
	}
	// A bound that is itself definitely hostile bounds nothing.
	if killLeft && tf.taintOf(st, c.Y)&FlowDef == 0 {
		for _, o := range tf.boundBases(st, c.X) {
			delete(st, o)
		}
	}
	if killRight && tf.taintOf(st, c.X)&FlowDef == 0 {
		for _, o := range tf.boundBases(st, c.Y) {
			delete(st, o)
		}
	}
}

// boundBases collects the tainted storage cells whose value the
// expression is an arithmetic function of — the cells a comparison on
// the expression bounds. len/cap results and element loads are not
// bases: testing a buffer's length says nothing about its contents.
func (tf *taintFunc) boundBases(st FlowState, e ast.Expr) []types.Object {
	var out []types.Object
	var rec func(e ast.Expr)
	rec = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := tf.obj(e); o != nil && st[o] != 0 {
				out = append(out, o)
			}
		case *ast.UnaryExpr:
			if e.Op != token.ARROW {
				rec(e.X)
			}
		case *ast.BinaryExpr:
			rec(e.X)
			rec(e.Y)
		case *ast.SelectorExpr:
			if fv := tf.fieldVar(e); fv != nil && st[fv] != 0 {
				out = append(out, fv)
			}
		case *ast.CallExpr:
			if tv, ok := tf.info().Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				rec(e.Args[0])
			}
		}
	}
	rec(e)
	return out
}

// ---- sinks ----

func (tf *taintFunc) visit(n ast.Node, st FlowState) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			tf.checkCall(st, c)
		case *ast.IndexExpr:
			tf.checkIndex(st, c)
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{c.Low, c.High, c.Max} {
				if bound == nil {
					continue
				}
				tf.checkSink(st, bound, "a slice bound",
					"attacker-controlled value %s bounds a slice of %s without a dominating bounds check",
					types.ExprString(bound), types.ExprString(c.X))
			}
		}
		return true
	})
}

func (tf *taintFunc) checkCall(st FlowState, call *ast.CallExpr) {
	if tf.builtinName(call) == "make" {
		for _, size := range call.Args[1:] {
			tf.checkSink(st, size, "an allocation size",
				"attacker-controlled value %s sizes an allocation without a dominating bounds check",
				types.ExprString(size))
		}
		return
	}
	switch types.ExprString(call.Fun) {
	case "io.CopyN":
		if len(call.Args) == 3 && types.ExprString(call.Args[0]) != "io.Discard" {
			tf.checkSink(st, call.Args[2], "an io copy limit",
				"attacker-controlled value %s limits an io copy without a dominating bounds check",
				types.ExprString(call.Args[2]))
		}
		return
	case "io.LimitReader":
		if len(call.Args) == 2 {
			tf.checkSink(st, call.Args[1], "an io read limit",
				"attacker-controlled value %s limits an io read without a dominating bounds check",
				types.ExprString(call.Args[1]))
		}
		return
	}
	// Module-internal call: apply the callee's summary sinks.
	key, ok := callTargetKey(tf.gf.Pkg, call)
	if !ok {
		return
	}
	sum := tf.tc.summaries[key]
	callee := tf.tc.g.Funcs[key]
	if sum == nil || callee == nil || len(sum.Sinks) == 0 {
		return
	}
	argMasks, ok := tf.callArgMasks(st, call, callee)
	if !ok {
		return
	}
	var argExprs []ast.Expr
	if callee.Decl.Recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			argExprs = append(argExprs, sel.X)
		}
	}
	argExprs = append(argExprs, call.Args...)
	for _, sink := range sum.Sinks {
		if sink.Param >= len(argMasks) {
			continue
		}
		m := argMasks[sink.Param]
		if m&FlowDef != 0 {
			if tf.report {
				arg := "argument"
				if sink.Param < len(argExprs) {
					arg = types.ExprString(argExprs[sink.Param])
				}
				tf.tc.pass.Reportf(call.Pos(),
					"attacker-controlled value %s flows into %s, where it becomes %s without an intervening bounds check",
					arg, callee.Decl.Name.Name, sink.What)
			}
			continue
		}
		m.ParamBits(func(j int) {
			tf.addSink(ParamSink{Param: j, What: sink.What, Pos: call.Pos()})
		})
	}
}

func (tf *taintFunc) checkIndex(st FlowState, idx *ast.IndexExpr) {
	tv, ok := tf.info().Types[idx.X]
	if !ok || tv.Type == nil {
		return
	}
	t := types.Unalias(tv.Type.Underlying())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem().Underlying())
	}
	var arrLen int64 = -1
	switch t := t.(type) {
	case *types.Array:
		arrLen = t.Len()
	case *types.Slice:
	case *types.Basic: // string
		if t.Info()&types.IsString == 0 {
			return
		}
	default:
		return // maps, generic instantiations
	}
	// A byte can never overflow a 256-element array, nor a uint16 a
	// 65536-element one: the packed-table indexing idiom is safe by
	// construction.
	if it, ok := tf.info().Types[idx.Index]; ok && it.Type != nil {
		if b, ok := types.Unalias(it.Type.Underlying()).(*types.Basic); ok {
			switch b.Kind() {
			case types.Uint8:
				if arrLen >= 256 {
					return
				}
			case types.Uint16:
				if arrLen >= 65536 {
					return
				}
			}
		}
	}
	tf.checkSink(st, idx.Index, "an index",
		"attacker-controlled value %s indexes %s without a dominating bounds check",
		types.ExprString(idx.Index), types.ExprString(idx.X))
}

// checkSink reports a definitely-tainted sink (report phase) or
// records a parameter-dependent one into the summary.
func (tf *taintFunc) checkSink(st FlowState, e ast.Expr, what, format string, args ...any) {
	m := tf.taintOf(st, e)
	if m == 0 {
		return
	}
	if m&FlowDef != 0 {
		if tf.report {
			tf.tc.pass.Reportf(e.Pos(), format, args...)
		}
		return
	}
	m.ParamBits(func(j int) {
		tf.addSink(ParamSink{
			Param: j,
			What:  fmt.Sprintf("%s in %s", what, tf.gf.Decl.Name.Name),
			Pos:   e.Pos(),
		})
	})
}

func (tf *taintFunc) addSink(s ParamSink) {
	key := fmt.Sprintf("%d|%s", s.Param, s.What)
	if tf.sunk[key] {
		return
	}
	tf.sunk[key] = true
	tf.sum.Sinks = append(tf.sum.Sinks, s)
}
