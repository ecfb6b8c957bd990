// Package detflow is the determinism analyzer: every figure of the
// reproduction must regenerate bit-identically from a seed, and cache
// keys and journal records must stay byte-stable, so simulated results
// and canonical bytes may depend on nothing but their inputs. It bans
// the direct sources outright inside the simulation packages, and it
// tracks nondeterministic values — wall-clock reads, math/rand draws,
// map-iteration order — through assignments and call returns (across
// packages, via function facts), reporting where one reaches a sink. A
// helper in a non-simulation package that returns a time.Now-derived
// string is caught at the Canonicalize call one (or many) calls away.
package detflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"clustereval/internal/analysis"
)

// Analyzer reports nondeterminism sources in the simulation packages
// and nondeterministic values reaching canonical encoders, experiment
// results or emitted bytes, anywhere in the module.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: `forbid nondeterminism in simulated results and canonical bytes

Simulated results must be bit-reproducible from a seed (the paper's
figures are regenerated as golden CSVs), and a cache key, canonical
encoding or journal record that differs between runs turns cache hits
into misses, churns golden files and diverges replicated journals.

Inside the simulation packages this analyzer bans the sources outright:

  - calls to time.Now, time.Since, time.Sleep, time.After, time.AfterFunc,
    time.Tick, time.NewTimer and time.NewTicker (in _test.go files only
    Now and Since are reported: timers are legitimate test
    synchronization, wall-clock timestamps in assertions are not);
  - any import of math/rand or math/rand/v2: randomness comes from
    internal/xrand, whose generators are seeded, splittable and
    journal-stable.

Anywhere in the module it taints values derived from time.Now, math/rand
or Go's randomized map iteration order, follows them through
assignments and function returns (via facts, so the source may sit in
another package), and reports when a tainted value reaches:

  - a call to an in-module canonical function: one whose name marks it
    as part of an encoding path (Canonical*, Normalize, *CacheKey*,
    *Hash*, encode*, Fingerprint* and friends);
  - a composite literal or field write of an internal/experiment
    *Result type;
  - for map iteration order only: an output call (print, write, hash,
    encode, error text) in a simulation package or in a canonical
    function of the packages that produce canonical bytes
    (internal/experiment, internal/faultsim, internal/journal,
    internal/service), or the results of such a canonical function.
    fmt.Sprint* and fmt.Appendf pass the taint on; storing into a map by
    key does not taint the map.

Ranging over a tainted slice, array or string taints each element the
loop yields, not its index. len and cap are order-free: a length does not
depend on the order of the elements, so map order does not pass through
them (the other sources do).

Canonical functions must also not format a float with %v or %g: the
rendering is shortest-representation, which changes bytes when a
refactor changes intermediate rounding. Use strconv.FormatFloat with an
explicit precision, JSON encoding of a struct field, or an integer
encoding.

Sorting cleanses: data that flows through sort.*/slices.Sort* is the
sanctioned collect-sort-emit idiom and is not reported. Injected clocks
(package variables or fields bound to time.Now) are how wall-clock-only
sites (host-kernel timing, metrics timestamps) stay auditable at one
declaration; they taint exactly like time.Now itself. As a last resort
a site carries '//lint:allow detflow <justification>'.`,
	Run:       run,
	FactTypes: []analysis.Fact{&TaintFact{}},
}

// TaintFact marks a function whose return value derives from a
// nondeterminism source; Why names the source for diagnostics.
type TaintFact struct {
	Why string
}

// AFact marks TaintFact as a fact.
func (*TaintFact) AFact() {}

// canonName marks functions on a canonical-encoding path by name.
var canonName = regexp.MustCompile(`(?i)(canonic|normali[sz]e|cache[_]?key|speckey|fingerprint|hash|encode)`)

// bannedTime are the time package functions that read or depend on the
// wall clock. The value records whether the call stays banned even in
// _test.go files.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Sleep":     false,
	"After":     false,
	"AfterFunc": false,
	"Tick":      false,
	"NewTimer":  false,
	"NewTicker": false,
}

// outputs are callee names that turn a value into observable bytes:
// formatted printing, error text, io writes, and hash/encoder feeding.
var outputs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true, "Errorf": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Sum": true, "Sum256": true, "Encode": true, "Marshal": true,
}

// mapOrder is the source name of map-iteration taint. Every Why ends in
// the name of its root source, so a value carries map order exactly when
// its Why ends in mapOrder.
const mapOrder = "map iteration order"

func run(pass *analysis.Pass) error {
	rel, inModule := analysis.RelPkgPath(pass.Pkg.Path())
	if !inModule {
		return nil
	}
	sim := analysis.UnderAny(rel, analysis.SimPackages)
	canon := analysis.UnderAny(rel, analysis.CanonPackages)
	if sim {
		checkDirectSources(pass)
	}

	clockVars := collectClockVars(pass)

	// Fixpoint over this package's functions: a function returning a
	// tainted value taints its callers' results in the next round.
	var fns []*ast.FuncDecl
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	localTaint := map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if _, done := localTaint[fn]; done {
				continue
			}
			t := newTainter(pass, clockVars, localTaint)
			t.analyze(fd)
			t.taintedReturns(fd, func(_ ast.Node, why string) bool {
				localTaint[fn], changed = why, true
				return false
			})
		}
	}
	for fn, why := range localTaint {
		pass.ExportObjectFact(fn, &TaintFact{Why: why})
	}

	// Reporting: re-derive each function's taint against the complete
	// local summary, then walk for sinks.
	for _, fd := range fns {
		t := newTainter(pass, clockVars, localTaint)
		t.analyze(fd)
		t.checkSinks(fd, sim, canon && canonName.MatchString(fd.Name.Name))
	}
	return nil
}

// checkDirectSources reports the sources banned outright in a
// simulation package: math/rand imports and wall-clock or timer calls.
func checkDirectSources(pass *analysis.Pass) {
	for _, file := range pass.Files {
		isTest := pass.IsTestFile(file.Pos())
		for _, imp := range file.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in a simulation package: use the seeded generators in internal/xrand", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.PkgFunc(call)
			if fn == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if inTests, banned := bannedTime[fn.Name()]; banned && (inTests || !isTest) {
				pass.Reportf(call.Pos(),
					"call to time.%s in a simulation package: results must depend only on the spec and seed (inject a clock for wall-clock-only sites)",
					fn.Name())
			}
			return true
		})
	}
}

// collectClockVars finds the injected-clock bindings: package variables
// and struct fields assigned time.Now or time.Since. Calls through them
// taint exactly like the time functions they are bound to.
func collectClockVars(pass *analysis.Pass) map[types.Object]string {
	clocks := map[types.Object]string{}
	bind := func(obj types.Object, rhs ast.Expr) {
		if obj == nil {
			return
		}
		fn := timeFuncRef(pass, rhs)
		if fn == "" {
			return
		}
		clocks[obj] = fmt.Sprintf("the injected clock %s (bound to time.%s)", obj.Name(), fn)
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(pass.TypesInfo.Defs[name], n.Values[i])
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					switch lhs := ast.Unparen(lhs).(type) {
					case *ast.Ident:
						obj := pass.TypesInfo.Uses[lhs]
						if obj == nil {
							obj = pass.TypesInfo.Defs[lhs]
						}
						bind(obj, n.Rhs[i])
					case *ast.SelectorExpr:
						if s, ok := pass.TypesInfo.Selections[lhs]; ok && s.Kind() == types.FieldVal {
							bind(s.Obj(), n.Rhs[i])
						}
					}
				}
			}
			return true
		})
	}
	return clocks
}

// timeFuncRef reports the name of the time-package function e refers to
// (as a value, not a call), or "".
func timeFuncRef(pass *analysis.Pass, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return fn.Name()
	}
	return ""
}

// tainter derives the tainted local variables of one function body.
type tainter struct {
	pass       *analysis.Pass
	clockVars  map[types.Object]string
	localTaint map[*types.Func]string
	tainted    map[types.Object]string
	cleansed   map[types.Object]bool
	changed    bool
}

func newTainter(pass *analysis.Pass, clocks map[types.Object]string, local map[*types.Func]string) *tainter {
	return &tainter{
		pass: pass, clockVars: clocks, localTaint: local,
		tainted: map[types.Object]string{}, cleansed: map[types.Object]bool{},
	}
}

// analyze runs the flow-insensitive taint transfer to a fixpoint.
func (t *tainter) analyze(fd *ast.FuncDecl) {
	for {
		t.changed = false
		ast.Inspect(fd.Body, t.visit)
		if !t.changed {
			break
		}
	}
}

func (t *tainter) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Go randomizes map iteration order: the loop variables carry it.
		// Any other ranged value hands its taint to the elements, while
		// the index runs 0, 1, ... whatever they hold.
		if t.pass.IsMapType(n.X) {
			t.taintLHS(n.Key, mapOrder)
			t.taintLHS(n.Value, mapOrder)
		} else if why, ok := t.exprTaint(n.X); ok {
			t.taintLHS(n.Value, why)
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				if why, ok := t.exprTaint(n.Rhs[i]); ok {
					t.taintLHS(n.Lhs[i], why)
				}
			}
		} else if len(n.Rhs) == 1 {
			if why, ok := t.exprTaint(n.Rhs[0]); ok {
				for _, lhs := range n.Lhs {
					t.taintLHS(lhs, why)
				}
			}
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			var rhs ast.Expr
			switch {
			case i < len(n.Values):
				rhs = n.Values[i]
			case len(n.Values) == 1:
				rhs = n.Values[0]
			}
			if rhs != nil {
				if why, ok := t.exprTaint(rhs); ok {
					t.taintLHS(name, why)
				}
			}
		}
	case *ast.CallExpr:
		// sort.*/slices.Sort* cleanses: collect-sort-emit is the
		// sanctioned way to canonicalize map-derived data.
		if fn := t.pass.PkgFunc(n); fn != nil && fn.Pkg() != nil &&
			(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
			for _, arg := range n.Args {
				if obj := t.baseObj(arg); obj != nil {
					t.cleansed[obj] = true
					delete(t.tainted, obj)
				}
			}
		}
	}
	return true
}

// taintLHS marks the object behind an assignment target. Index and
// selector targets taint their base (storing a tainted element taints
// the container), except a map store: a map is unordered, so storing
// by key carries no iteration order into it.
func (t *tainter) taintLHS(lhs ast.Expr, why string) {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && t.pass.IsMapType(ix.X) {
		return
	}
	obj := t.baseObj(lhs)
	if obj == nil || obj.Name() == "_" || t.cleansed[obj] {
		return
	}
	if _, already := t.tainted[obj]; !already {
		t.tainted[obj] = why
		t.changed = true
	}
}

// baseObj resolves an expression to the local object it denotes,
// unwrapping index, star, paren and selector layers.
func (t *tainter) baseObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			if obj := t.pass.TypesInfo.Defs[x]; obj != nil {
				return obj
			}
			return t.pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

// exprTaint reports whether evaluating e involves a tainted value, and
// names the source.
func (t *tainter) exprTaint(e ast.Expr) (string, bool) {
	var why string
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			obj := t.pass.TypesInfo.Uses[n]
			if obj == nil {
				obj = t.pass.TypesInfo.Defs[n]
			}
			if obj != nil {
				if w, ok := t.tainted[obj]; ok {
					why, found = w, true
					return false
				}
			}
		case *ast.CallExpr:
			if w, ok := t.sourceCall(n); ok {
				why, found = w, true
				return false
			}
			if t.lenOrCap(n) {
				// A length does not depend on the order of the elements.
				if w, ok := t.exprTaint(n.Args[0]); ok && !strings.HasSuffix(w, mapOrder) {
					why, found = w, true
				}
				return false
			}
		}
		return true
	})
	return why, found
}

// lenOrCap reports whether call is a call to the builtin len or cap.
func (t *tainter) lenOrCap(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return false
	}
	b, ok := t.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// sourceCall reports whether call is itself a nondeterminism source: a
// wall-clock read (direct or through an injected clock), a math/rand
// draw, or a call to a function whose TaintFact says its return value
// derives from one.
func (t *tainter) sourceCall(call *ast.CallExpr) (string, bool) {
	if fn := t.pass.PkgFunc(call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				return "time." + fn.Name(), true
			}
		case "math/rand", "math/rand/v2":
			return fn.Pkg().Path(), true
		}
		if w, ok := t.calleeTaint(fn); ok {
			return w, true
		}
	}
	if fn := t.pass.MethodOf(call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			return fn.Pkg().Path(), true
		}
		if w, ok := t.calleeTaint(fn); ok {
			return w, true
		}
	}
	// Calls through an injected-clock binding: hostNow(), c.clock().
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := t.pass.TypesInfo.Uses[fun]; obj != nil {
			if w, ok := t.clockVars[obj]; ok {
				return w, true
			}
		}
	case *ast.SelectorExpr:
		if s, ok := t.pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.FieldVal {
			if w, ok := t.clockVars[s.Obj()]; ok {
				return w, true
			}
		}
	}
	return "", false
}

// calleeTaint consults the local fixpoint and imported facts for fn.
func (t *tainter) calleeTaint(fn *types.Func) (string, bool) {
	if why, ok := t.localTaint[fn]; ok {
		return fmt.Sprintf("the return value of %s — %s", fn.Name(), why), true
	}
	var fact TaintFact
	if t.pass.ImportObjectFact(fn, &fact) {
		return fmt.Sprintf("the return value of %s — %s", fn.Name(), fact.Why), true
	}
	return "", false
}

// taintedReturns calls visit with each tainted value fd itself returns
// (a result expression, or the return statement for a tainted named
// result at a bare return), skipping nested function literals, until
// visit returns false.
func (t *tainter) taintedReturns(fd *ast.FuncDecl, visit func(at ast.Node, why string) bool) {
	var named []types.Object
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := t.pass.TypesInfo.Defs[name]; obj != nil {
					named = append(named, obj)
				}
			}
		}
	}
	more := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !more {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w, ok := t.exprTaint(r); ok && !visit(r, w) {
					more = false
					return false
				}
			}
			if len(n.Results) == 0 {
				for _, obj := range named {
					if w, ok := t.tainted[obj]; ok && !visit(n, w) {
						more = false
						return false
					}
				}
			}
		}
		return true
	})
}

// checkSinks walks fd for determinism sinks fed by tainted values. In a
// simulation package, or in a canonical function of the canonical-bytes
// packages (canonFn), map order must not reach an output call either; a
// canonical function must also not return it, nor format a float with
// %v or %g.
func (t *tainter) checkSinks(fd *ast.FuncDecl, sim, canonFn bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if canonFn {
				checkFloatVerbs(t.pass, fd.Name.Name, n)
			}
			sink, ok := t.sinkCall(n)
			if !ok {
				if (sim || canonFn) && outputs[analysis.CalleeName(n)] {
					t.checkOrderOutput(fd.Name.Name, n)
				}
				return true
			}
			for _, arg := range n.Args {
				if why, tainted := t.exprTaint(arg); tainted {
					t.pass.Reportf(arg.Pos(),
						"nondeterministic value (%s) reaches canonical encoder %s: cache keys and canonical encodings must depend only on the spec and seed (//lint:allow detflow <why> as a last resort)",
						why, sink)
				}
			}
		case *ast.CompositeLit:
			name, ok := t.resultType(t.pass.TypesInfo.TypeOf(n))
			if !ok {
				return true
			}
			for _, elt := range n.Elts {
				val := elt
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					val = kv.Value
				}
				if why, tainted := t.exprTaint(val); tainted {
					t.pass.Reportf(val.Pos(),
						"nondeterministic value (%s) stored in experiment result %s: results must be reproducible from the spec and seed (//lint:allow detflow <why> as a last resort)",
						why, name)
				}
			}
		case *ast.AssignStmt:
			// res.Field = <tainted> on an experiment *Result value.
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !isSel {
					continue
				}
				s, selOK := t.pass.TypesInfo.Selections[sel]
				if !selOK || s.Kind() != types.FieldVal {
					continue
				}
				name, isResult := t.resultType(s.Recv())
				if !isResult {
					continue
				}
				if why, tainted := t.exprTaint(n.Rhs[i]); tainted {
					t.pass.Reportf(n.Rhs[i].Pos(),
						"nondeterministic value (%s) stored in experiment result %s: results must be reproducible from the spec and seed (//lint:allow detflow <why> as a last resort)",
						why, name)
				}
			}
		}
		return true
	})
	if canonFn {
		t.taintedReturns(fd, func(at ast.Node, why string) bool {
			if strings.HasSuffix(why, mapOrder) {
				t.pass.Reportf(at.Pos(),
					"map iteration order is random but reaches the result of %s: canonical encodings must iterate in sorted order (collect the keys, sort, then emit)",
					fd.Name.Name)
			}
			return true
		})
	}
}

// checkOrderOutput reports an output call in fn that emits map order.
func (t *tainter) checkOrderOutput(fn string, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if why, ok := t.exprTaint(arg); ok && strings.HasSuffix(why, mapOrder) {
			t.pass.Reportf(call.Pos(),
				"map iteration order is random but reaches %s in %s: collect the keys, sort, then emit",
				analysis.CalleeName(call), fn)
			return
		}
	}
}

// checkFloatVerbs reports %v and %g verbs whose operand is a float in a
// fmt call of canonical function fn: shortest-representation float
// rendering is not a stable canonical encoding.
func checkFloatVerbs(pass *analysis.Pass, fn string, call *ast.CallExpr) {
	callee := pass.PkgFunc(call)
	if callee == nil || callee.Pkg().Path() != "fmt" {
		return
	}
	fmtArg, ok := analysis.FormatCallArg[callee.Name()]
	if !ok {
		return
	}
	format, args, ok := analysis.FormatLiteral(call, fmtArg)
	if !ok {
		return
	}
	for _, v := range analysis.ParseVerbs(format) {
		if (v.Verb == 'v' || v.Verb == 'g') && v.ArgIndex < len(args) && isFloat(pass.TypesInfo.TypeOf(args[v.ArgIndex])) {
			pass.Reportf(args[v.ArgIndex].Pos(),
				"%s formats a float with %%%c: use a fixed-width encoding (strconv.FormatFloat or struct JSON) so canonical bytes survive refactors",
				fn, v.Verb)
		}
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sinkCall recognizes in-module canonical functions by name.
func (t *tainter) sinkCall(call *ast.CallExpr) (string, bool) {
	fn := t.pass.PkgFunc(call)
	if fn == nil {
		fn = t.pass.MethodOf(call)
	}
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if _, in := analysis.RelPkgPath(fn.Pkg().Path()); !in {
		return "", false
	}
	if canonName.MatchString(fn.Name()) {
		return fn.Pkg().Name() + "." + fn.Name(), true
	}
	return "", false
}

// resultType reports whether typ is an internal/experiment *Result type.
func (t *tainter) resultType(typ types.Type) (string, bool) {
	named := analysis.NamedType(typ)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	rel, in := analysis.RelPkgPath(named.Obj().Pkg().Path())
	if !in || !analysis.UnderAny(rel, []string{"internal/experiment"}) {
		return "", false
	}
	if !strings.HasSuffix(named.Obj().Name(), "Result") {
		return "", false
	}
	return named.Obj().Name(), true
}
