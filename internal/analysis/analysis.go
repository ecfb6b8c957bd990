// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package and reports Diagnostics. The module is stdlib-only
// by policy, so rather than importing x/tools this package provides just
// the slice of it that cmd/clusterlint needs — enough to write unit
// analyzers, test them against fixtures (analysistest), and run them
// under `go vet -vettool` (vetdriver).
//
// The analyzers themselves live in subpackages (detflow, ctxflow,
// lockorder, goroleak, atomicfield, unitsafe, errwrap) and are assembled
// by the suite package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. Run inspects a single package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name> <justification>` suppression comments. It must
	// be a valid identifier.
	Name string
	// Doc is the human-readable description printed by `clusterlint help`.
	Doc string
	// Run performs the analysis. A returned error aborts the whole run
	// (reserve it for internal failures, not findings).
	Run func(*Pass) error
	// FactTypes lists prototypes (pointers to zero structs) of every
	// Fact this analyzer exports, so drivers can register them with gob
	// before vetx payloads are written or read. An analyzer with no
	// FactTypes sees an empty facts view.
	FactTypes []Fact
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts *FactDB
	diags []Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed package.
// Suppressed and Justification are filled in by Annotate when a
// `//lint:allow` waiver covers the finding; text output drops
// suppressed findings, `-json` output reports them flagged.
type Diagnostic struct {
	Pos           token.Pos
	Message       string
	Analyzer      string
	Suppressed    bool
	Justification string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// NewPass assembles a Pass for one package. Callers (vetdriver,
// analysistest) run pass.Analyzer.Run(pass) themselves. facts may be
// nil, in which case every fact import misses and exports are dropped —
// analyzers must degrade to intra-package precision, not crash.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactDB) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, facts: facts}
}

// NewInfo returns a types.Info with every map allocated, as analyzers
// expect.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// PkgFunc resolves a call to a package-level function and returns it, or
// nil when the callee is anything else (method, local closure, builtin,
// conversion). Aliased imports resolve correctly because the lookup goes
// through the type checker, not the source text.
func (p *Pass) PkgFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := p.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return nil // method, not a package function
	}
	return fn
}

// CallTo reports whether call invokes pkgPath.name (a package-level
// function).
func (p *Pass) CallTo(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.PkgFunc(call)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// CalleeName returns the bare name of the called function or method
// ("Printf", "Write"), or "" when it has no name (calls through function
// values bound to composite expressions).
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// NamedType unwraps pointers and returns the named type beneath t, or
// nil when t is not (a pointer to) a named type.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// MethodOf resolves a call to a method and returns it, or nil when the
// callee is anything else. The complement of PkgFunc.
func (p *Pass) MethodOf(call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	return fn
}

// IsMapType reports whether the expression's static type is (or points
// to) a map.
func (p *Pass) IsMapType(e ast.Expr) bool {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
