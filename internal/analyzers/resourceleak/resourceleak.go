// Package resourceleak proves resource lifecycles closed on every path:
//
//   - a time.NewTicker must reach t.Stop() on every path to return (a
//     ticker pins its runtime timer until stopped; the ingest commit loop
//     shipped one release late);
//   - a time.NewTimer must reach Stop() or a <-t.C drain;
//   - an os.Open/Create file, and any module "Open*" handle whose type has
//     a Close method (the store itself), must reach Close();
//   - in the long-lived packages, a spawned goroutine must be joinable:
//     its closure signals termination through a WaitGroup.Done, a
//     done-channel close or send, or a cancellation receive — otherwise
//     shutdown cannot wait for it.
//
// The path proof is a DFS over the function's CFG from the creation site:
// a path is satisfied when it hits a release, and leaky when it reaches
// Exit without one. A path through the error-true arm of the creation's
// own `err != nil` guard carries no resource (the creation failed), so
// `if err != nil { return err }` right after Open is not a leak. A defer
// that releases the resource satisfies every path at once. Resources that
// escape the function — returned, stored, passed, captured — transfer
// ownership and are not this function's to close.
package resourceleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/shiftsplit/shiftsplit/internal/analyzers/analysis"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/cfg"
	"github.com/shiftsplit/shiftsplit/internal/analyzers/vetutil"
)

// Analyzer is the resourceleak check.
var Analyzer = &analysis.Analyzer{
	Name: "resourceleak",
	Doc:  "tickers, timers, files, and opened stores must reach Stop/Close on every path; goroutines in long-lived packages must be joinable",
	Run:  run,
}

// goroutinePkgs are where the unjoinable-goroutine rule applies: the
// subsystems whose goroutines outlive requests and must be shut down.
var goroutinePkgs = []string{
	"internal/server",
	"internal/ingest",
	"internal/storage",
	"internal/parallel",
}

// resource is one tracked creation.
type resource struct {
	obj      types.Object // the variable bound to the handle
	errObj   types.Object // the err bound by the same assignment (nil if none)
	pos      token.Pos
	what     string   // diagnostic noun, e.g. "time.Ticker"
	releases []string // method names that release it
	drainC   bool     // a receive from .C also releases (timers)
	create   ast.Node // the creating statement (skipped in scans)
}

func run(pass *analysis.Pass) error {
	checkGoroutines := pass.Pkg.Name() != "main" &&
		(pass.Pkg.Path() == vetutil.RootPkgPath || vetutil.HasAnyPathSuffix(pass.Pkg.Path(), goroutinePkgs...))

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, n.Body)
			case *ast.GoStmt:
				if checkGoroutines {
					checkGoroutine(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkBody runs the path proof for every resource created directly in
// body (function literals are their own bodies and checked separately).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	resources := findCreations(pass, body)
	if len(resources) == 0 {
		return
	}
	g := cfg.New(body)
	for _, r := range resources {
		if deferReleases(pass, body, r) || escapes(pass, body, r) {
			continue
		}
		if leaks(pass, g, r) {
			verb := "Stop"
			if r.releases[0] == "Close" {
				verb = "Close"
			}
			pass.Reportf(r.pos, "%s may reach a return without %s on some path; release it on every path (a defer covers all of them)",
				r.what, verb)
		}
	}
}

// findCreations collects tracked creations assigned to fresh local
// variables, outside nested function literals.
func findCreations(pass *analysis.Pass, body *ast.BlockStmt) []*resource {
	var out []*resource
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		r := classifyCreation(pass, call)
		if r == nil {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		r.obj = pass.TypesInfo.ObjectOf(id)
		if r.obj == nil {
			return true
		}
		if len(as.Lhs) > 1 {
			if errID, ok := as.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
				r.errObj = pass.TypesInfo.ObjectOf(errID)
			}
		}
		r.pos = call.Pos()
		r.create = as
		out = append(out, r)
		return true
	})
	return out
}

// classifyCreation recognizes the creating calls this analyzer tracks.
func classifyCreation(pass *analysis.Pass, call *ast.CallExpr) *resource {
	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	switch vetutil.DeclPkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "NewTicker":
			return &resource{what: "time.Ticker", releases: []string{"Stop"}}
		case "NewTimer":
			return &resource{what: "time.Timer", releases: []string{"Stop"}, drainC: true}
		}
		return nil
	case "os":
		switch fn.Name() {
		case "Open", "Create", "OpenFile":
			return &resource{what: "os.File", releases: []string{"Close"}}
		}
		return nil
	}
	// Module-internal handle constructors: Open* returning a type with a
	// Close method (the store API's own shape).
	if !strings.HasPrefix(fn.Name(), "Open") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	t := sig.Results().At(0).Type()
	if !hasMethod(t, "Close") {
		return nil
	}
	name := fn.Name()
	if named, ok := derefNamed(t); ok {
		name = named.Obj().Name()
	}
	return &resource{what: name + " handle", releases: []string{"Close"}}
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func hasMethod(t types.Type, name string) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// deferReleases reports whether any defer in body releases r, directly or
// through a deferred closure.
func deferReleases(pass *analysis.Pass, body *ast.BlockStmt, r *resource) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if releasesResource(pass, d.Call, r) {
			found = true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && releasesResource(pass, call, r) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// releasesResource reports whether call is r.Stop()/r.Close() on the
// tracked variable.
func releasesResource(pass *analysis.Pass, call *ast.CallExpr, r *resource) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(id) != r.obj {
		return false
	}
	for _, m := range r.releases {
		if sel.Sel.Name == m {
			return true
		}
	}
	return false
}

// drains reports whether e is `<-r.C` (timer drain).
func drains(pass *analysis.Pass, e *ast.UnaryExpr, r *resource) bool {
	if !r.drainC || e.Op != token.ARROW {
		return false
	}
	sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == r.obj
}

// escapes reports whether r leaves the function's custody: returned,
// passed as a call argument, sent on a channel, aliased by assignment,
// captured by a closure, or stored in a field of a composite literal whose
// variable is returned. An escaped handle is its new owner's to close.
func escapes(pass *analysis.Pass, body *ast.BlockStmt, r *resource) bool {
	holders := literalHolders(pass, body, r)
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc || n == r.create {
			return !esc
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				// `return s.Close()` releases; it does not hand s out.
				if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && releasesResource(pass, call, r) {
					continue
				}
				if containsObj(pass, e, r.obj) {
					esc = true
				}
				for _, h := range holders {
					if bareObj(pass, e, h) {
						esc = true
					}
				}
			}
		case *ast.CallExpr:
			if releasesResource(pass, n, r) {
				return true
			}
			for _, arg := range n.Args {
				if containsObj(pass, arg, r.obj) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if containsObj(pass, n.Value, r.obj) {
				esc = true
			}
		case *ast.AssignStmt:
			for _, e := range n.Rhs {
				if bareObj(pass, e, r.obj) {
					esc = true
				}
			}
			// Rebinding the variable loses track of the original handle;
			// stay quiet rather than follow aliases.
			for _, e := range n.Lhs {
				if bareObj(pass, e, r.obj) {
					esc = true
				}
			}
		case *ast.ValueSpec:
			// `var data Iface = handle` aliases custody away just like an
			// assignment would.
			for _, e := range n.Values {
				if bareObj(pass, e, r.obj) {
					esc = true
				}
			}
		case *ast.FuncLit:
			if containsObj(pass, n.Body, r.obj) {
				esc = true
			}
			return false
		}
		return !esc
	})
	return esc
}

// literalHolders returns the local variables bound to a composite literal
// that stores r in one of its fields or elements (`s := &T{f: f}`). Such a
// literal does not hand r out by itself; returning the holder does, since
// the caller then owns the struct that owns the handle.
func literalHolders(pass *analysis.Pass, body *ast.BlockStmt, r *resource) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok || id.Name == "_" || !literalStores(pass, rhs, r.obj) {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// literalStores reports whether e is a composite literal (or its address)
// with obj as the value of one of its elements.
func literalStores(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = ast.Unparen(un.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		if bareObj(pass, elt, obj) {
			return true
		}
	}
	return false
}

// bareObj reports whether e is exactly the variable (or its address).
func bareObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		e = ast.Unparen(un.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == obj
}

func containsObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// leaks runs the path DFS: true when some path from the creation reaches
// Exit without releasing r.
func leaks(pass *analysis.Pass, g *cfg.Graph, r *resource) bool {
	// Locate the creation node.
	var startBlk *cfg.Block
	startIdx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == r.create {
				startBlk, startIdx = b, i
				break
			}
		}
		if startBlk != nil {
			break
		}
	}
	if startBlk == nil {
		return false
	}

	visited := make(map[*cfg.Block]bool)
	var walk func(b *cfg.Block, from int) bool
	walk = func(b *cfg.Block, from int) bool {
		for i := from; i < len(b.Nodes); i++ {
			if nodeReleases(pass, b.Nodes[i], r) {
				return false // this path is satisfied
			}
		}
		skip := errTrueSucc(pass, b, r)
		for si, s := range b.Succs {
			if si == skip {
				continue
			}
			if s == g.Exit {
				return true
			}
			if visited[s] {
				continue
			}
			visited[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(startBlk, startIdx+1)
}

// nodeReleases reports whether executing node n releases r.
func nodeReleases(pass *analysis.Pass, n ast.Node, r *resource) bool {
	released := false
	cfg.ScanNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if releasesResource(pass, m, r) {
				released = true
			}
		case *ast.UnaryExpr:
			if drains(pass, m, r) {
				released = true
			}
		}
		return !released
	})
	return released
}

// errTrueSucc returns the successor index that carries the error-true arm
// of r's own creation guard when b ends in `err != nil` / `err == nil`
// (the creation failed there, so the handle does not exist), or -1.
func errTrueSucc(pass *analysis.Pass, b *cfg.Block, r *resource) int {
	if r.errObj == nil || len(b.Nodes) == 0 || len(b.Succs) < 2 {
		return -1
	}
	bin, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return -1
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if !isNil(pass, y) {
		x, y = y, x
	}
	if !isNil(pass, y) || !bareObj(pass, x, r.errObj) {
		return -1
	}
	if bin.Op == token.NEQ {
		return 0 // then-branch is error-true
	}
	return 1 // else/after-branch is error-true
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.ObjectOf(id).(*types.Nil)
	return isNilObj
}

// checkGoroutine flags `go func(){...}()` whose closure offers no join or
// termination signal: nothing closes or sends on a channel, no
// WaitGroup.Done (or any .Done call), no cancellation receive, no
// range-over-channel.
func checkGoroutine(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	joinable := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joinable {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			joinable = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" && pass.TypesInfo.ObjectOf(fun) == nil ||
					isBuiltinClose(pass, fun) {
					joinable = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					joinable = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && vetutil.CancellationExpr(pass.TypesInfo, n.X) {
				joinable = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joinable = true
				}
			}
		}
		return !joinable
	})
	if !joinable {
		pass.Reportf(g.Pos(),
			"goroutine is unjoinable: nothing signals its termination (no WaitGroup.Done, no done-channel close/send, no cancellation receive); shutdown cannot wait for it")
	}
}

func isBuiltinClose(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && id.Name == "close"
}
