package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file builds the whole-target devirtualized call graph shared by
// the path-sensitive analyzers (hotpath, hotalloc) and the -callgraph
// dump; taint iterates its nodes. The graph is CHA-style (class
// hierarchy analysis) and deliberately over-approximates:
//
//   - a call through an in-module interface fans out to that method on
//     every in-module concrete type implementing the interface;
//   - a call through a function value fans out to every function,
//     method value or literal observed flowing into the value's
//     variable, field, or parameter — or, for values of a named
//     in-module function type (module.AlertFunc, flow.ExportFunc, ...),
//     to every function coerced to that type anywhere in the module;
//   - a function literal nested in a body is an edge of that body
//     unless it is only launched with go.
//
// go-statement edges are recorded but marked: the callee runs on its
// own goroutine, so path walks (per-packet budget) do not follow them.
//
// A function proven cold by construction (runs only on rare state
// transitions, never per packet) can be cut out of path walks with a
// declaration directive:
//
//	//lint:coldpath <reason>
//
// The reason is mandatory; a directive without one is reported.

// CGNode is one function body in the call graph: a declared function or
// method (Fn != nil) or a function literal (Lit != nil).
type CGNode struct {
	Fn   *types.Func
	Lit  *ast.FuncLit
	Decl *ast.FuncDecl // nil for literals
	Pkg  *Package
	Body *ast.BlockStmt
	// Name is a stable, position-independent identity: Fn.FullName()
	// for declarations, "<parent>$<n>" for the n-th literal nested in
	// parent, in source order.
	Name string
	// Cold marks a //lint:coldpath function: path walks do not enter it.
	Cold bool
}

// CGEdgeKind distinguishes synchronous calls from goroutine launches.
type CGEdgeKind uint8

const (
	// EdgeCall is a synchronous call (plain or deferred).
	EdgeCall CGEdgeKind = iota
	// EdgeGo launches the callee on its own goroutine: off the caller's
	// packet path.
	EdgeGo
)

// CGEdge is one resolved callee of a body (call sites resolving to the
// same callee and kind share one edge).
type CGEdge struct {
	To   *CGNode
	Kind CGEdgeKind
}

// CallGraph is the devirtualized call graph of a whole target.
type CallGraph struct {
	// Nodes lists every function body in deterministic (load) order.
	Nodes []*CGNode
	// Malformed reports //lint:coldpath directives without a reason.
	Malformed []Finding

	byFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
	edges map[*CGNode][]CGEdge
}

type callGraphKey struct{}

// CallGraphOf returns the target's call graph, building it on first
// use and memoizing it as a target fact.
func CallGraphOf(t *Target) *CallGraph {
	return t.Fact(callGraphKey{}, func() any { return buildCallGraph(t) }).(*CallGraph)
}

// NodeOf returns the graph node for a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode { return g.byFn[fn] }

// LitNodeOf returns the graph node for a function literal, or nil.
func (g *CallGraph) LitNodeOf(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// Edges returns the node's outgoing edges, sorted by callee name.
func (g *CallGraph) Edges(n *CGNode) []CGEdge { return g.edges[n] }

// Roots returns the packet-path roots in scope: every method whose
// name is in methods and every package-level function whose name is in
// funcs.
func (g *CallGraph) Roots(methods, funcs map[string]bool, scope ScopeFunc) []*CGNode {
	var out []*CGNode
	for _, n := range g.Nodes {
		if n.Fn == nil || n.Decl == nil || !scope(n.Pkg.Path) {
			continue
		}
		names := funcs
		if n.Decl.Recv != nil {
			names = methods
		}
		if names[n.Fn.Name()] {
			out = append(out, n)
		}
	}
	return out
}

// Reachable walks synchronous edges from the roots, staying within
// scope and outside //lint:coldpath functions. It returns each reached
// node mapped to a sample root, for "on the packet path via X"
// reporting.
func (g *CallGraph) Reachable(roots []*CGNode, within func(*CGNode) bool) map[*CGNode]*CGNode {
	via := make(map[*CGNode]*CGNode)
	var queue []*CGNode
	for _, r := range roots {
		if r.Cold || !within(r) {
			continue
		}
		if _, seen := via[r]; !seen {
			via[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.edges[n] {
			if e.Kind == EdgeGo || e.To.Cold || !within(e.To) {
				continue
			}
			if _, seen := via[e.To]; !seen {
				via[e.To] = via[n]
				queue = append(queue, e.To)
			}
		}
	}
	return via
}

// inspectOwn walks a node's own body like ast.Inspect, but does not
// descend into nested function literals — those are call-graph nodes of
// their own, visited (or not) according to the graph's edges. The
// literal itself is still passed to fn, so callers can see the edge.
func inspectOwn(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			fn(n)
			return false
		}
		return fn(n)
	})
}

// cgBuilder holds the devirtualization tables while the graph is built.
type cgBuilder struct {
	t *Target
	g *CallGraph
	// cha maps an interface method object to the in-module concrete
	// methods implementing it.
	cha map[*types.Func][]*CGNode
	// varBinds maps a variable (local, parameter, field, or package
	// var) of function type to the function values observed flowing
	// into it anywhere in the module.
	varBinds map[*types.Var][]*CGNode
	// coercions maps a named in-module function type (module.AlertFunc,
	// flow.Tracker factories, ...) to every function value coerced to
	// it — the function-type analogue of CHA.
	coercions map[*types.TypeName][]*CGNode
}

func buildCallGraph(t *Target) *CallGraph {
	b := &cgBuilder{
		t: t,
		g: &CallGraph{
			byFn:  make(map[*types.Func]*CGNode),
			byLit: make(map[*ast.FuncLit]*CGNode),
			edges: make(map[*CGNode][]CGEdge),
		},
		cha:       make(map[*types.Func][]*CGNode),
		varBinds:  make(map[*types.Var][]*CGNode),
		coercions: make(map[*types.TypeName][]*CGNode),
	}
	b.collectNodes()
	b.collectCHA()
	b.bindPackageLevel()
	for _, n := range b.g.Nodes {
		if n.Body != nil {
			b.collectBindings(n)
		}
	}
	for _, n := range b.g.Nodes {
		if n.Body != nil {
			b.collectEdges(n)
		}
	}
	for _, n := range b.g.Nodes {
		edges := b.g.edges[n]
		sort.SliceStable(edges, func(i, j int) bool {
			if edges[i].To.Name != edges[j].To.Name {
				return edges[i].To.Name < edges[j].To.Name
			}
			return edges[i].Kind < edges[j].Kind
		})
	}
	return b.g
}

// collectNodes indexes every function declaration and literal.
func (b *cgBuilder) collectNodes() {
	for _, pkg := range b.t.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					n := &CGNode{Fn: fn, Decl: d, Pkg: pkg, Body: d.Body, Name: fn.FullName()}
					b.applyColdpath(n)
					b.g.byFn[fn] = n
					b.g.Nodes = append(b.g.Nodes, n)
					b.collectLits(pkg, n.Name, d.Body)
				case *ast.GenDecl:
					// Function literals in package-level initializers.
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, v := range vs.Values {
							name := pkg.Path + "." + vs.Names[min(i, len(vs.Names)-1)].Name
							b.collectLits(pkg, name, v)
						}
					}
				}
			}
		}
	}
}

// collectLits registers the function literals directly nested in body
// (not inside deeper literals), named <parent>$<index>, recursing into
// each literal for its own children.
func (b *cgBuilder) collectLits(pkg *Package, parent string, body ast.Node) {
	idx := 0
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		node := &CGNode{Lit: lit, Pkg: pkg, Body: lit.Body, Name: parent + "$" + strconv.Itoa(idx)}
		idx++
		b.g.byLit[lit] = node
		b.g.Nodes = append(b.g.Nodes, node)
		b.collectLits(pkg, node.Name, lit.Body)
		return false
	})
}

// applyColdpath reads a //lint:coldpath directive off the declaration's
// doc comment.
func (b *cgBuilder) applyColdpath(n *CGNode) {
	if n.Decl.Doc == nil {
		return
	}
	for _, c := range n.Decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//lint:coldpath")
		if !ok {
			continue
		}
		if strings.TrimSpace(rest) == "" {
			b.g.Malformed = append(b.g.Malformed, Finding{
				Pos:  b.t.Fset.Position(c.Pos()),
				Rule: "lint",
				Message: "malformed //lint:coldpath directive: " +
					"need \"//lint:coldpath <reason>\"",
			})
			continue
		}
		n.Cold = true
	}
}

// collectCHA pairs every in-module named interface with the in-module
// concrete types implementing it, mapping each abstract method to its
// concrete implementations.
func (b *cgBuilder) collectCHA() {
	var ifaces, concretes []*types.Named
	for _, pkg := range b.t.Packages {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concretes = append(concretes, named)
			}
		}
	}
	for _, in := range ifaces {
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, cn := range concretes {
			var impl types.Type
			switch {
			case types.Implements(cn, iface):
				impl = cn
			case types.Implements(types.NewPointer(cn), iface):
				impl = types.NewPointer(cn)
			default:
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				am := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, am.Pkg(), am.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if n := b.g.byFn[cm]; n != nil {
					b.cha[am] = appendNode(b.cha[am], n)
				}
			}
		}
	}
}

// appendNode appends n if not already present (small lists).
func appendNode(list []*CGNode, n *CGNode) []*CGNode {
	for _, x := range list {
		if x == n {
			return list
		}
	}
	return append(list, n)
}

// namedFuncType returns the in-module named function type behind typ,
// or nil.
func (b *cgBuilder) namedFuncType(typ types.Type) *types.TypeName {
	named, ok := typ.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Signature); !ok {
		return nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil || b.t.byPath[tn.Pkg().Path()] == nil {
		return nil
	}
	return tn
}

// funcValues resolves the function bodies an expression can evaluate
// to: named functions, method values, literals, and conversions of
// those.
func (b *cgBuilder) funcValues(pkg *Package, e ast.Expr) []*CGNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := b.g.byLit[e]; n != nil {
			return []*CGNode{n}
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			if n := b.g.byFn[fn.Origin()]; n != nil {
				return []*CGNode{n}
			}
		}
	case *ast.SelectorExpr:
		// Origin: a method value of an instantiated generic type is the
		// one declared body (as in calleeOf).
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if n := b.g.byFn[fn.Origin()]; n != nil {
					return []*CGNode{n}
				}
				// Method value on an interface: all implementations.
				return b.cha[fn]
			}
		}
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if n := b.g.byFn[fn.Origin()]; n != nil {
				return []*CGNode{n}
			}
		}
	case *ast.CallExpr:
		// A conversion wrapping a function value: Handler(f).
		if tv, ok := pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return b.funcValues(pkg, e.Args[0])
		}
	}
	return nil
}

// bind records function values flowing into a variable (and, when the
// variable's type is a named function type, into that type's coercion
// set).
func (b *cgBuilder) bind(v *types.Var, vals []*CGNode) {
	if v == nil || len(vals) == 0 {
		return
	}
	for _, n := range vals {
		b.varBinds[v] = appendNode(b.varBinds[v], n)
	}
	b.coerce(v.Type(), vals)
}

func (b *cgBuilder) coerce(typ types.Type, vals []*CGNode) {
	tn := b.namedFuncType(typ)
	if tn == nil {
		return
	}
	for _, n := range vals {
		b.coercions[tn] = appendNode(b.coercions[tn], n)
	}
}

// lhsVar resolves the variable object an assignment target denotes.
func lhsVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Defs[e].(*types.Var); ok {
			return v
		}
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// collectBindings scans one node's own statements (plus, for the
// synthetic package-level pass, initializer expressions) for function
// values flowing into variables, fields, composites, and call
// arguments.
func (b *cgBuilder) collectBindings(n *CGNode) {
	pkg := n.Pkg
	inspectOwn(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					b.bind(lhsVar(pkg, lhs), b.funcValues(pkg, s.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i := range s.Names {
				if i < len(s.Values) {
					b.bind(lhsVar(pkg, s.Names[i]), b.funcValues(pkg, s.Values[i]))
				}
			}
		case *ast.CompositeLit:
			b.bindComposite(pkg, s)
		case *ast.CallExpr:
			b.bindCallArgs(n, s)
		}
		return true
	})
}

// bindPackageLevel scans package-level var initializers (function-typed
// globals, registry tables) for bindings; these sit outside any node
// body.
func (b *cgBuilder) bindPackageLevel() {
	for _, pkg := range b.t.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i := range vs.Names {
						if i < len(vs.Values) {
							b.bind(lhsVar(pkg, vs.Names[i]), b.funcValues(pkg, vs.Values[i]))
						}
					}
					for _, v := range vs.Values {
						inspectOwn(v, func(node ast.Node) bool {
							if cl, ok := node.(*ast.CompositeLit); ok {
								b.bindComposite(pkg, cl)
							}
							return true
						})
					}
				}
			}
		}
	}
}

// bindComposite matches composite-literal elements to their
// function-typed fields or element types.
func (b *cgBuilder) bindComposite(pkg *Package, cl *ast.CompositeLit) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return
	}
	typ := tv.Type
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for f := 0; f < u.NumFields(); f++ {
					if u.Field(f).Name() == key.Name {
						b.bind(u.Field(f), b.funcValues(pkg, kv.Value))
						break
					}
				}
			} else if i < u.NumFields() {
				b.bind(u.Field(i), b.funcValues(pkg, elt))
			}
		}
	case *types.Slice:
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			b.coerce(u.Elem(), b.funcValues(pkg, elt))
		}
	case *types.Array:
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			b.coerce(u.Elem(), b.funcValues(pkg, elt))
		}
	case *types.Map:
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				b.coerce(u.Elem(), b.funcValues(pkg, kv.Value))
			}
		}
	}
}

// bindCallArgs binds function-valued arguments to the callee's
// parameters (devirtualizing same-module callbacks) and to the
// parameter's named function type. Function values handed to callees
// outside the module (sort.Slice and friends) are assumed invoked
// synchronously: a direct edge from the caller.
func (b *cgBuilder) bindCallArgs(n *CGNode, call *ast.CallExpr) {
	pkg := n.Pkg
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion: T(f) coerces f to T.
		if len(call.Args) == 1 {
			b.coerce(tv.Type, b.funcValues(pkg, call.Args[0]))
		}
		return
	}
	static := calleeOf(pkg.Info, call)
	var sig *types.Signature
	if static != nil {
		sig, _ = static.Type().(*types.Signature)
	} else if tv, ok := pkg.Info.Types[call.Fun]; ok {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return
	}
	inModule := static != nil && static.Pkg() != nil && b.t.byPath[static.Pkg().Path()] != nil
	np := sig.Params().Len()
	for i, arg := range call.Args {
		vals := b.funcValues(pkg, arg)
		if len(vals) == 0 {
			continue
		}
		var param *types.Var
		var ptype types.Type
		if sig.Variadic() && i >= np-1 {
			param = sig.Params().At(np - 1)
			ptype = param.Type()
			if sl, ok := ptype.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				ptype = sl.Elem()
			}
		} else if i < np {
			param = sig.Params().At(i)
			ptype = param.Type()
		}
		if ptype != nil {
			b.coerce(ptype, vals)
		}
		switch {
		case inModule && param != nil:
			b.bind(param, vals)
		case static != nil && !inModule:
			// Callback handed to the standard library: assume it runs
			// on the caller's goroutine.
			for _, v := range vals {
				b.addEdge(n, v, EdgeCall)
			}
		}
	}
}

func (b *cgBuilder) addEdge(from, to *CGNode, kind CGEdgeKind) {
	for _, e := range b.g.edges[from] {
		if e.To == to && e.Kind == kind {
			return
		}
	}
	b.g.edges[from] = append(b.g.edges[from], CGEdge{To: to, Kind: kind})
}

// collectEdges resolves every call site in the node's own body.
func (b *cgBuilder) collectEdges(n *CGNode) {
	// Calls launched with go, and literals that are only launched or
	// immediately invoked (so the plain nested-literal edge is skipped).
	goCalls := make(map[*ast.CallExpr]bool)
	invokedLits := make(map[*ast.FuncLit]bool)
	inspectOwn(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.GoStmt:
			goCalls[s.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(s.Fun).(*ast.FuncLit); ok {
				invokedLits[lit] = true
			}
		}
		return true
	})
	inspectOwn(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			// A literal created here and not immediately invoked is
			// conservatively part of this body's path (it may be stored
			// and called, or handed to a callee); binding resolution
			// reaches it too, and duplicate edges are deduplicated.
			if !invokedLits[s] {
				if to := b.g.byLit[s]; to != nil {
					b.addEdge(n, to, EdgeCall)
				}
			}
		case *ast.CallExpr:
			b.edgeForCall(n, s, goCalls[s])
		}
		return true
	})
}

// edgeForCall devirtualizes one call expression.
func (b *cgBuilder) edgeForCall(n *CGNode, call *ast.CallExpr, isGo bool) {
	pkg := n.Pkg
	kind := EdgeCall
	if isGo {
		kind = EdgeGo
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if static := calleeOf(pkg.Info, call); static != nil {
		if to := b.g.byFn[static]; to != nil {
			b.addEdge(n, to, kind)
		} else if impls := b.cha[static]; impls != nil {
			// Interface method: fan out to every implementation.
			for _, to := range impls {
				b.addEdge(n, to, kind)
			}
		}
		return
	}
	// A call through a function value.
	var targets []*CGNode
	addVar := func(v *types.Var) {
		targets = append(targets, b.varBinds[v]...)
		if tn := b.namedFuncType(v.Type()); tn != nil {
			targets = append(targets, b.coercions[tn]...)
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if to := b.g.byLit[fun]; to != nil {
			targets = append(targets, to)
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[fun].(*types.Var); ok {
			addVar(v)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				addVar(v)
			}
		} else if v, ok := pkg.Info.Uses[fun.Sel].(*types.Var); ok {
			addVar(v)
		}
	case *ast.IndexExpr:
		// Calling an element of a slice/map of a named function type.
		if tv, ok := pkg.Info.Types[fun]; ok {
			if tn := b.namedFuncType(tv.Type); tn != nil {
				targets = append(targets, b.coercions[tn]...)
			}
		}
	}
	for _, to := range targets {
		b.addEdge(n, to, kind)
	}
}
