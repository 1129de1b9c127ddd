package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc is a heuristic escape check on the packet path (the same
// devirtualized walk as hotpath): constructs that heap-allocate per
// packet are flagged so the §VI-B overhead budget survives review.
// Flagged on the path, outside module.Alert composite literals (the
// cold, cooldown-gated alert branch):
//
//   - pointer composite literals (&T{...}), new(T) and slice/map
//     literals — one heap object per packet;
//   - non-constant string concatenation — builds a fresh string per
//     packet (use a struct key or a preallocated buffer);
//   - append to a locally declared slice with no capacity — growth
//     reallocations on the path (preallocate with make(T, 0, cap));
//   - interface boxing: passing a struct, slice, string, array or
//     non-constant numeric value to an interface-typed parameter of an
//     in-module function — the value is copied to the heap at the call.
//
// The rule is deliberately heuristic: value-struct literals, make(),
// pointer-shaped values (pointers, maps, chans, funcs) and calls into
// the standard library are not flagged. Amortized allocations (flow
// expiry batches, once-per-flow state) are expected to carry a
// //lint:ignore hotalloc annotation saying why they are off the
// per-packet budget.
type HotAlloc struct {
	RootScope ScopeFunc
	WalkScope ScopeFunc
}

// Name implements Analyzer.
func (*HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (*HotAlloc) Doc() string {
	return "no per-packet heap allocation on the packet path: composite literals, string concat, unsized append growth, interface boxing"
}

// Run implements Analyzer.
func (a *HotAlloc) Run(t *Target) []Finding {
	var out []Finding
	for node, root := range pathReachable(t, a.RootScope, a.WalkScope) {
		out = append(out, a.checkNode(t, node, root)...)
	}
	return out
}

func (a *HotAlloc) checkNode(t *Target, node, root *CGNode) []Finding {
	info := node.Pkg.Info
	suffix := " (on the packet path via " + root.Name + ")"
	alertRanges := alertLitRanges(node)
	sized := sizedSliceVars(node)

	var out []Finding
	flag := func(n ast.Node, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(n.Pos()), Rule: a.Name(), Message: msg + suffix})
	}
	inspectOwn(node.Body, func(n ast.Node) bool {
		if inRanges(alertRanges, n) {
			return false // the alert literal is the exempt cold branch
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				if tv, ok := info.Types[cl]; ok {
					flag(n, "heap allocation: &"+typeShort(tv.Type)+"{...} per packet"+
						"; hoist it off the path or reuse a pooled value")
				}
				return false // don't re-flag the literal itself
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					flag(n, "heap allocation: slice literal per packet"+
						"; preallocate it off the path")
				case *types.Map:
					flag(n, "heap allocation: map literal per packet"+
						"; preallocate it off the path")
				}
			}
		case *ast.BinaryExpr:
			if isStringConcat(info, n) {
				flag(n, "per-packet string concatenation allocates"+
					"; use a struct key or precomputed string")
				return false // the operands are part of the same chain
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "new") {
				flag(n, "heap allocation: new("+types.ExprString(n.Args[0])+") per packet"+
					"; hoist it off the path or reuse a pooled value")
				return true
			}
			if isBuiltin(info, n, "append") {
				if v := localSliceBase(info, n); v != nil && !sized[v] {
					flag(n, "append growth on an unsized local slice allocates per packet"+
						"; preallocate with make(T, 0, cap)")
				}
				return true
			}
			out = append(out, a.checkBoxing(t, node, n, suffix)...)
		}
		return true
	})
	return out
}

// checkBoxing flags concrete values boxed into interface-typed
// parameters of in-module calls (stdlib calls are out of scope — the
// interesting per-packet boxing is handler payloads).
func (a *HotAlloc) checkBoxing(t *Target, node *CGNode, call *ast.CallExpr, suffix string) []Finding {
	info := node.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	var sig *types.Signature
	if static := calleeOf(info, call); static != nil {
		if static.Pkg() == nil || node.Pkg.Info == nil {
			return nil
		}
		if !inModulePkg(t, static.Pkg().Path()) {
			return nil
		}
		sig, _ = static.Type().(*types.Signature)
	} else if tv, ok := info.Types[call.Fun]; ok {
		// Calls through function values are module-defined by nature.
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	if sig == nil {
		return nil
	}
	np := sig.Params().Len()
	var out []Finding
	for i, arg := range call.Args {
		var ptype types.Type
		if sig.Variadic() && i >= np-1 {
			ptype = sig.Params().At(np - 1).Type()
			if sl, ok := ptype.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				ptype = sl.Elem()
			}
		} else if i < np {
			ptype = sig.Params().At(i).Type()
		}
		if ptype == nil {
			continue
		}
		if _, ok := ptype.Underlying().(*types.Interface); !ok {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || atv.Value != nil { // constants intern
			continue
		}
		if !boxAllocates(atv.Type) {
			continue
		}
		out = append(out, Finding{
			Pos:  t.Fset.Position(arg.Pos()),
			Rule: a.Name(),
			Message: "interface boxing of " + typeShort(atv.Type) + " value allocates per packet" + suffix +
				"; pass a pointer or preallocate the boxed value",
		})
	}
	return out
}

// boxAllocates reports whether converting a value of typ to an
// interface copies it to the heap: structs, arrays, slices, strings and
// numerics do; pointer-shaped values (pointers, maps, chans, funcs) and
// interfaces don't.
func boxAllocates(typ types.Type) bool {
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		return u.NumFields() > 0
	case *types.Array:
		return u.Len() > 0
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&(types.IsNumeric|types.IsString) != 0
	}
	return false
}

// isStringConcat reports a non-constant string + at the top of its
// chain (the parent of a flagged concat is skipped by the caller).
func isStringConcat(info *types.Info, n *ast.BinaryExpr) bool {
	if n.Op.String() != "+" {
		return false
	}
	tv, ok := info.Types[n]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isBuiltin reports a call to the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// localSliceBase returns the local variable a call appends to, or nil
// when the base is not a plain local identifier (fields and parameters
// are outside this heuristic).
func localSliceBase(info *types.Info, call *ast.CallExpr) *types.Var {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return nil // package-level
	}
	return v
}

// sizedSliceVars collects local slice variables declared with an
// explicit capacity (make with 3 arguments) in the node's own body —
// exempt from the unsized-append check. Parameters are exempt by
// construction (localSliceBase only resolves body-declared locals, but
// parameters resolve too, so record them here as sized: the caller owns
// their capacity).
func sizedSliceVars(node *CGNode) map[*types.Var]bool {
	info := node.Pkg.Info
	sized := make(map[*types.Var]bool)
	if node.Decl != nil && node.Decl.Type.Params != nil {
		for _, f := range node.Decl.Type.Params.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					sized[v] = true
				}
			}
		}
	}
	if node.Lit != nil && node.Lit.Type.Params != nil {
		for _, f := range node.Lit.Type.Params.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					sized[v] = true
				}
			}
		}
	}
	inspectOwn(node.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := info.Defs[id].(*types.Var)
			if !ok {
				if v, ok = info.Uses[id].(*types.Var); !ok {
					continue
				}
			}
			if call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr); ok &&
				isBuiltin(info, call, "make") && len(call.Args) == 3 {
				sized[v] = true
			}
		}
		return true
	})
	return sized
}

// inModulePkg reports whether the import path belongs to the loaded
// module.
func inModulePkg(t *Target, path string) bool { return t.byPath[path] != nil }

// typeShort renders a type compactly for messages (package-qualified
// by name, not full path).
func typeShort(typ types.Type) string {
	return types.TypeString(typ, func(p *types.Package) string { return p.Name() })
}
