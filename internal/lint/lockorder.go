package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// LockOrder checks mutex discipline across the devirtualized call
// graph. The node has real concurrency — ingest-ring workers,
// supervisor state machines, ref-counted endpoint trackers — and the
// repo's convention is copy-under-lock, call-after-unlock: no callback
// or channel send ever runs with a mutex held. Two violations are
// flagged:
//
//   - a lock held across a call that can block: a blocking channel
//     send (no select-default), directly or transitively. The consumer
//     that would drain the channel may need the same lock.
//   - inconsistent acquisition order: if one code path locks A then B
//     and another locks B then A (same lock classes, where a class is
//     the declared mutex variable or field), the paths deadlock under
//     contention. The acquisition-order graph is built from every
//     lexical Lock/RLock pair and every call made while a lock is
//     held, using the callees' transitive acquisition summaries;
//     cycles are reported once each.
//
// Goroutine launches (go statements) start a fresh lock scope and are
// not followed. The simulation is lexical and per-function: Lock adds
// the class to the held set, Unlock removes it, a deferred Unlock
// holds to the end of the body.
type LockOrder struct {
	Scope ScopeFunc
}

// Name implements Analyzer.
func (*LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (*LockOrder) Doc() string {
	return "consistent mutex acquisition order; no lock held across a blocking send"
}

// lockOp classifies one sync.(RW)Mutex method call.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

var mutexMethods = map[string]lockOp{
	"(*sync.Mutex).Lock":      opLock,
	"(*sync.Mutex).Unlock":    opUnlock,
	"(*sync.RWMutex).Lock":    opLock,
	"(*sync.RWMutex).Unlock":  opUnlock,
	"(*sync.RWMutex).RLock":   opLock,
	"(*sync.RWMutex).RUnlock": opUnlock,
}

// lockSummary is one function's transitive locking behaviour.
type lockSummary struct {
	// acquires is the set of lock classes the function (or a callee)
	// locks at some point.
	acquires map[*types.Var]bool
	// blocking marks a function that can block: a plain channel send
	// here or in any synchronous callee.
	blocking bool
	// blockVia names the blocking construct for reporting.
	blockVia string
}

// orderEdge is one observed acquisition ordering: to was locked (or a
// callee acquiring to was entered) while from was held.
type orderEdge struct {
	from, to *types.Var
	pos      token.Position
	fn       string
}

// Run implements Analyzer.
func (a *LockOrder) Run(t *Target) []Finding {
	g := CallGraphOf(t)
	classes := &lockClasses{info: make(map[*types.Var]string)}

	// Per-node direct summaries, then a fixpoint over synchronous edges
	// for the transitive ones. Summaries are whole-graph: a scoped
	// function's callees may live anywhere in the module.
	sums := make(map[*CGNode]*lockSummary, len(g.Nodes))
	for _, n := range g.Nodes {
		sums[n] = directLockSummary(t, n, classes)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			s := sums[n]
			for _, e := range g.Edges(n) {
				if e.Kind == EdgeGo {
					continue
				}
				cs := sums[e.To]
				if cs.blocking && !s.blocking {
					s.blocking = true
					s.blockVia = "call to " + e.To.Name
					changed = true
				}
				for c := range cs.acquires {
					if !s.acquires[c] {
						s.acquires[c] = true
						changed = true
					}
				}
			}
		}
	}

	var out []Finding
	var edges []orderEdge
	for _, n := range g.Nodes {
		if !a.Scope(n.Pkg.Path) {
			continue
		}
		fOut, fEdges := a.simulate(t, g, n, sums, classes)
		out = append(out, fOut...)
		edges = append(edges, fEdges...)
	}
	out = append(out, a.cycleFindings(edges, classes)...)
	return out
}

// simulate walks one body lexically, tracking the held set.
func (a *LockOrder) simulate(t *Target, g *CallGraph, n *CGNode, sums map[*CGNode]*lockSummary, classes *lockClasses) ([]Finding, []orderEdge) {
	info := n.Pkg.Info
	nonBlocking := nonBlockingSends(n)
	deferred := deferredCalls(n)
	held := make(map[*types.Var]bool)
	heldOrder := []*types.Var{} // deterministic reporting order
	var out []Finding
	var edges []orderEdge

	heldNames := func() string {
		var names []string
		for _, h := range heldOrder {
			if held[h] {
				names = append(names, classes.name(h))
			}
		}
		return strings.Join(names, ", ")
	}

	inspectOwn(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.GoStmt:
			return false // fresh goroutine, fresh lock scope
		case *ast.SendStmt:
			if !nonBlocking[s] && anyHeld(held) {
				out = append(out, Finding{
					Pos:  t.Fset.Position(s.Pos()),
					Rule: a.Name(),
					Message: "blocking channel send with " + heldNames() + " held" +
						"; release the lock first — the receiver may need it (deadlock under the Block overflow policy)",
				})
			}
		case *ast.CallExpr:
			op, class := classifyLockCall(info, s, classes)
			switch op {
			case opLock:
				if class == nil {
					return true
				}
				for _, h := range heldOrder {
					if held[h] && h != class {
						edges = append(edges, orderEdge{from: h, to: class, pos: t.Fset.Position(s.Pos()), fn: n.Name})
					}
				}
				if !held[class] {
					held[class] = true
					heldOrder = append(heldOrder, class)
				}
			case opUnlock:
				// A deferred Unlock releases at return: the lock stays
				// held for the rest of the body.
				if class != nil && !deferred[s] {
					delete(held, class)
				}
			default:
				if !anyHeld(held) {
					return true
				}
				for _, e := range g.EdgesAt(n, s.Pos()) {
					if e.Kind == EdgeGo {
						continue
					}
					cs := sums[e.To]
					if cs.blocking {
						out = append(out, Finding{
							Pos:  t.Fset.Position(s.Pos()),
							Rule: a.Name(),
							Message: "call to " + e.To.Name + " with " + heldNames() + " held can block (" + cs.blockVia + ")" +
								"; copy under the lock, release, then call — deadlock under the Block overflow policy",
						})
					}
					for acq := range cs.acquires {
						for _, h := range heldOrder {
							if held[h] && h != acq {
								edges = append(edges, orderEdge{from: h, to: acq, pos: t.Fset.Position(s.Pos()), fn: n.Name})
							}
						}
					}
				}
			}
		}
		return true
	})
	return out, edges
}

// directLockSummary scans one body for its own acquisitions and
// blocking sends.
func directLockSummary(t *Target, n *CGNode, classes *lockClasses) *lockSummary {
	s := &lockSummary{acquires: make(map[*types.Var]bool)}
	nonBlocking := nonBlockingSends(n)
	inspectOwn(n.Body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if !nonBlocking[st] && !s.blocking {
				s.blocking = true
				s.blockVia = "channel send at " + relPos(t, st.Pos())
			}
		case *ast.CallExpr:
			if op, class := classifyLockCall(n.Pkg.Info, st, classes); op == opLock && class != nil {
				s.acquires[class] = true
			}
		}
		return true
	})
	return s
}

// classifyLockCall resolves a sync mutex method call to its operation
// and lock class (the mutex variable or field).
func classifyLockCall(info *types.Info, call *ast.CallExpr, classes *lockClasses) (lockOp, *types.Var) {
	callee := calleeOf(info, call)
	if callee == nil {
		return opNone, nil
	}
	op, ok := mutexMethods[callee.FullName()]
	if !ok {
		return opNone, nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return op, nil
	}
	switch base := ast.Unparen(fun.X).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[base]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				classes.record(v, ownerName(sel.Recv())+"."+v.Name())
				return op, v
			}
		}
		if v, ok := info.Uses[base.Sel].(*types.Var); ok {
			classes.record(v, v.Pkg().Name()+"."+v.Name())
			return op, v
		}
	case *ast.Ident:
		if v, ok := info.Uses[base].(*types.Var); ok {
			// A mutex-typed local or package var; embedded mutexes
			// (t.Lock() with t a struct) are keyed by the struct var,
			// which still orders consistently within a function.
			name := v.Name()
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				name = v.Pkg().Name() + "." + name
			}
			classes.record(v, name)
			return op, v
		}
	}
	return op, nil
}

// lockClasses names lock classes for reporting.
type lockClasses struct {
	info map[*types.Var]string
}

func (c *lockClasses) record(v *types.Var, name string) {
	if _, ok := c.info[v]; !ok {
		c.info[v] = name
	}
}

func (c *lockClasses) name(v *types.Var) string {
	if n, ok := c.info[v]; ok {
		return n
	}
	return v.Name()
}

// ownerName renders the receiver type holding a mutex field.
func ownerName(typ types.Type) string {
	for {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
			continue
		}
		break
	}
	if named, ok := typ.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return typeShort(typ)
}

func anyHeld(held map[*types.Var]bool) bool {
	for _, h := range held {
		if h {
			return true
		}
	}
	return false
}

// cycleFindings reports each strongly connected component of the
// acquisition-order graph once, listing the contradictory orderings.
func (a *LockOrder) cycleFindings(edges []orderEdge, classes *lockClasses) []Finding {
	adj := make(map[*types.Var]map[*types.Var]orderEdge)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[*types.Var]orderEdge)
		}
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e
		}
	}
	sccs := stronglyConnected(adj)
	var out []Finding
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		var lines []string
		var first *orderEdge
		for _, from := range scc {
			for to, e := range adj[from] {
				if !inSCC[to] {
					continue
				}
				e := e
				file := e.pos.Filename
				if i := strings.LastIndexByte(file, '/'); i >= 0 {
					file = file[i+1:]
				}
				lines = append(lines, classes.name(e.from)+" -> "+classes.name(e.to)+
					" in "+e.fn+" at "+file+":"+strconv.Itoa(e.pos.Line))
				if first == nil || e.pos.Filename < first.pos.Filename ||
					(e.pos.Filename == first.pos.Filename && e.pos.Line < first.pos.Line) {
					first = &e
				}
			}
		}
		sort.Strings(lines)
		out = append(out, Finding{
			Pos:  first.pos,
			Rule: a.Name(),
			Message: "inconsistent mutex acquisition order (deadlock under contention): " +
				strings.Join(lines, "; ") + "; pick one order and hold to it",
		})
	}
	return out
}

// stronglyConnected is Tarjan's algorithm over the class digraph, with
// deterministic visit order.
func stronglyConnected(adj map[*types.Var]map[*types.Var]orderEdge) [][]*types.Var {
	verts := make(map[*types.Var]bool)
	for from, tos := range adj {
		verts[from] = true
		for to := range tos {
			verts[to] = true
		}
	}
	var order []*types.Var
	for v := range verts {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })

	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	next := 0
	var sccs [][]*types.Var

	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []*types.Var
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i].Pos() < succs[j].Pos() })
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].Pos() < scc[j].Pos() })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// deferredCalls collects the call expressions of defer statements in
// the node's own body.
func deferredCalls(n *CGNode) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	inspectOwn(n.Body, func(node ast.Node) bool {
		if d, ok := node.(*ast.DeferStmt); ok {
			out[d.Call] = true
		}
		return true
	})
	return out
}

// relPos renders a position compactly for messages.
func relPos(t *Target, pos token.Pos) string {
	p := t.Fset.Position(pos)
	parts := strings.Split(p.Filename, "/")
	return parts[len(parts)-1] + ":" + strconv.Itoa(p.Line)
}
