package lint

import (
	"go/ast"
	"go/types"
)

// HotPath guards the per-packet budget behind the paper's §VI-B
// overhead results. The packet path — every method named HandlePacket,
// HandleCapture, drainShard or gossipRound and every package-level
// function named Decode in RootScope, plus its transitive callees
// within WalkScope on the devirtualized call graph (see callgraph.go)
// — must not:
//
//   - format with fmt.Sprintf/fmt.Errorf (allocation and reflection per
//     packet). Formatting inside a module.Alert composite literal is
//     exempt: alert construction is the cold, cooldown-gated branch.
//   - perform a blocking channel send (a send outside a select with a
//     default case). A passive IDS must never exert backpressure on the
//     capture path.
//   - resolve telemetry vector children via CounterVec.With or
//     HistogramVec.With. With on a hot path is a per-packet map lookup;
//     the telemetry package hands out pre-resolvable child handles —
//     cache them when wiring, off the packet path.
//
// The traversal follows interface dispatch (every in-module
// implementation), method values, function-value callbacks and nested
// literals; goroutine launches and //lint:coldpath functions are the
// only cuts.
type HotPath struct {
	RootScope ScopeFunc
	WalkScope ScopeFunc
}

// rootMethodNames seed the packet-path traversal. drainShard is the
// sharded ingestion worker's dispatch loop: on sharded nodes every
// packet flows through it (ring pop → Manager.HandleBatch), so it is a
// packet-path root even though goroutine launches cut the graph walk
// from HandleCapture to the worker body. gossipRound is the collective
// anti-entropy fan-out: at fleet scale it fires once per beacon tick on
// every node and its digest encode sits on the bytes-on-wire budget, so
// it is policed like the packet path.
var rootMethodNames = map[string]bool{
	"HandlePacket":  true,
	"HandleCapture": true,
	"drainShard":    true,
	"gossipRound":   true,
}

// rootFuncNames seed the traversal with package-level functions. The
// production RootScope admits internal/proto/stack only, so this is
// stack.Decode: every captured frame goes through it before any
// HandleCapture sees a packet, on whatever goroutine captured it (the
// replay loop, a sharded node's producer, a simulator sniffer), so no
// method root reaches it — and it is the one parser that eats attacker
// bytes.
var rootFuncNames = map[string]bool{
	"Decode": true,
}

// vecWithMethods are the telemetry child lookups banned on the path.
var vecWithMethods = map[string]bool{
	"(*kalis/internal/telemetry.CounterVec).With":   true,
	"(*kalis/internal/telemetry.HistogramVec).With": true,
}

// Name implements Analyzer.
func (*HotPath) Name() string { return "hotpath" }

// Doc implements Analyzer.
func (*HotPath) Doc() string {
	return "no fmt formatting, blocking sends, or telemetry Vec.With lookups on the packet path"
}

// pathReachable walks the call graph from the packet-path roots,
// returning each reached node mapped to a sample root. Shared with
// HotAlloc, which patrols the same path.
func pathReachable(t *Target, rootScope, walkScope ScopeFunc) map[*CGNode]*CGNode {
	g := CallGraphOf(t)
	roots := g.Roots(rootMethodNames, rootFuncNames, rootScope)
	return g.Reachable(roots, func(n *CGNode) bool {
		return walkScope(n.Pkg.Path) || rootScope(n.Pkg.Path)
	})
}

// Run implements Analyzer.
func (a *HotPath) Run(t *Target) []Finding {
	g := CallGraphOf(t)
	var out []Finding
	for node, root := range pathReachable(t, a.RootScope, a.WalkScope) {
		out = append(out, a.checkNode(t, node, root)...)
	}
	// Coldpath directives are part of this rule's traversal contract,
	// so their malformations are reported here (once per Run).
	out = append(out, g.Malformed...)
	return out
}

// alertLitRanges collects the [start, end) position ranges of
// module.Alert composite literals in a node's own body — the exempt
// cold branch for formatting and allocation checks.
func alertLitRanges(node *CGNode) [][2]int {
	var ranges [][2]int
	inspectOwn(node.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if tv, ok := node.Pkg.Info.Types[cl]; ok && isModuleAlert(tv.Type) {
			ranges = append(ranges, [2]int{int(cl.Pos()), int(cl.End())})
		}
		return true
	})
	return ranges
}

func inRanges(ranges [][2]int, n ast.Node) bool {
	p := int(n.Pos())
	for _, r := range ranges {
		if p >= r[0] && p < r[1] {
			return true
		}
	}
	return false
}

// nonBlockingSends collects sends appearing as the comm clause of a
// select with a default case — non-blocking by construction.
func nonBlockingSends(node *CGNode) map[*ast.SendStmt]bool {
	nonBlocking := make(map[*ast.SendStmt]bool)
	inspectOwn(node.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					nonBlocking[send] = true
				}
			}
		}
		return true
	})
	return nonBlocking
}

// checkNode reports the banned constructs inside one packet-path
// function body (nested literals are their own nodes and checked only
// if the graph reaches them).
func (a *HotPath) checkNode(t *Target, node, root *CGNode) []Finding {
	info := node.Pkg.Info
	suffix := " (on the packet path via " + root.Name + ")"
	alertRanges := alertLitRanges(node)
	nonBlocking := nonBlockingSends(node)

	var out []Finding
	inspectOwn(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !nonBlocking[n] {
				out = append(out, Finding{
					Pos:  t.Fset.Position(n.Pos()),
					Rule: a.Name(),
					Message: "blocking channel send" + suffix +
						"; use a select with a default (drop-and-count) so the capture path never stalls",
				})
			}
		case *ast.CallExpr:
			callee := calleeOf(info, n)
			if callee == nil {
				return true
			}
			switch full := callee.FullName(); {
			case full == "fmt.Sprintf" || full == "fmt.Errorf":
				if !inRanges(alertRanges, n) {
					out = append(out, Finding{
						Pos:  t.Fset.Position(n.Pos()),
						Rule: a.Name(),
						Message: "call to " + full + suffix +
							"; per-packet formatting allocates — move it off the path or into the alert literal",
					})
				}
			case vecWithMethods[full]:
				out = append(out, Finding{
					Pos:  t.Fset.Position(n.Pos()),
					Rule: a.Name(),
					Message: "telemetry " + callee.Name() + " lookup" + suffix +
						"; pre-resolve the child handle off the hot path and cache it",
				})
			}
		}
		return true
	})
	return out
}

// isModuleAlert reports whether typ is kalis/internal/core/module.Alert.
func isModuleAlert(typ types.Type) bool {
	named, ok := typ.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "kalis/internal/core/module" && obj.Name() == "Alert"
}
