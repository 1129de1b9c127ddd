package lint

import (
	"go/ast"
)

// BusTopic keeps event-bus topic names bounded: Bus.Publish and
// Bus.Subscribe must be called with a named topic constant (such as
// event.TopicKnowledge), never a string literal. Topics become telemetry
// label values (kalis_bus_publishes_total{topic=...}); ad-hoc literals
// would silently grow label cardinality and drift from the documented
// topic set.
type BusTopic struct {
	Scope ScopeFunc
}

// busMethods are the event.Bus methods whose first argument is a topic.
var busMethods = map[string]bool{
	"(*kalis/internal/core/event.Bus).Publish":   true,
	"(*kalis/internal/core/event.Bus).Subscribe": true,
}

// Name implements Analyzer.
func (*BusTopic) Name() string { return "bustopic" }

// Doc implements Analyzer.
func (*BusTopic) Doc() string {
	return "event.Bus Publish/Subscribe topics must be named constants, not string literals"
}

// Run implements Analyzer.
func (a *BusTopic) Run(t *Target) []Finding {
	var out []Finding
	for _, pkg := range scopedPackages(t, a.Scope) {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || !busMethods[fn.FullName()] {
					return true
				}
				arg := ast.Unparen(call.Args[0])
				switch arg.(type) {
				case *ast.Ident, *ast.SelectorExpr:
					return true // named constant or variable: fine
				}
				// Anything else that the type checker evaluates to a
				// constant is an inline literal (possibly concatenated).
				if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil {
					out = append(out, Finding{
						Pos:  t.Fset.Position(call.Args[0].Pos()),
						Rule: a.Name(),
						Message: fn.Name() + " called with a string-literal topic; " +
							"use a named topic constant (see internal/core/event) so telemetry labels stay bounded",
					})
				}
				return true
			})
		}
	}
	return out
}
