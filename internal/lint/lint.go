// Package lint is kalislint: a self-contained static-analysis suite
// (standard library go/parser, go/ast and go/types only) that turns the
// repository's prose invariants into merge-blocking checks. The paper's
// §VI-B overhead results hold only if the packet path never blocks,
// formats or allocates per packet, alerts carry no raw attacker bytes,
// and the simulator stays deterministic; each analyzer enforces one
// such invariant:
//
//   - simclock: no time.Now/time.Sleep in simulated components — time
//     comes from the sim clock or the capture timestamp.
//   - hotpath: the packet path (HandlePacket/HandleCapture/drainShard/
//     gossipRound methods, stack.Decode and their transitive callees on
//     the devirtualized call graph, within internal/core, internal/flow,
//     internal/ingest, internal/proto and internal/packet) must not
//     format with fmt, block on channel sends, or do per-packet
//     telemetry Vec.With lookups.
//   - hotalloc: the same path must not heap-allocate per packet.
//   - taint: packet-derived fields pass a packet.Clean*/Clamp*
//     sanitizer before alerts, knowggets, collective sends or logs.
//   - nopanic: no panic outside init-time registration, no recover
//     outside the module supervisor.
//
// Every rule's fixture suite under testdata/<rule>/ includes a
// "caught" case: the code it caught in the repository's history, or
// the live site it still fires on.
//
// A finding is suppressed by an explanatory comment on the offending
// line or the line above it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line: [rule] message
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer interface {
	// Name is the rule name used in reports and //lint:ignore comments.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// Run reports every violation found in the target.
	Run(t *Target) []Finding
}

// ScopeFunc restricts an analyzer to a subset of the module's packages
// (by import path).
type ScopeFunc func(pkgPath string) bool

// PathScope scopes to the given import paths and their subtrees.
func PathScope(paths ...string) ScopeFunc {
	return func(p string) bool {
		for _, pre := range paths {
			if p == pre || strings.HasPrefix(p, pre+"/") {
				return true
			}
		}
		return false
	}
}

// The production packet path, shared by hotpath, hotalloc and the
// -callgraph dump: roots in the core, the ingestion workers and the
// frame decoder; the walk spills into the flow layer, the protocol
// substrates, the capture envelope and the trace record encoder the
// Data Store window is written with.
var (
	PacketPathRoots = PathScope("kalis/internal/core", "kalis/internal/ingest", "kalis/internal/proto/stack")
	PacketPathWalk  = PathScope("kalis/internal/core", "kalis/internal/flow", "kalis/internal/ingest",
		"kalis/internal/proto", "kalis/internal/packet", "kalis/internal/trace")
)

// DefaultAnalyzers returns the production rule set with the scopes the
// repository's invariants call for.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&SimClock{Scope: PathScope(
			"kalis/internal/devices",
			"kalis/internal/netsim",
			"kalis/internal/attacks",
			"kalis/internal/fault",
			"kalis/internal/flow",
			"kalis/internal/core/detection",
			"kalis/internal/core/sensing",
		)},
		&HotPath{RootScope: PacketPathRoots, WalkScope: PacketPathWalk},
		&NoPanic{
			Scope: PathScope("kalis/internal", "kalis/cmd", "kalis/examples"),
			// The supervisor's panic barrier is the single legal recover
			// site: it converts module crashes into quarantine state.
			RecoverExempt: []string{"internal/core/module/supervisor.go"},
		},
		&HotAlloc{RootScope: PacketPathRoots, WalkScope: PacketPathWalk},
		&Taint{Scope: PathScope("kalis/internal/core", "kalis/internal/flow")},
	}
}

// FixtureAnalyzers returns every rule scoped to the given packages, for
// linting self-contained fixture packages where each rule must apply
// regardless of the fixture's location.
func FixtureAnalyzers(scope ScopeFunc) []Analyzer {
	return []Analyzer{
		&SimClock{Scope: scope},
		&HotPath{RootScope: scope, WalkScope: scope},
		&NoPanic{Scope: scope},
		&HotAlloc{RootScope: scope, WalkScope: scope},
		&Taint{Scope: scope},
	}
}

// Run executes the analyzers against the target, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position.
// Malformed suppression directives are reported as rule "lint".
func Run(t *Target, analyzers []Analyzer) []Finding {
	sup := collectSuppressions(t)
	var out []Finding
	seen := make(map[Finding]bool)
	for _, a := range analyzers {
		for _, f := range a.Run(t) {
			if !sup.suppresses(f) && !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	out = append(out, sup.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// suppressions indexes //lint:ignore directives by file and line.
type suppressions struct {
	// byFileLine maps filename -> line -> rules ignored on that line.
	byFileLine map[string]map[int]map[string]bool
	malformed  []Finding
}

func (s *suppressions) suppresses(f Finding) bool {
	lines := s.byFileLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	rules := lines[f.Pos.Line]
	return rules != nil && (rules[f.Rule] || rules["*"])
}

// collectSuppressions scans every file's comments for //lint:ignore
// directives. A directive applies to findings on its own line and on
// the line immediately below it (the usual "comment above the
// statement" placement).
func collectSuppressions(t *Target) *suppressions {
	s := &suppressions{byFileLine: make(map[string]map[int]map[string]bool)}
	for _, pkg := range t.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := t.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						s.malformed = append(s.malformed, Finding{
							Pos:  pos,
							Rule: "lint",
							Message: "malformed //lint:ignore directive: " +
								"need \"//lint:ignore <rule>[,<rule>...] <reason>\"",
						})
						continue
					}
					end := t.Fset.Position(c.End())
					lines := s.byFileLine[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						s.byFileLine[pos.Filename] = lines
					}
					for _, rule := range strings.Split(fields[0], ",") {
						rule = strings.TrimSpace(rule)
						if rule == "" {
							continue
						}
						for line := pos.Line; line <= end.Line+1; line++ {
							if lines[line] == nil {
								lines[line] = make(map[string]bool)
							}
							lines[line][rule] = true
						}
					}
				}
			}
		}
	}
	return s
}

// calleeOf resolves the *types.Func a call expression statically
// invokes (the generic declaration for an instantiated call, explicit —
// f[T](x) — or inferred), or nil for calls through function values,
// interfaces and built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// scopedPackages yields the target's packages selected by scope.
func scopedPackages(t *Target, scope ScopeFunc) []*Package {
	var out []*Package
	for _, pkg := range t.Packages {
		if scope(pkg.Path) {
			out = append(out, pkg)
		}
	}
	return out
}
