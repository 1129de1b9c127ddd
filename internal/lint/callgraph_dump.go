package lint

import (
	"sort"
	"strings"
)

// DumpMethodGraph renders the devirtualized call graph reachable from
// every method or package-level function named rootName (in
// rootScope), walking synchronous in-scope edges exactly as the path
// rules do. The output is stable across builds — nodes sorted by name,
// one "-> callee" line per edge — so a committed golden file makes
// graph regressions visible in review.
//
// Edges the walk does not follow are still listed, annotated:
//
//	[go]        launched on its own goroutine
//	[coldpath]  callee is //lint:coldpath, cut from path walks
//	[out]       callee outside the walk scope
func DumpMethodGraph(t *Target, rootName string, rootScope, walkScope ScopeFunc) string {
	g := CallGraphOf(t)
	name := map[string]bool{rootName: true}
	roots := g.Roots(name, name, rootScope)
	within := func(n *CGNode) bool { return walkScope(n.Pkg.Path) || rootScope(n.Pkg.Path) }
	reach := g.Reachable(roots, within)

	names := make([]string, 0, len(reach))
	byName := make(map[string]*CGNode, len(reach))
	for n := range reach {
		names = append(names, n.Name)
		byName[n.Name] = n
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, name := range names {
		n := byName[name]
		sb.WriteString(name)
		sb.WriteString("\n")
		seen := make(map[string]bool)
		var lines []string
		for _, e := range g.Edges(n) {
			var notes []string
			if e.Kind == EdgeGo {
				notes = append(notes, "go")
			}
			if e.To.Cold {
				notes = append(notes, "coldpath")
			}
			if !within(e.To) {
				notes = append(notes, "out")
			}
			line := "  -> " + e.To.Name
			if len(notes) > 0 {
				line += " [" + strings.Join(notes, ",") + "]"
			}
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
