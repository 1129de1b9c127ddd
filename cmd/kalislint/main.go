// Command kalislint runs the Kalis static-analysis suite (see
// internal/lint): standard-library-only analyzers that enforce the
// repository's packet-path, output-hygiene and simulator invariants.
//
// Usage:
//
//	kalislint [-C dir] [./...]
//	kalislint [-C dir] ./internal/lint/testdata/<rule>/<case> ...
//	kalislint [-C dir] -callgraph HandlePacket
//	kalislint -rules
//
// With no arguments (or "./...") the whole module is linted with the
// production rule scopes; the module is parsed and type-checked once.
// Directory arguments restrict the report to those directories;
// directories under a testdata tree are loaded explicitly (the module
// walk skips them) and checked against every rule, which is how the
// negative fixtures are exercised end to end.
//
// Findings print as "file:line:col: [rule] message"; the exit status is
// 1 when any unsuppressed finding remains, 2 on load errors. -callgraph
// prints the devirtualized call graph reachable from every method or
// package-level function of the given name, using the production
// hot-path scopes. -rules prints the rule set.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kalis/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("kalislint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "module root to lint")
	rules := fs.Bool("rules", false, "print the rule set and exit")
	callgraph := fs.String("callgraph", "", "print the devirtualized call graph from every method or function with this name and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *rules {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	root, err := filepath.Abs(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, "kalislint:", err)
		return 2
	}

	// Split the package patterns into fixture dirs (under testdata,
	// loaded explicitly) and report filters.
	var extraDirs, filters []string
	wholeModule := fs.NArg() == 0
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." || arg == "all" {
			wholeModule = true
			continue
		}
		rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(arg, "./")))
		// A typoed directory must not silently lint nothing and pass.
		if info, err := os.Stat(filepath.Join(root, rel)); err != nil || !info.IsDir() {
			fmt.Fprintf(stderr, "kalislint: %s: not a directory under %s\n", arg, root)
			return 2
		}
		filters = append(filters, rel)
		if strings.Contains("/"+rel+"/", "/testdata/") {
			extraDirs = append(extraDirs, rel)
		}
	}

	target, err := lint.Load(root, extraDirs...)
	if err != nil {
		fmt.Fprintln(stderr, "kalislint:", err)
		return 2
	}

	if *callgraph != "" {
		// The production hot-path scopes.
		dump := lint.DumpMethodGraph(target, *callgraph, lint.PacketPathRoots, lint.PacketPathWalk)
		fmt.Fprint(stdout, dump)
		return 0
	}

	analyzers := lint.DefaultAnalyzers()
	for _, dir := range extraDirs {
		analyzers = append(analyzers, lint.FixtureAnalyzers(lint.PathScope(target.Module+"/"+dir))...)
	}

	findings := lint.Run(target, analyzers)
	if !wholeModule && len(filters) > 0 {
		findings = filterFindings(findings, root, filters)
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relFile(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "kalislint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relFile renders a finding path module-root-relative.
func relFile(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}

// filterFindings keeps findings whose file lies under one of the given
// module-root-relative directories.
func filterFindings(findings []lint.Finding, root string, dirs []string) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, d := range dirs {
			if rel == d || strings.HasPrefix(rel, d+"/") {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
