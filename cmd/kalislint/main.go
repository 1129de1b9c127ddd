// Command kalislint runs the Kalis static-analysis suite (see
// internal/lint): standard-library-only analyzers that enforce the
// repository's hot-path and simulator invariants.
//
// Usage:
//
//	kalislint [-C dir] [-json] [-baseline file] [./...]
//	kalislint [-C dir] ./internal/lint/testdata/<rule>/<case> ...
//	kalislint [-C dir] -callgraph HandlePacket
//
// With no arguments (or "./...") the whole module is linted with the
// production rule scopes. Directory arguments restrict the report to
// those directories; directories under a testdata tree are loaded
// explicitly (the module walk skips them) and checked against every
// rule, which is how the negative fixtures are exercised end to end.
//
// Findings print as "file:line:col: [rule] message" (or as a JSON
// array with -json); the exit status is 1 when any unsuppressed finding
// remains, 2 on load errors. -baseline filters out findings recorded in
// a committed baseline file (matched by file, rule and message — line
// numbers drift), supporting gradual adoption of new rules. -callgraph
// prints the devirtualized call graph reachable from every method or
// package-level function of the given name, using the production
// hot-path scopes.
package main

import (
	"encoding/json"
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
	tests := fs.Bool("tests", true, "also lint _test.go files with the relaxed rule set")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	baseline := fs.String("baseline", "", "filter out findings recorded in this JSON baseline file")
	callgraph := fs.String("callgraph", "", "print the devirtualized call graph from every method or function with this name and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *rules {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name(), a.Doc())
		}
		for _, a := range lint.TestFileAnalyzers() {
			fmt.Fprintf(stdout, "%-10s %s (test files)\n", a.Name(), a.Doc())
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
	if *tests {
		testTarget, err := lint.LoadTests(root)
		if err != nil {
			fmt.Fprintln(stderr, "kalislint:", err)
			return 2
		}
		findings = append(findings, lint.Run(testTarget, lint.TestFileAnalyzers())...)
	}
	if !wholeModule && len(filters) > 0 {
		findings = filterFindings(findings, root, filters)
	}
	if *baseline != "" {
		findings, err = applyBaseline(findings, root, *baseline)
		if err != nil {
			fmt.Fprintln(stderr, "kalislint:", err)
			return 2
		}
	}
	if *asJSON {
		if err := writeJSON(stdout, findings, root); err != nil {
			fmt.Fprintln(stderr, "kalislint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relFile(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "kalislint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// jsonFinding is the interchange form of a finding, also the baseline
// file format. File paths are module-root-relative with forward
// slashes, so baselines travel between checkouts.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// relFile renders a finding path module-root-relative.
func relFile(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}

// writeJSON emits the findings as an indented JSON array ("[]" when
// clean), the same shape -baseline reads back.
func writeJSON(stdout *os.File, findings []lint.Finding, root string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:    relFile(root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// applyBaseline drops findings recorded in the baseline file. Matching
// ignores line and column: a baseline entry forgives one finding with
// the same file, rule and message, however the file has shifted.
func applyBaseline(findings []lint.Finding, root, path string) ([]lint.Finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var entries []jsonFinding
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	budget := make(map[[3]string]int, len(entries))
	for _, e := range entries {
		budget[[3]string{e.File, e.Rule, e.Message}]++
	}
	var out []lint.Finding
	for _, f := range findings {
		key := [3]string{relFile(root, f.Pos.Filename), f.Rule, f.Message}
		if budget[key] > 0 {
			budget[key]--
			continue
		}
		out = append(out, f)
	}
	return out, nil
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
