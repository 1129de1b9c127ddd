package eval

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
)

// labelReader names who reads a label family: a code reader is a file
// (from the repository root) that mentions the label, by its constant
// in internal/core/knowledge or as a string literal; an operator-only
// reader is the reason an operator wants it, and cmd/kalis -verbose,
// which prints every knowledge change it does not filter, must not
// filter it.
type labelReader struct {
	file     string
	operator string
}

// labelReaders is every label family a knowledge-driven node writes on
// the eval scenarios, with its reader. Knowledge explains the
// configuration (§IV-B4); a family nobody reads is a write, a journal
// record and a subscriber fan-out that explains nothing.
var labelReaders = map[string]labelReader{
	"Mediums":          {file: "internal/core/detection/detection.go"},
	"Mobility":         {file: "internal/core/detection/detection.go"},
	"MonitoredNodes":   {file: "examples/quickstart/main.go"},
	"Multihop":         {file: "internal/core/detection/detection.go"},
	"MultihopEvidence": {operator: "the forwarding proof that made the node declare a multi-hop topology"},
	"SignalStrength":   {file: "internal/core/detection/detection.go"},
	"SuspectBlackhole": {file: "internal/core/detection/wormhole.go"},
	"TrafficFrequency": {operator: "a kind's rate moving tenfold: a flood starting or stopping"},
}

// scenarioKnowledge is one scenario's replay: the frames captured and
// the local knowledge changes by label family.
type scenarioKnowledge struct {
	name     string
	frames   int
	families map[string]int
}

// scenarioChanges replays every scenario (seed 1, 50 episodes) through a
// knowledge-driven node with the full library.
func scenarioChanges(t *testing.T) []scenarioKnowledge {
	t.Helper()
	var out []scenarioKnowledge
	for _, sc := range AllScenarios() {
		run := sc.Build(1, 50)
		ids, err := NewKalis("K1")(1)
		if err != nil {
			t.Fatal(err)
		}
		r := scenarioKnowledge{name: sc.Name, families: make(map[string]int)}
		ids.(*kalisIDS).Node().OnKnowledge(func(kg knowledge.Knowgget) {
			if kg.Creator == "K1" {
				family, _, _ := strings.Cut(kg.Label, ".")
				r.families[family]++
			}
		})
		run.Sniffer.Subscribe(func(c *packet.Captured) {
			r.frames++
			ids.HandleCapture(c)
		})
		run.Sim.Run(run.End)
		ids.Close()
		out = append(out, r)
	}
	return out
}

// TestEveryLabelHasAReader: every label family a node writes on the
// eval scenarios has a reader in labelReaders, and each code reader
// mentions its label. A family with no entry fails, as does an entry no
// scenario writes.
func TestEveryLabelHasAReader(t *testing.T) {
	root := filepath.Join("..", "..")
	constants := labelConstants(t, filepath.Join(root, "internal", "core", "knowledge", "knowledge.go"))
	verbose := mentions(t, filepath.Join(root, "cmd", "kalis", "main.go"), constants)

	written := make(map[string][]string)
	for _, sc := range scenarioChanges(t) {
		for family := range sc.families {
			written[family] = append(written[family], sc.name)
		}
	}
	for family, by := range written {
		r, ok := labelReaders[family]
		switch {
		case !ok:
			t.Errorf("%s is written (%s) and nobody reads it: delete the writes, or name its reader in labelReaders", family, strings.Join(by, ", "))
		case r.file != "":
			if !mentions(t, filepath.Join(root, r.file), constants)[family] {
				t.Errorf("%s: its reader %s does not mention it", family, r.file)
			}
		case r.operator == "":
			t.Errorf("%s: an entry names neither a file nor an operator's reason", family)
		case verbose[family]:
			t.Errorf("%s: its reader is the operator, but cmd/kalis -verbose filters it out", family)
		}
	}
	for family := range labelReaders {
		if _, ok := written[family]; !ok {
			t.Errorf("labelReaders lists %s, which no scenario writes", family)
		}
	}
}

// TestKnowledgeChurnBudget: a WSN routing scenario's knowledge changes
// are discoveries and moves, not a per-interval restatement.
func TestKnowledgeChurnBudget(t *testing.T) {
	for _, sc := range scenarioChanges(t) {
		changes := 0
		for _, n := range sc.families {
			changes += n
		}
		perK := 1000 * float64(changes) / float64(sc.frames)
		t.Logf("%-26s %6.1f changes per 1 000 frames %v", sc.name, perK, sc.families)
		if sc.name == "selective-forwarding/wsn" && perK > 60 {
			t.Errorf("%s makes %.1f local knowledge changes per 1 000 frames, over 60", sc.name, perK)
		}
	}
}

// labelConstants maps each string constant declared in path to its
// value.
func labelConstants(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, s := range g.Specs {
			v := s.(*ast.ValueSpec)
			for i, name := range v.Names {
				if i < len(v.Values) {
					if lit, ok := v.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						out[name.Name], _ = strconv.Unquote(lit.Value)
					}
				}
			}
		}
	}
	return out
}

// mentions returns the label families the Go file at path names: the
// first component of every string literal and of every label constant
// it refers to.
func mentions(t *testing.T, path string, constants map[string]string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	add := func(label string) {
		family, _, _ := strings.Cut(label, ".")
		family, _, _ = strings.Cut(family, "@")
		out[family] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				add(s)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "knowledge" {
				if v, ok := constants[n.Sel.Name]; ok {
					add(v)
				}
			}
		}
		return true
	})
	return out
}
