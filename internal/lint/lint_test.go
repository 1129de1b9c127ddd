package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// moduleRoot is the repository root relative to this package.
const moduleRoot = "../.."

var (
	loadOnce   sync.Once
	loadTarget *Target
	loadErr    error
)

// loadModule loads the module plus every fixture package exactly once
// for all tests.
func loadModule(t *testing.T) *Target {
	t.Helper()
	loadOnce.Do(func() {
		dirs, err := fixtureDirs()
		if err != nil {
			loadErr = err
			return
		}
		rels := make([]string, len(dirs))
		for i, d := range dirs {
			rels[i] = filepath.Join("internal/lint", d)
		}
		loadTarget, loadErr = Load(moduleRoot, rels...)
	})
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return loadTarget
}

// fixtureDirs lists testdata/<rule>/<case> relative to this package.
func fixtureDirs() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join("testdata", "*", "*"))
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.IsDir() {
			dirs = append(dirs, m)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// extraWant lists expected findings that cannot be expressed as inline
// "// want rule" markers (the malformed-directive finding sits on the
// directive's own line, where any marker text would read as a reason).
var extraWant = map[string][]string{
	"testdata/directive/bad": {"lint"},
}

// wantMarkers parses "// want rule [rule...]" markers from every Go
// file of a fixture dir, returning "file:line:rule" keys (repeated for
// multiple findings on one line).
func wantMarkers(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			base := filepath.Base(file)
			for _, rule := range strings.Fields(after) {
				want = append(want, fmt.Sprintf("%s:%d:%s", base, i+1, rule))
			}
		}
	}
	for _, rule := range extraWant[filepath.ToSlash(dir)] {
		want = append(want, "*:"+rule)
	}
	sort.Strings(want)
	return want
}

// TestFixtures checks every rule against its positive and negative
// fixture: bad packages must produce exactly the marked findings (so
// kalislint exits non-zero on them), good packages none.
func TestFixtures(t *testing.T) {
	target := loadModule(t)
	dirs, err := fixtureDirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture dirs under testdata/")
	}
	for _, dir := range dirs {
		dir := dir
		t.Run(filepath.ToSlash(dir), func(t *testing.T) {
			pkgPath := "kalis/internal/lint/" + filepath.ToSlash(dir)
			if target.PackageByPath(pkgPath) == nil {
				t.Fatalf("fixture package %s not loaded", pkgPath)
			}
			findings := Run(target, FixtureAnalyzers(PathScope(pkgPath)))

			absDir, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range findings {
				if filepath.Dir(f.Pos.Filename) != absDir {
					continue // e.g. malformed directives in other fixtures
				}
				key := fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)
				got = append(got, key)
			}
			sort.Strings(got)

			want := wantMarkers(t, dir)
			if !matchFindings(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
			if strings.HasSuffix(dir, string(filepath.Separator)+"bad") && len(got) == 0 {
				t.Error("negative fixture produced no findings: kalislint would exit 0 on it")
			}
		})
	}
}

// matchFindings compares got against want, where a want entry of the
// form "*:rule" matches any position with that rule.
func matchFindings(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	used := make([]bool, len(got))
	for _, w := range want {
		matched := false
		for i, g := range got {
			if used[i] {
				continue
			}
			if g == w || (strings.HasPrefix(w, "*:") && strings.HasSuffix(g, ":"+strings.TrimPrefix(w, "*:"))) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// TestRepoClean is the merge gate in test form: the production rule set
// must report nothing on the repository itself (fixtures excluded).
func TestRepoClean(t *testing.T) {
	target := loadModule(t)
	var dirty []string
	for _, f := range Run(target, DefaultAnalyzers()) {
		if strings.Contains(filepath.ToSlash(f.Pos.Filename), "/testdata/") {
			continue
		}
		dirty = append(dirty, f.String())
	}
	if len(dirty) > 0 {
		t.Errorf("kalislint findings on the tree:\n%s", strings.Join(dirty, "\n"))
	}
}

// TestSuppressionRequiresReason ensures a reasonless directive is
// reported and does not suppress.
func TestSuppressionRequiresReason(t *testing.T) {
	target := loadModule(t)
	findings := Run(target, FixtureAnalyzers(PathScope("kalis/internal/lint/testdata/directive/bad")))
	var gotLint, gotSimclock bool
	for _, f := range findings {
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "/testdata/directive/bad/") {
			continue
		}
		switch f.Rule {
		case "lint":
			gotLint = true
		case "simclock":
			gotSimclock = true
		}
	}
	if !gotLint {
		t.Error("malformed //lint:ignore not reported")
	}
	if !gotSimclock {
		t.Error("malformed //lint:ignore suppressed a finding")
	}
}
