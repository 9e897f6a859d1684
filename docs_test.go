package air

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// testDefRE matches a top-level test, benchmark or fuzz function.
	testDefRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// testCiteRE matches a cited name and the * or { that makes it a
	// prefix (BenchmarkMMUTranslate*, BenchmarkTickAnnounce{List,Tree}).
	testCiteRE = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)([*{]?)`)
)

// TestDocsCiteDefinedTests: every Test…, Benchmark… and Fuzz… name that
// DESIGN.md, EXPERIMENTS.md and README.md cite is defined by some _test.go
// file of the repository, the benchmark module under bench/ included. A
// name followed by * or { matches as a prefix; any other name must match a
// definition exactly.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDefRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testCiteRE.FindAllSubmatch(text, -1) {
			name, prefix := string(m[1]), len(m[2]) > 0
			if !citesDefined(name, prefix, defined) {
				t.Errorf("%s cites %s%s, which no _test.go file defines", doc, name, m[2])
			}
		}
	}
}

// citesDefined reports whether a cited name, exact or a prefix, names a
// defined function.
func citesDefined(name string, prefix bool, defined map[string]bool) bool {
	if defined[name] {
		return true
	}
	if prefix {
		for d := range defined { //air:allow(maprange): existence test; order-insensitive
			if strings.HasPrefix(d, name) {
				return true
			}
		}
	}
	return false
}
