package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cannedM1 = `# air/internal/obs
internal/obs/ring.go:43:6: can inline (*Ring).Emit
internal/obs/ring.go:43:7: r does not escape
internal/obs/hot.go:10:9: new(int) escapes to heap
internal/obs/hot.go:14:6: moved to heap: buf
internal/obs/hot.go:20:12: func literal escapes to heap
internal/obs/hot.go:25:2: xs does not escape
not a diagnostic line
# air/internal/pal
internal/pal/queue.go:165:6: can inline (*ListQueue).unlink
internal/pal/queue.go:165:7: q does not escape
internal/pal/queue.go:181:6: can inline less
# air/internal/core
internal/core/snapshot.go:200:14: make(map[pos.ProcessID]ForkableBody, len(pt.forkable)) escapes to heap
internal/obs/obs.go:374:24: e escapes to heap
`

func TestParseEscapes(t *testing.T) {
	got := parseEscapes([]byte(cannedM1))
	if len(got) != 5 {
		t.Fatalf("got %d escapes, want 5: %+v", len(got), got)
	}
	want := []escape{
		{file: "internal/obs/hot.go", line: 10, col: 9, msg: "new(int) escapes to heap", key: "alloc"},
		{file: "internal/obs/hot.go", line: 14, col: 6, msg: "moved to heap: buf", key: "alloc"},
		{file: "internal/obs/hot.go", line: 20, col: 12, msg: "func literal escapes to heap", key: "closure"},
		// Fork-assembly allocations parse as plain allocs: they land in
		// cold one-shot functions, so the hot index drops them downstream.
		{file: "internal/core/snapshot.go", line: 200, col: 14, msg: "make(map[pos.ProcessID]ForkableBody, len(pt.forkable)) escapes to heap", key: "alloc"},
		// Batched emission stages events by value; a diagnostic here must
		// still surface so the //air:allow(alloc) on the append is audited.
		{file: "internal/obs/obs.go", line: 374, col: 24, msg: "e escapes to heap", key: "alloc"},
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("escape %d: got %+v, want %+v", i, got[i], w)
		}
	}
}

func TestHotIndexMatch(t *testing.T) {
	dir := t.TempDir()
	src := `package p

//air:hotpath
func Hot() *int {
	return new(int)
}

//air:hotpath
//air:allow(alloc): test fixture documents this escape
func Allowed() *int {
	return new(int)
}

func Cold() *int {
	return new(int)
}
`
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := buildHotIndex([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.funcs) != 2 {
		t.Fatalf("got %d hot functions, want 2", len(idx.funcs))
	}
	escapes := []escape{
		{file: path, line: 5, col: 9, msg: "new(int) escapes to heap", key: "alloc"},  // Hot: finding
		{file: path, line: 11, col: 9, msg: "new(int) escapes to heap", key: "alloc"}, // Allowed: suppressed
		{file: path, line: 15, col: 9, msg: "new(int) escapes to heap", key: "alloc"}, // Cold: not hot
	}
	findings := idx.match(escapes)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	for _, want := range []string{"p.go:5:9", "[airescape]", "function Hot", "DESIGN.md#airescape"} {
		if !strings.Contains(findings[0], want) {
			t.Errorf("finding missing %q: %s", want, findings[0])
		}
	}
}

// TestEndToEnd runs the full tool over a temp module with one hot function
// the compiler proves allocating and one clean, asserting the exit codes.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module air\n\ngo 1.22\n")
	writeFile(t, dir, "hot/hot.go", `package hot

//air:hotpath
func Leak() *[64]byte {
	var b [64]byte
	return &b
}
`)
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()

	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("expected exit 1 for escaping hot function, got %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "function Leak") {
		t.Errorf("finding does not name the hot function:\n%s", errb.String())
	}

	// Fix the leak with a documented suppression; the tool must pass.
	writeFile(t, dir, "hot/hot.go", `package hot

//air:hotpath
//air:allow(alloc): test fixture returns caller-owned storage by design
func Leak() *[64]byte {
	var b [64]byte
	return &b
}
`)
	out.Reset()
	errb.Reset()
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("expected exit 0 after suppression, got %d\nstderr: %s", code, errb.String())
	}
}

func writeFile(t *testing.T, dir, name, src string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
