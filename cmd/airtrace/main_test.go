package main

import (
	"air/internal/archive"
	"air/internal/obs"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	lines := `{"t":0,"kind":"PARTITION_SWITCH","partition":"P1","detail":"initial"}
{"t":100,"kind":"DEADLINE_MISS","partition":"P1","process":"faulty","detail":"missed"}
{"t":200,"kind":"PARTITION_SWITCH","partition":"P2","detail":"P2"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummary(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-summary", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 events", "spanning t=[0, 200]", "DEADLINE_MISS", "P1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFilters(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "DEADLINE_MISS", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "\n") != 1 || !strings.Contains(out.String(), "faulty") {
		t.Errorf("kind filter output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-partition", "P2", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "\n") != 1 {
		t.Errorf("partition filter output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"/nonexistent.jsonl"}, &out); err == nil {
		t.Error("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if err := run([]string{bad}, &out); err == nil {
		t.Error("malformed trace accepted")
	}
}

// writeArchive builds a small flight archive from the canonical test events.
func writeArchive(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "arch")
	s, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(writeTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.DecodeEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunTickWindow(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-since", "100", "-until", "100", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "\n") != 1 || !strings.Contains(out.String(), "DEADLINE_MISS") {
		t.Errorf("tick window output:\n%s", out.String())
	}
}

func TestRunArchiveMatchesTrace(t *testing.T) {
	// The same flags over the JSONL trace and over the archive built from it
	// must produce identical output — shared predicate, shared pipeline.
	for _, flags := range [][]string{
		{"-summary"},
		{"-since", "100"},
		{"-kind", "PARTITION_SWITCH", "-until", "100"},
		{"-export"},
	} {
		var fromTrace, fromArchive bytes.Buffer
		if err := run(append(flags[:len(flags):len(flags)], writeTrace(t)), &fromTrace); err != nil {
			t.Fatal(err)
		}
		if err := run(append([]string{"-archive", writeArchive(t)}, flags...), &fromArchive); err != nil {
			t.Fatal(err)
		}
		if fromTrace.String() != fromArchive.String() {
			t.Errorf("%v: trace output %q differs from archive output %q", flags, fromTrace.String(), fromArchive.String())
		}
	}
}

func TestRunScrub(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-archive", writeArchive(t), "-scrub", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 scrub stops, got:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "t=200") || !strings.Contains(lines[2], "t=100") {
		t.Errorf("scrub must step backwards from the newest tick:\n%s", out.String())
	}
	// -scrub without -archive is a usage error, as is scrubbing silence.
	if err := run([]string{"-scrub", "2", writeTrace(t)}, &out); err == nil {
		t.Error("scrub over a trace file accepted")
	}
	if err := run([]string{"-archive", writeArchive(t), "-scrub", "1", "-since", "900"}, &out); err == nil {
		t.Error("scrub over an empty window accepted")
	}
}
