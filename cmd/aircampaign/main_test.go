package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"air/internal/campaign"
	"air/internal/fleet"
	"air/internal/timeline"
)

func TestRunSmallCampaign(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	var sb strings.Builder
	err := run([]string{"-runs", "4", "-workers", "2", "-seed", "5", "-mtfs", "2",
		"-out", outPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	stdout := sb.String()
	for _, want := range []string{"campaign: 4 runs", "ticks/s", "HM events by fault class", "goroutines:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"seed": 5`) {
		t.Error("result JSON missing seed")
	}
	md, err := os.ReadFile(filepath.Join(dir, "result.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "# Fault-injection campaign report") {
		t.Error("Markdown sibling missing report header")
	}
	if strings.Contains(string(md), "## Throughput") {
		t.Error("timing section present without -timing")
	}
}

// TestRunRecoveryFlag: -recovery applies the built-in policy and surfaces
// the recovery-effectiveness lines on stdout and the report section in the
// Markdown artifact.
func TestRunRecoveryFlag(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	var sb strings.Builder
	err := run([]string{"-runs", "4", "-workers", "2", "-seed", "5", "-mtfs", "2",
		"-recovery", "-out", outPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	stdout := sb.String()
	for _, want := range []string{"containment:", "recovery:", "degradation:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"contained"`) {
		t.Error("result JSON missing containment verdicts")
	}
}

func TestRunDeterministicArtifacts(t *testing.T) {
	dir := t.TempDir()
	render := func(name string, workers string) []byte {
		outPath := filepath.Join(dir, name)
		var sb strings.Builder
		err := run([]string{"-runs", "5", "-workers", workers, "-seed", "77",
			"-mtfs", "2", "-out", outPath}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := render("a.json", "1")
	b := render("b.json", "3")
	if string(a) != string(b) {
		t.Fatal("same seed, different workers: result JSON differs")
	}
}

// TestRunTimelineArtifacts: the campaign's JSON artifact carries the merged
// timeline quantiles and the Markdown sibling renders the Timeliness section
// — the analyzer's numbers survive aggregation end to end.
func TestRunTimelineArtifacts(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	var sb strings.Builder
	err := run([]string{"-runs", "4", "-workers", "2", "-seed", "5", "-mtfs", "2",
		"-out", outPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "timeliness: response p50=") {
		t.Errorf("stdout missing timeliness summary:\n%s", sb.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"timeline"`, `"responseP50"`, `"responseP99"`,
		`"responseMax"`, `"worstSlack"`, `"earlyWarningLeadMax"`, `"modelViolations"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("result JSON missing %s", want)
		}
	}
	md, err := os.ReadFile(filepath.Join(dir, "result.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Timeliness", "response time p99", "early warnings"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("Markdown report missing %q", want)
		}
	}
}

// TestRunPprofAndTelemetrySmoke: -telemetry serves the Go runtime profiles
// and the merged /metrics view for the campaign's duration; the merged view
// reflects finished runs by the time the campaign completes.
func TestRunPprofAndTelemetrySmoke(t *testing.T) {
	got := map[string]string{}
	serveHook = func(addr string) {
		for _, path := range []string{"/debug/pprof/", "/metrics"} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Errorf("telemetry endpoint %s: %v", path, err)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("telemetry endpoint %s = %d", path, resp.StatusCode)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got[path] = string(body)
		}
	}
	defer func() { serveHook = nil }()
	var sb strings.Builder
	err := run([]string{"-runs", "2", "-workers", "1", "-seed", "5", "-mtfs", "2",
		"-telemetry", "127.0.0.1:0"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "telemetry serving on") {
		t.Errorf("stdout missing the serving line:\n%s", sb.String())
	}
	if !strings.Contains(got["/debug/pprof/"], "goroutine") {
		t.Errorf("pprof index lacks profiles:\n%s", got["/debug/pprof/"])
	}
	if !strings.Contains(got["/metrics"], "air_response_ticks") {
		t.Errorf("merged /metrics lacks analyzer series:\n%s", got["/metrics"])
	}
}

func TestRunMatrixFlow(t *testing.T) {
	dir := t.TempDir()
	matrixPath := filepath.Join(dir, "matrix.json")
	var sb strings.Builder
	if err := run([]string{"-write-matrix", matrixPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(matrixPath); err != nil {
		t.Fatal(err)
	}
	// Matrix document supplies defaults; explicit flags override them.
	sb.Reset()
	if err := run([]string{"-matrix", matrixPath, "-runs", "3", "-mtfs", "2",
		"-seed", "4", "-workers", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "campaign: 3 runs × 2 MTFs, seed 4") {
		t.Errorf("flag precedence over matrix defaults broken:\n%s", sb.String())
	}
}

func TestRunScalingSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scaling", "-runs", "4", "-seed", "6", "-mtfs", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"scaling sweep", "workers", "speedup", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("scaling output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadMatrix(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "scenarios": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-matrix", bad}, &sb); err == nil {
		t.Fatal("invalid matrix accepted")
	}
	if err := run([]string{"-matrix", filepath.Join(dir, "missing.json")}, &sb); err == nil {
		t.Fatal("missing matrix accepted")
	}
}

func TestMdSibling(t *testing.T) {
	if got := mdSibling("out/result.json"); got != "out/result.md" {
		t.Errorf("mdSibling: %s", got)
	}
	if got := mdSibling("result"); got != "result.md" {
		t.Errorf("mdSibling: %s", got)
	}
}

func TestWorkerSweep(t *testing.T) {
	if got := workerSweep(1); len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Errorf("workerSweep(1): %v", got)
	}
	if got := workerSweep(8); len(got) != 4 || got[3] != 8 {
		t.Errorf("workerSweep(8): %v", got)
	}
}

// TestRunOversubscriptionWarning: -workers beyond the schedulable CPUs
// warns (and changes nothing else — determinism across worker counts is
// covered by the scaling sweep).
func TestRunOversubscriptionWarning(t *testing.T) {
	over := runtime.GOMAXPROCS(0) * 4
	var sb strings.Builder
	err := run([]string{"-runs", "2", "-seed", "5", "-mtfs", "2",
		"-workers", strconv.Itoa(over)}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "oversubscribes") {
		t.Errorf("stdout missing oversubscription warning:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-runs", "2", "-seed", "5", "-mtfs", "2", "-workers", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "oversubscribes") {
		t.Errorf("spurious oversubscription warning:\n%s", sb.String())
	}
}

// TestRunJournalResume: a -journal campaign interrupted after one lease
// resumes instead of restarting, and its artifact is byte-identical to an
// uninterrupted run.
func TestRunJournalResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.journal")
	refPath := filepath.Join(dir, "ref.json")
	outPath := filepath.Join(dir, "resumed.json")
	args := []string{"-runs", "6", "-workers", "2", "-seed", "5", "-mtfs", "2"}

	var sb strings.Builder
	if err := run(append(args, "-out", refPath), &sb); err != nil {
		t.Fatal(err)
	}

	// Stage the interruption: a coordinator over the journal completes one
	// 2-run lease, then dies.
	spec := campaign.Spec{Runs: 6, Workers: 2, Seed: 5, MTFs: 2}.Defaulted()
	c, err := fleet.New(fleet.Options{LeaseSize: 2, JournalPath: journal, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if n, err := fleet.Work(c, fleet.WorkerOptions{ID: "doomed", MaxLeases: 1}); err != nil || n != 1 {
		t.Fatalf("staged interruption: n=%d err=%v", n, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := run(append(args, "-journal", journal, "-out", outPath), &sb); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(resumed) {
		t.Error("resumed campaign artifact differs from uninterrupted run")
	}
}

// TestMergedSourceReadsWhileFolding folds campaign observations from
// several goroutines while another serves /metrics and /timeline.json from
// the merged view. The folds accumulate in place, so a reader must get a
// copy of its own, never the maps and slices the next fold writes: -race
// reports a reader that shares them. Every fold must count.
func TestMergedSourceReadsWhileFolding(t *testing.T) {
	res, err := campaign.Run(campaign.Spec{Runs: 4, Workers: 1, Seed: 3, MTFs: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := &mergedSource{}
	h := timeline.Handler(src)
	const folders, rounds = 4, 25
	var wg sync.WaitGroup
	for range folders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for _, ob := range res.Observations {
					src.fold(ob)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, path := range []string{"/metrics", "/timeline.json"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", path, rec.Code)
			}
		}
	}
	var events, ticks uint64
	for _, ob := range res.Observations {
		events += ob.Metrics.Events
		ticks += ob.Timeline.Ticks
	}
	if events == 0 || ticks == 0 {
		t.Fatalf("the campaign's %d observations hold %d events and %d ticks to fold", len(res.Observations), events, ticks)
	}
	if got, want := src.Registry().Events, events*folders*rounds; got != want {
		t.Errorf("merged registry holds %d events, want %d", got, want)
	}
	if got, want := src.Snapshot().Ticks, ticks*folders*rounds; got != want {
		t.Errorf("merged timeline holds %d ticks, want %d", got, want)
	}
}
