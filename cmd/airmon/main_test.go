package main

import (
	"air/internal/archive"
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"air/internal/core"
	"air/internal/model"
	"air/internal/timeline"
	"air/internal/workload"
)

// liveTelemetry spins up a real (small) simulation and serves its analyzer
// the same way airsim -telemetry does.
func liveTelemetry(t *testing.T, opts workload.Options) *httptest.Server {
	t.Helper()
	m, err := core.NewModule(workload.Config(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	tl := timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(2 * 1300); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(timeline.Handler(tl))
	t.Cleanup(srv.Close)
	return srv
}

func TestAirmonRendersFrame(t *testing.T) {
	srv := liveTelemetry(t, workload.Options{})
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-n", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"airmon", "P1", "P4", "utilization",
		"aocs_control", "fdir_monitor", "model violations 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("frame missing %q:\n%s", want, got)
		}
	}
}

func TestAirmonShowsMisses(t *testing.T) {
	srv := liveTelemetry(t, workload.Options{Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}})
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-n", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadline misses 2") {
		t.Errorf("faulty frame lacks miss count:\n%s", out.String())
	}
}

func TestAirmonUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:1", "-n", "1"}, &out); err == nil {
		t.Error("connecting to a dead port succeeded")
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); got != "[#####-----]" {
		t.Errorf("bar(0.5) = %q", got)
	}
	if got := bar(-1, 4); got != "[----]" {
		t.Errorf("bar(-1) = %q", got)
	}
	if got := bar(2, 4); got != "[####]" {
		t.Errorf("bar(2) = %q", got)
	}
}

// TestAirmonArchiveReplay records a faulty run into a flight archive, then
// replays it: the final replay frame must equal the frame a live airmon
// rendered from the same simulation's telemetry endpoint.
func TestAirmonArchiveReplay(t *testing.T) {
	dir := t.TempDir()
	sink, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewModule(workload.Config(workload.Options{Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	tl := timeline.Attach(m.Bus(), timeline.Options{System: model.Fig8System()})
	m.Bus().Attach(sink)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(2 * 1300); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var live bytes.Buffer
	render(&live, "x", tl.Snapshot())

	var replay bytes.Buffer
	if err := run([]string{"-archive", dir, "-n", "3"}, &replay); err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSpace(replay.String()), "\n\n")
	if len(frames) != 3 {
		t.Fatalf("want 3 replay frames, got %d:\n%s", len(frames), replay.String())
	}
	// Strip each frame's header line (addresses differ) before comparing.
	body := func(frame string) string {
		_, rest, _ := strings.Cut(frame, "\n")
		return rest
	}
	if body(frames[2]) != body(strings.TrimSpace(live.String())) {
		t.Errorf("final replay frame differs from live view.\nreplay:\n%s\nlive:\n%s",
			body(frames[2]), body(strings.TrimSpace(live.String())))
	}
	if body(frames[0]) == body(frames[2]) {
		t.Error("first replay frame already equals the final state; frames are not spaced")
	}

	if err := run([]string{"-archive", t.TempDir()}, &replay); err == nil {
		t.Error("empty archive accepted")
	}
}
