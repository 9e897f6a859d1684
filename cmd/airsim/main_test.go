package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"air/internal/hm"
	"air/internal/obs"
	"air/internal/tick"
)

func TestRunNominal(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mtfs", "2", "-frames", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[P1 AOCS]", "[AIR PMK]", "[AIR Health Monitor]",
		"simulation complete", "deadline misses=0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFaultSwitchAndExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	hmPath := filepath.Join(dir, "hm.jsonl")
	var out bytes.Buffer
	err := run([]string{"-mtfs", "3", "-fault", "-switch-at", "2",
		"-trace-out", tracePath, "-hm-out", hmPath, "-frames", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadline misses=3") {
		t.Errorf("fault detections missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "schedule switches=1") {
		t.Errorf("switch missing:\n%s", out.String())
	}
	for _, p := range []string{tracePath, hmPath} {
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Errorf("export %s missing: %v", p, err)
		}
	}
}

// TestRunRecoveryStorm: -faults restart-storm under -recovery prints the
// recovery-effectiveness summary with quarantine activity.
func TestRunRecoveryStorm(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mtfs", "12", "-frames", "0",
		"-faults", "restart-storm", "-recovery"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recovery:") {
		t.Errorf("recovery summary missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), "0 quarantines") {
		t.Errorf("storm never quarantined:\n%s", out.String())
	}
}

// TestRunAIRWindowsOutliveFullRing: the AIR windows keep mirroring after the
// module's trace ring has filled (well before MTF 700 under these faults):
// the last frame's PMK window still shows that MTF's deadline miss.
func TestRunAIRWindowsOutliveFullRing(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mtfs", "700", "-frames", "1",
		"-fault", "-faults", "restart-storm", "-recovery"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	_, frame, ok := strings.Cut(out.String(), "(MTF 700/700)")
	if !ok {
		t.Fatalf("no MTF 700 frame:\n%s", out.String())
	}
	_, rows, ok := strings.Cut(frame, "[AIR PMK]")
	if !ok {
		t.Fatalf("no AIR PMK window in the MTF 700 frame:\n%s", frame)
	}
	var pmk []string
	for _, row := range strings.Split(rows, "\n")[1:] {
		if strings.HasPrefix(row, "+") {
			break
		}
		left, _, _ := strings.Cut(row, "||") // the HM window sits to the right
		pmk = append(pmk, left)
	}
	if !strings.Contains(strings.Join(pmk, "\n"), "DEADLINE_MISS") {
		t.Errorf("MTF 700 PMK window holds no DEADLINE_MISS line:\n%s", strings.Join(pmk, "\n"))
	}
}

// TestHMLineMatchesLogRecord: the HM window renders a monitor's spine
// report exactly as the monitor's log renders the record.
func TestHMLineMatchesLogRecord(t *testing.T) {
	bus := obs.NewBus()
	ring := obs.NewRing(4)
	bus.Attach(ring)
	mon := hm.New(hm.Config{Now: func() tick.Ticks { return 42 }, Obs: obs.NewEmitter(bus, 0)})
	mon.ReportProcess("P1", "faulty", hm.ErrDeadlineMissed, "process deadline violated")
	mon.ReportModule(hm.ErrPowerFail, "brownout")
	log, reports := mon.Events(), ring.Events()
	if len(reports) != len(log) {
		t.Fatalf("%d spine reports for %d log records", len(reports), len(log))
	}
	for i, e := range reports {
		if got, want := hmLine(e), log[i].String(); got != want {
			t.Errorf("report %d renders as %q, want %q", i, got, want)
		}
	}
}

// probeEndpoint wires serveHook to GET path on the telemetry server (the
// hook fires while the server is still live); the returned body is filled
// in by the time run returns.
func probeEndpoint(t *testing.T, path string) (*string, func()) {
	t.Helper()
	var got string
	serveHook = func(addr string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Errorf("telemetry endpoint %s: %v", path, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("telemetry endpoint %s = %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		got = string(body)
	}
	return &got, func() { serveHook = nil }
}

// TestRunPprofSmoke: -telemetry serves the Go runtime profile index on a
// local port for the lifetime of the run.
func TestRunPprofSmoke(t *testing.T) {
	got, done := probeEndpoint(t, "/debug/pprof/")
	defer done()
	var out bytes.Buffer
	if err := run([]string{"-mtfs", "1", "-frames", "0", "-telemetry", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(*got, "goroutine") {
		t.Errorf("pprof index lacks profiles:\n%s", *got)
	}
}

// TestRunTelemetrySmoke: -telemetry serves the analyzer's Prometheus text
// while the simulation runs.
func TestRunTelemetrySmoke(t *testing.T) {
	got, done := probeEndpoint(t, "/metrics")
	defer done()
	var out bytes.Buffer
	if err := run([]string{"-mtfs", "1", "-frames", "0", "-telemetry", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "telemetry serving on") {
		t.Errorf("serving line missing:\n%s", out.String())
	}
	if !strings.Contains(*got, "air_response_ticks") {
		t.Errorf("/metrics lacks analyzer series:\n%s", *got)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-zzz"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-faults", "bit-flip"}, &out); err == nil {
		t.Error("unknown fault kind accepted")
	}
}
