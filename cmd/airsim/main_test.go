package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
