package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/config"
	"air/internal/fleet"
)

func testDoc() *config.Campaign {
	return &config.Campaign{
		Name:       "daemon-smoke",
		Runs:       10,
		Seed:       7,
		MTFsPerRun: 2,
		Scenarios: []config.CampaignScenario{
			{Name: "baseline"},
			{Name: "overrun", Faults: []config.CampaignFault{{Kind: "deadline-overrun"}}},
		},
	}
}

// TestDaemonEndToEnd drives the daemon's full lifecycle through the live
// HTTP surface: submit a campaign matrix, drain it with a worker-mode
// invocation of the same binary, and verify the merged result is
// byte-identical to a single-process campaign.Run — plus fleet gauges on
// /metrics.
func TestDaemonEndToEnd(t *testing.T) {
	doc := testDoc()
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		cl := &fleet.Client{Base: base}
		id, err := cl.Submit(doc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}

		// A worker-mode process (same main, -join) drains the coordinator.
		var wout strings.Builder
		if err := run([]string{"-join", base, "-id", "w1", "-poll", "1ms"}, &wout); err != nil {
			t.Fatalf("worker mode: %v", err)
		}
		if !strings.Contains(wout.String(), "coordinator drained") {
			t.Errorf("worker did not report drain:\n%s", wout.String())
		}

		var st fleet.Status
		getJSON(t, base+"/campaigns/"+id, &st)
		if !st.Done || st.RunsDone != doc.Runs {
			t.Fatalf("campaign not done over HTTP: %+v", st)
		}

		got := get(t, base+"/campaigns/"+id+"/result")
		spec, err := campaign.FromConfig(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := campaign.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The daemon streams aggregates only (no -keep-observations).
		want.Observations = nil
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Error("fleet result differs from single-process campaign.Run")
		}

		metrics := string(get(t, base+"/metrics"))
		for _, series := range []string{
			"air_events_total", // merged simulation counters
			`air_fleet_campaign_complete{campaign="` + id + `"} 1`,
			`air_fleet_worker_leases_total{worker="w1"}`,
			"air_fleet_worker_live",
		} {
			if !strings.Contains(metrics, series) {
				t.Errorf("/metrics missing %q", series)
			}
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "3", "-lease-ttl", "1m"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aircampaignd coordinating on") {
		t.Errorf("stdout missing banner:\n%s", sb.String())
	}
}

// TestDaemonMatrixStartupAndLocalShards: -matrix submits at boot and
// -workers runs in-process shards that drain it without any worker process.
func TestDaemonMatrixStartupAndLocalShards(t *testing.T) {
	dir := t.TempDir()
	matrixPath := filepath.Join(dir, "matrix.json")
	data, err := json.Marshal(testDoc())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matrixPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	serveHook = func(kind, addr string) {
		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			var fs fleet.FleetStatus
			getJSON(t, base+"/campaigns", &fs)
			if len(fs.Campaigns) != 1 {
				t.Fatalf("want 1 startup campaign, got %+v", fs)
			}
			if fs.Campaigns[0].Done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("in-process shards never drained the campaign: %+v", fs.Campaigns[0])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	err = run([]string{"-addr", "127.0.0.1:0", "-matrix", matrixPath, "-lease", "2",
		"-workers", "2", "-poll", "1ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"submitted " + matrixPath, "running 2 in-process worker shards"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDaemonEndpointTable pins the daemon's HTTP surface with -archive-root
// set and two in-process shards: method and path map to status code and
// content type, across the fleet API, wrong-method 405s, the telemetry
// endpoints, the archive queries over the shipped runs, and 404s.
func TestDaemonEndpointTable(t *testing.T) {
	doc := testDoc()
	doc.Runs = 4
	doc.ArchiveDir = "staged" // any value: shards stage locally and ship to -archive-root
	matrix, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	const (
		jsonType = "application/json"
		textType = "text/plain; charset=utf-8"
		promType = "text/plain; version=0.0.4; charset=utf-8"
		htmlType = "text/html; charset=utf-8"
	)
	serveHook = func(_, addr string) {
		base := "http://" + addr
		do := func(method, path, body string) (int, string) {
			req, err := http.NewRequest(method, base+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			return resp.StatusCode, resp.Header.Get("Content-Type")
		}
		if code, ctype := do(http.MethodPost, "/campaigns", string(matrix)); code != http.StatusCreated || ctype != jsonType {
			t.Fatalf("POST /campaigns = %d %q", code, ctype)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st fleet.Status
			getJSON(t, base+"/campaigns/c1", &st)
			if st.Done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("in-process shards never drained the campaign: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for _, tc := range []struct {
			method, path, body string
			code               int
			ctype              string
		}{
			{"GET", "/campaigns", "", 200, jsonType},
			{"GET", "/campaigns/c1", "", 200, jsonType},
			{"GET", "/campaigns/c1/spec", "", 200, jsonType},
			{"GET", "/campaigns/c1/result", "", 200, jsonType},
			{"GET", "/campaigns/c1/archives", "", 200, jsonType},
			{"POST", "/fleet/acquire", `{"worker":"probe"}`, 200, jsonType},
			{"POST", "/fleet/heartbeat", `{"worker":"probe"}`, 204, ""},
			{"DELETE", "/campaigns", "", 405, textType},
			{"GET", "/fleet/acquire", "", 405, textType},
			{"GET", "/metrics", "", 200, promType},
			{"POST", "/metrics", "", 200, promType},
			{"GET", "/timeline.json", "", 200, jsonType},
			{"GET", "/flight", "", 200, jsonType},
			{"GET", "/debug/pprof/", "", 200, htmlType},
			{"GET", "/archive/asof?run=c1/run-00000&tick=1000", "", 200, jsonType},
			{"GET", "/archive/range?run=c1/run-00000&limit=5", "", 200, jsonType},
			{"GET", "/archive/diff?a=c1/run-00000&b=c1/run-00001", "", 200, jsonType},
			{"GET", "/campaigns/c9", "", 404, textType},
			{"GET", "/nope", "", 404, textType},
		} {
			if code, ctype := do(tc.method, tc.path, tc.body); code != tc.code || ctype != tc.ctype {
				t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, code, ctype, tc.code, tc.ctype)
			}
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	err = run([]string{"-addr", "127.0.0.1:0", "-archive-root", t.TempDir(), "-lease", "2",
		"-workers", "2", "-poll", "1ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// Regression: daemon shard goroutines must be join-able. runShardLoop used
// to loop forever between polls with no stop mechanism, so in-process
// shards outlived the coordinator they served.
func TestRunShardLoopJoinsOnStop(t *testing.T) {
	c, err := fleet.New(fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runShardLoop(c, "shard-regress", time.Millisecond, stop, io.Discard)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("runShardLoop did not return after its stop channel closed")
	}
}
