package timeline_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"air/internal/timeline"
	"air/internal/workload"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	_, tl := fig8Run(t, 2, workload.Options{Faults: []workload.FaultSpec{{Kind: workload.FaultDeadlineOverrun, Partition: "P1", Deadline: 220}}})
	srv := httptest.NewServer(timeline.Handler(tl))
	defer srv.Close()

	code, ctype, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics = %d %q", code, ctype)
	}
	if !strings.Contains(body, "air_response_ticks") || !strings.Contains(body, "air_early_warnings_total") {
		t.Errorf("/metrics missing analyzer series:\n%s", body)
	}

	code, ctype, body = get(t, srv.URL+"/timeline.json")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/timeline.json = %d %q", code, ctype)
	}
	var snap timeline.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/timeline.json decode: %v", err)
	}
	if snap.Ticks == 0 || len(snap.Partitions) != 4 {
		t.Errorf("served snapshot = ticks %d, %d partitions", snap.Ticks, len(snap.Partitions))
	}

	// The faulty run tripped the HM, so the flight recorder must be frozen
	// with a cause.
	code, _, body = get(t, srv.URL+"/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	var dump timeline.FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/flight decode: %v", err)
	}
	if !dump.Frozen || dump.Cause == nil || len(dump.Frames) == 0 {
		t.Errorf("flight dump = frozen %v cause %v frames %d; want frozen post-mortem",
			dump.Frozen, dump.Cause, len(dump.Frames))
	}

	code, _, body = get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestServeAndShutdown(t *testing.T) {
	_, tl := fig8Run(t, 1, workload.Options{})
	addr, shutdown, err := timeline.Serve("127.0.0.1:0", timeline.Handler(tl))
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics on live server = %d", code)
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}
