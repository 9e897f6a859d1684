package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"air/internal/campaign"
)

// flakyHandler wraps the fleet handler with scripted per-path failures:
// each scheduled entry consumes one request to the path and fails it the
// scripted way before the handler ever sees a retry.
type flakyHandler struct {
	h  http.Handler
	mu sync.Mutex
	// script maps a URL path to its pending failure modes, consumed
	// front-to-back: "500", "reset" (hijack and close), "stall" (sleep past
	// the client deadline).
	script map[string][]string
	stall  time.Duration
	served int
}

func newFlaky(c *Coordinator) *flakyHandler {
	return &flakyHandler{h: Handler(c), script: map[string][]string{}, stall: 300 * time.Millisecond}
}

func (f *flakyHandler) fail(path string, modes ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script[path] = append(f.script[path], modes...)
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	var mode string
	if pending := f.script[r.URL.Path]; len(pending) > 0 {
		mode, f.script[r.URL.Path] = pending[0], pending[1:]
	}
	f.served++
	f.mu.Unlock()
	switch mode {
	case "500":
		http.Error(w, "synthetic coordinator overload", http.StatusInternalServerError)
	case "reset":
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
	case "stall":
		time.Sleep(f.stall)
		f.h.ServeHTTP(w, r)
	default:
		f.h.ServeHTTP(w, r)
	}
}

// testClient builds a client with a fast, small backoff so retry tests run
// in milliseconds.
func testClient(base string) *Client {
	return &Client{
		Base:    base,
		Timeout: 100 * time.Millisecond,
		Retry:   RetryPolicy{Attempts: 4, Backoff: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	}
}

func newFlakyFleet(t *testing.T, runs int) (*flakyHandler, *Client, string) {
	t.Helper()
	c, err := New(Options{LeaseSize: 4, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	id, err := c.Submit(testSpec(runs))
	if err != nil {
		t.Fatal(err)
	}
	f := newFlaky(c)
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return f, testClient(srv.URL), id
}

func TestClientRetries500ThenSucceeds(t *testing.T) {
	f, cl, _ := newFlakyFleet(t, 8)
	f.fail(pathAcquire, "500", "500")
	if _, state, err := cl.Acquire("w"); err != nil || state != Granted {
		t.Fatalf("acquire through 500s: state=%v err=%v", state, err)
	}
	if n := cl.Retries(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
}

func TestClientRetriesConnectionReset(t *testing.T) {
	f, cl, _ := newFlakyFleet(t, 8)
	f.fail(pathAcquire, "reset")
	if _, state, err := cl.Acquire("w"); err != nil || state != Granted {
		t.Fatalf("acquire through reset: state=%v err=%v", state, err)
	}
	if n := cl.Retries(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
}

func TestClientRetriesTimeout(t *testing.T) {
	f, cl, id := newFlakyFleet(t, 8)
	f.fail(pathCampaigns+"/"+id+"/spec", "stall")
	spec, err := cl.Spec(id)
	if err != nil {
		t.Fatalf("spec through stall: %v", err)
	}
	if spec.Runs != 8 {
		t.Fatalf("spec.Runs = %d, want 8", spec.Runs)
	}
	if n := cl.Retries(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	f, cl, _ := newFlakyFleet(t, 8)
	f.fail(pathAcquire, "500", "500", "500", "500", "500")
	_, _, err := cl.Acquire("w")
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted after 4 attempts") {
		t.Fatalf("error = %v, want retry budget exhaustion", err)
	}
	if n := cl.Retries(); n != 3 {
		t.Fatalf("retries = %d, want 3 (4 attempts)", n)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	_, cl, _ := newFlakyFleet(t, 8)
	// A protocol error — completing a lease that was never issued — is
	// definitive: one attempt, no retries burned.
	err := cl.Complete("w", Lease{Campaign: "nope", Index: 0, Start: 0, End: 4}, &campaign.Shard{})
	if err == nil {
		t.Fatal("bogus complete succeeded")
	}
	if n := cl.Retries(); n != 0 {
		t.Fatalf("retries = %d, want 0 for a 4xx", n)
	}
}

func TestClientDuplicateCompleteIsIdempotent(t *testing.T) {
	_, cl, id := newFlakyFleet(t, 8)
	l, state, err := cl.Acquire("w")
	if err != nil || state != Granted {
		t.Fatalf("acquire: %v %v", state, err)
	}
	spec, err := cl.Spec(id)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := campaign.RunShard(spec, l.Start, l.End)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Complete("w", l, sh); err != nil {
		t.Fatal(err)
	}
	// The retry a lost response would trigger: same lease, same bytes.
	if err := cl.Complete("w", l, sh); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	var st Status
	if err := cl.do(pathCampaigns+"/"+id, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Leases.Done != 1 {
		t.Fatalf("duplicate complete double-counted: %+v", st.Leases)
	}
}

// TestClientFlakyDrainMatchesCleanRun drives a whole campaign through a
// server that fails every kind of way mid-run; the drained result must be
// byte-identical to the clean single-process run and the client must have
// actually spent retries doing it.
func TestClientFlakyDrainMatchesCleanRun(t *testing.T) {
	f, cl, id := newFlakyFleet(t, 16)
	f.fail(pathAcquire, "500", "reset", "500")
	f.fail(pathComplete, "reset", "500", "500")
	f.fail(pathCampaigns+"/"+id+"/spec", "500")
	n, err := Work(cl, WorkerOptions{ID: "w", Workers: 1, Poll: time.Millisecond})
	if err != nil {
		t.Fatalf("drain through flaky server: %v", err)
	}
	if n != 4 {
		t.Fatalf("completed %d leases, want 4", n)
	}
	if cl.Retries() < 7 {
		t.Fatalf("retries = %d, want at least the 7 scripted failures", cl.Retries())
	}

	// testClient's 100 ms timeout is for the scripted drain; the result
	// download has no injected fault and can take longer under -race, so
	// it goes through a client at the default timeout.
	var got struct {
		Aggregate campaign.Aggregate `json:"aggregate"`
	}
	if err := (&Client{Base: cl.Base}).do(pathCampaigns+"/"+id+"/result", nil, &got); err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(testSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("flaky-server aggregate differs from clean campaign.Run")
	}
}

func TestClientBackoffBoundedAndSeeded(t *testing.T) {
	cl := testClient("http://unused")
	p := cl.Retry.withDefaults()
	var prev time.Duration
	for retry := 1; retry <= 10; retry++ {
		d := cl.backoff(p, retry)
		if d <= 0 || d > p.BackoffMax {
			t.Fatalf("retry %d: backoff %v outside (0, %v]", retry, d, p.BackoffMax)
		}
		if retry <= 2 && d < prev/4 {
			t.Fatalf("retry %d: backoff %v not growing from %v", retry, d, prev)
		}
		prev = d
	}
	// Same seed, same jitter sequence.
	a, b := testClient("x"), testClient("x")
	for retry := 1; retry <= 8; retry++ {
		if da, db := a.backoff(p, retry), b.backoff(p, retry); da != db {
			t.Fatalf("retry %d: same-seed jitter diverged: %v vs %v", retry, da, db)
		}
	}
}
