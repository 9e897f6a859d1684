package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/config"
)

// soakChaos is the dense schedule the equivalence tests run under: every
// fault class enabled at once, delays kept tiny so the suite stays fast.
func soakChaos(seed uint64) ChaosOptions {
	return ChaosOptions{
		Seed:         seed,
		Drop:         0.08,
		DropResponse: 0.08,
		Inject500:    0.08,
		Duplicate:    0.08,
		Latency:      0.25,
		LatencySpan:  2 * time.Millisecond,
	}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	a, b := NewChaos(soakChaos(7)), NewChaos(soakChaos(7))
	for i := 0; i < 500; i++ {
		da, db := a.next(), b.next()
		if da != db {
			t.Fatalf("op %d: schedules diverged: %+v vs %+v", i, da, db)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	other := NewChaos(soakChaos(8))
	for i := 0; i < 500; i++ {
		other.next()
	}
	if other.Stats() == a.Stats() {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestChaosInjectsEveryClass(t *testing.T) {
	c := NewChaos(soakChaos(3))
	for i := 0; i < 2000; i++ {
		c.next()
	}
	st := c.Stats()
	if st.Drops == 0 || st.ResponseDrops == 0 || st.Injected500s == 0 || st.Duplicates == 0 || st.Delays == 0 {
		t.Fatalf("a fault class never fired over 2000 ops: %+v", st)
	}
}

// chaosClient is a worker's Client on the chaos transport, with
// millisecond backoff so the suite stays fast.
func chaosClient(base string, ch *Chaos) *Client {
	return &Client{
		Base:  base,
		HTTP:  &http.Client{Transport: ch.Transport(nil), Timeout: 2 * time.Second},
		Retry: RetryPolicy{Attempts: 8, Backoff: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	}
}

// chaosWorker is a single-simulation worker. Its leases, granted under the
// chaos tests' 150ms TTL, ask it to heartbeat every 37.5ms.
func chaosWorker(id string, cl *Client) WorkerOptions {
	return WorkerOptions{ID: id, Workers: 1, Poll: time.Millisecond, Retries: cl.Retries}
}

// drainChaos runs n Work loops over HTTP, each with its own chaos-wrapped
// Client, until the coordinator at base drains.
func drainChaos(base string, ch *Chaos, prefix string, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := chaosClient(base, ch)
			_, errs[i] = Work(cl, chaosWorker(fmt.Sprintf("%s-%d", prefix, i), cl))
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestChaosEquivalence is the chaos acceptance test: under three different
// dense chaos schedules — drops, lost responses, injected 500s, duplicated
// deliveries, latency — three workers drain a coordinator over loopback
// HTTP and the campaign still produces the byte-identical Result of the
// clean single-process run.
func TestChaosEquivalence(t *testing.T) {
	spec := testSpec(24)
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSON(t, want)
	for _, seed := range []uint64{1, 42, 1912} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, err := New(Options{
				LeaseSize:        4,
				LeaseTTL:         150 * time.Millisecond,
				KeepObservations: true,
				QuarantineAfter:  -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id, err := c.Submit(spec.Defaulted())
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(Handler(c))
			defer srv.Close()
			ch := NewChaos(soakChaos(seed))
			if err := drainChaos(srv.URL, ch, "chaos", 3); err != nil {
				t.Fatalf("chaos run: %v (stats %+v)", err, ch.Stats())
			}
			got, err := c.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, got), wantJSON) {
				t.Fatalf("chaos result differs from clean campaign.Run (stats %+v)", ch.Stats())
			}
			if ch.Stats().Faults() == 0 {
				t.Fatalf("vacuous run: schedule injected no faults (%+v)", ch.Stats())
			}
		})
	}
}

// TestChaosCrashRestartEquivalence composes every failure domain at once:
// a chaos schedule on the transport, a worker that dies holding a lease,
// and a coordinator that is killed and restarted over its journal. The
// final aggregate must still be byte-identical to the clean run, and a
// third coordinator replaying the finished journal must agree.
func TestChaosCrashRestartEquivalence(t *testing.T) {
	spec := testSpec(16)
	journal := filepath.Join(t.TempDir(), "fleet.journal")
	ch := NewChaos(soakChaos(99))
	opts := Options{
		LeaseSize:        4,
		LeaseTTL:         150 * time.Millisecond,
		JournalPath:      journal,
		KeepObservations: true,
		QuarantineAfter:  -1,
	}
	// One server serves whichever coordinator is current, so the restarted
	// coordinator keeps the base URL its workers hold.
	var current atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// First life: one worker completes a lease under chaos, then crashes
	// holding a second; the coordinator dies right after.
	c1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	current.Store(Handler(c1))
	id, err := c1.Submit(spec.Defaulted())
	if err != nil {
		t.Fatal(err)
	}
	cl := chaosClient(srv.URL, ch)
	doomed := chaosWorker("doomed", cl)
	doomed.MaxLeases = 1
	if n, err := Work(cl, doomed); err != nil || n != 1 {
		t.Fatalf("doomed shard: n=%d err=%v", n, err)
	}
	if _, _, err := c1.Acquire("doomed"); err != nil {
		t.Fatalf("crash lease: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: replay the journal and drain with two chaos-wrapped
	// workers. The crashed worker's abandoned lease is simply pending again.
	c2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	current.Store(Handler(c2))
	if err := drainChaos(srv.URL, ch, "survivor", 2); err != nil {
		t.Fatalf("survivors: %v (stats %+v)", err, ch.Stats())
	}
	got, err := c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatalf("chaos+crash+restart result differs from clean run (stats %+v)", ch.Stats())
	}
	if ch.Stats().Faults() == 0 {
		t.Fatal("vacuous soak: no faults injected")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: the finished journal replays clean — campaign done, same
	// bytes, nothing left to issue.
	c3, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, state, err := c3.Acquire("auditor"); err != nil || state != Drained {
		t.Fatalf("replayed journal not drained: state=%v err=%v", state, err)
	}
	replayed, err := c3.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, replayed), resultJSON(t, want)) {
		t.Fatal("journal replay of finished campaign differs from clean run")
	}
}

// TestChaosTransportErrorsAreInjected pins the error contract: every fault
// the chaos transport surfaces through a Client unwraps to ErrInjected, so
// callers can tell scheduled faults from real ones.
func TestChaosTransportErrorsAreInjected(t *testing.T) {
	c, err := New(Options{LeaseSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	// Drop everything and never retry: every call must fail with an
	// injected error.
	cl := chaosClient(srv.URL, NewChaos(ChaosOptions{Seed: 5, Drop: 1}))
	cl.Retry.Attempts = 1
	_, _, acquireErr := cl.Acquire("w")
	_, specErr := cl.Spec(id)
	_, submitErr := cl.Submit(&config.Campaign{Runs: 4})
	for name, err := range map[string]error{
		"acquire":   acquireErr,
		"spec":      specErr,
		"complete":  cl.Complete("w", Lease{Campaign: id, End: 4}, &campaign.Shard{}),
		"heartbeat": cl.Heartbeat("w", nil, 0),
		"ping":      cl.Ping(),
		"submit":    submitErr,
	} {
		if !errors.Is(err, ErrInjected) {
			t.Errorf("%s error = %v, want ErrInjected", name, err)
		}
	}
	if fs := c.FleetStatus(); len(fs.Workers) != 0 || len(fs.Campaigns) != 1 {
		t.Fatalf("a dropped request reached the coordinator: %+v", fs)
	}
}

// closeRecorder is a request body that records whether it was closed.
type closeRecorder struct {
	io.Reader
	closed bool
}

func (b *closeRecorder) Close() error {
	b.closed = true
	return nil
}

// TestChaosTransportClosesBody holds the transport to the RoundTripper
// contract: a request the schedule never delivers still has its body
// closed, on the drop and on the injected-500 path alike.
func TestChaosTransportClosesBody(t *testing.T) {
	// The target is local, so a transport that wrongly delivers stays on
	// loopback.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	for name, opts := range map[string]ChaosOptions{
		"drop": {Drop: 1},
		"500":  {Inject500: 1},
	} {
		body := &closeRecorder{Reader: strings.NewReader(`{"worker":"w"}`)}
		req, err := http.NewRequest(http.MethodPost, srv.URL+pathAcquire, body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewChaos(opts).Transport(nil).RoundTrip(req)
		if res != nil {
			res.Body.Close()
		}
		if err == nil && res.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: request delivered: %d", name, res.StatusCode)
		}
		if !body.closed {
			t.Errorf("%s: request body left open", name)
		}
	}
}
