package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/config"
	"air/internal/durable"
	"air/internal/workload"
)

// fakeClock is an injectable wall clock for lease TTL / liveness tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// testSpec is a small, fast campaign whose results still exercise every
// aggregate column (the default mixed-fault matrix).
func testSpec(runs int) campaign.Spec {
	return campaign.Spec{Runs: runs, Seed: 99, MTFs: 3, Workers: 2}
}

func resultJSON(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	return data
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	c, err := New(Options{LeaseSize: 4, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases.Total != 3 || st.Leases.Pending != 3 {
		t.Fatalf("want 3 pending leases, got %+v", st.Leases)
	}

	// Leases issue in run order and exhaust into Wait.
	var leases []Lease
	for i := 0; i < 3; i++ {
		l, state, err := c.Acquire("w1")
		if err != nil || state != Granted {
			t.Fatalf("acquire %d: state=%v err=%v", i, state, err)
		}
		if l.Index != i || l.Start != i*4 {
			t.Fatalf("lease %d out of order: %+v", i, l)
		}
		leases = append(leases, l)
	}
	if _, state, _ := c.Acquire("w2"); state != Wait {
		t.Fatalf("want Wait while leases are in flight, got %v", state)
	}

	spec, err := c.Spec(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leases {
		sh, err := campaign.RunShard(spec, l.Start, l.End)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Complete("w1", l, sh); err != nil {
			t.Fatal(err)
		}
		// Idempotent: a second completion of the same lease is a no-op.
		if err := c.Complete("w1", l, sh); err != nil {
			t.Fatalf("duplicate completion: %v", err)
		}
	}
	if _, state, _ := c.Acquire("w2"); state != Drained {
		t.Fatalf("want Drained, got %v", state)
	}
	st, _ = c.Progress(id)
	if !st.Done || st.RunsDone != 10 || st.RunsMerged != 10 {
		t.Fatalf("campaign not fully merged: %+v", st)
	}

	// The merged result is byte-identical to the single-process run.
	want, err := campaign.Run(testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatal("fleet result differs from campaign.Run")
	}
}

func TestCompleteValidation(t *testing.T) {
	c, err := New(Options{LeaseSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := c.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("w1", Lease{Campaign: "nope", Index: 0}, &campaign.Shard{}); err == nil {
		t.Fatal("want error for unknown campaign")
	}
	if err := c.Complete("w1", Lease{Campaign: id, Index: 9}, &campaign.Shard{}); err == nil {
		t.Fatal("want error for unknown lease index")
	}
	if err := c.Complete("w1", l, &campaign.Shard{Start: 1, End: 3}); err == nil {
		t.Fatal("want error for bounds mismatch")
	}
}

func TestWorkStealingReclaim(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Options{LeaseSize: 8, LeaseTTL: time.Minute, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	// Shard "slow" takes the only lease and goes quiet.
	slow, state, err := c.Acquire("slow")
	if err != nil || state != Granted {
		t.Fatalf("acquire: %v %v", state, err)
	}
	if _, state, _ := c.Acquire("fast"); state != Wait {
		t.Fatalf("lease not expired yet, want Wait, got %v", state)
	}
	// Past the TTL the lease is reclaimed and reissued to the next asker.
	clk.Advance(2 * time.Minute)
	stolen, state, err := c.Acquire("fast")
	if err != nil || state != Granted {
		t.Fatalf("steal: %v %v", state, err)
	}
	if stolen != slow {
		t.Fatalf("stolen lease %+v differs from original %+v", stolen, slow)
	}

	// Both the thief and the original (slow, not dead) holder report the
	// lease; the first write wins, the duplicate is dropped, and the result
	// matches the single-process run.
	spec, _ := c.Spec(id)
	sh, err := campaign.RunShard(spec, slow.Start, slow.End)
	if err != nil {
		t.Fatal(err)
	}
	ship(stolen, sh)
	if err := c.Complete("fast", stolen, sh); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("slow", slow, sh); err != nil {
		t.Fatalf("late duplicate completion: %v", err)
	}
	got, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := campaign.Run(testSpec(8))
	// Observations are not retained here, so compare aggregates only.
	want.Observations = nil
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatal("result after steal differs from campaign.Run")
	}
}

func TestRunLocalMatchesRun(t *testing.T) {
	spec := testSpec(24)
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 7} {
		got, err := RunLocal(spec, LocalOptions{Shards: shards, LeaseSize: 5})
		if err != nil {
			t.Fatalf("RunLocal shards=%d: %v", shards, err)
		}
		if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
			t.Fatalf("RunLocal shards=%d differs from campaign.Run", shards)
		}
		if got.Timing == nil || got.Timing.Workers != shards {
			t.Fatalf("RunLocal shards=%d timing not populated: %+v", shards, got.Timing)
		}
	}
}

func TestRunLocalJournalResume(t *testing.T) {
	spec := testSpec(20)
	journal := filepath.Join(t.TempDir(), "fleet.journal")

	// Simulate a crashed run: a coordinator over the journal completes only
	// the first lease, then dies (Close without finishing).
	c, err := New(Options{LeaseSize: 4, JournalPath: journal, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec.Defaulted()); err != nil {
		t.Fatal(err)
	}
	if n, err := Work(c, WorkerOptions{ID: "doomed", MaxLeases: 1}); err != nil || n != 1 {
		t.Fatalf("doomed shard: n=%d err=%v", n, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The resumed run must re-execute only the 16 unfinished runs…
	var reran atomic.Int64
	resumeSpec := spec
	resumeSpec.OnObservation = func(campaign.Observation) { reran.Add(1) }
	got, err := RunLocal(resumeSpec, LocalOptions{Shards: 2, LeaseSize: 4, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if n := reran.Load(); n != 16 {
		t.Fatalf("resume re-ran %d runs, want 16 (one 4-run lease was journaled)", n)
	}
	// …and still produce the byte-identical full result.
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatal("resumed result differs from campaign.Run")
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fleet.journal")
	spec := testSpec(8)

	c, err := New(Options{LeaseSize: 8, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(spec.Defaulted())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// A kill mid-append leaves a torn, newline-less tail.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"complete","id":"` + id + `","lease":0,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Replay drops the torn tail: the lease is pending again and the
	// journal accepts new appends cleanly.
	c2, err := New(Options{LeaseSize: 8, JournalPath: journal})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	st, err := c2.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases.Pending != 1 || st.Leases.Done != 0 {
		t.Fatalf("torn completion must not count: %+v", st.Leases)
	}
	if n, err := Work(c2, WorkerOptions{ID: "w"}); err != nil || n != 1 {
		t.Fatalf("drain after torn tail: n=%d err=%v", n, err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// The repaired journal replays to a complete campaign.
	c3, err := New(Options{LeaseSize: 8, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if st, _ := c3.Progress(id); !st.Done {
		t.Fatalf("journal did not persist completion: %+v", st)
	}
}

// TestJournalCorruptRecordIsAnError flips one digit of a journaled spec's
// seed. The record stays valid JSON and passes replay validation, so only
// its frame's CRC tells it from the campaign that was submitted: New must
// refuse the journal rather than replay a different campaign.
func TestJournalCorruptRecordIsAnError(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fleet.journal")
	c, err := New(Options{LeaseSize: 4, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(testSpec(8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"Seed":99`))
	if i < 0 {
		t.Fatalf("journal does not carry the spec's seed: %q", data)
	}
	data[i+len(`"Seed":9`)] = '8'
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = New(Options{LeaseSize: 4, JournalPath: journal})
	if err == nil {
		c.Close()
		t.Fatal("New replayed a corrupt journal record")
	}
	if !errors.Is(err, durable.ErrCorrupt) || !strings.Contains(err.Error(), "byte offset 0:") {
		t.Fatalf("New = %v, want ErrCorrupt at byte offset 0", err)
	}
}

// FuzzJournalReplay hands New arbitrary bytes as its journal file: it must
// return a coordinator or an error, never panic.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fleet.journal")
	c, err := New(Options{LeaseSize: 2, JournalPath: path, KeepObservations: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.Submit(testSpec(4)); err != nil {
		f.Fatal(err)
	}
	if _, err := Work(c, WorkerOptions{ID: "w"}); err != nil {
		f.Fatal(err)
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)/2])
	f.Add([]byte(`{"op":"submit","id":"c1","spec":{"Runs":4,"Seed":99},"leaseSize":2}` + "\n"))
	f.Add([]byte("00000000 {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := New(Options{LeaseSize: 2, JournalPath: path, KeepObservations: true}); err == nil {
			c.Close()
		}
	})
}

// Hand-sized completions of the one-run lease c1/0, one per form: a real
// shard's aggregate runs to kilobytes, and the fuzzer spends its time
// minimizing inputs grown from a seed that large instead of executing new
// ones.
const (
	completeObservations = `{"worker":"w","lease":{"campaign":"c1","index":0,"retain":true},"shard":{"start":0,"end":1,"observations":[` +
		`{"run":0,"seed":1,"scenario":"overrun","faults":[{"kind":"deadline-overrun","partition":"P1"}],"ticks":1300,` +
		`"hmByLevel":{"PROCESS":1},"hmByFaultKind":{"deadline-overrun":1},"contained":true,` +
		`"metrics":{"events":9,"counts":{"DEADLINE_MISS":1},"detectionLatency":{"count":1,"sum":3,"max":3,"buckets":[0,0,1]}},` +
		`"timeline":{"ticks":1300,"partitions":[{"partition":"P1","windows":2,"suppliedTicks":200}]}}]}}`
	completeTwoObservations = `{"worker":"w","lease":{"campaign":"c1","index":0,"retain":true},` +
		`"shard":{"start":0,"end":1,"observations":[{"run":0},{"run":1}]}}`
	completeAggregate = `{"worker":"w","lease":{"campaign":"c1","index":0},"shard":{"start":0,"end":1,"aggregate":{` +
		`"runs":1,"ticks":1300,"hmByLevel":{"PROCESS":1},` +
		`"metrics":{"events":9,"counts":{"DEADLINE_MISS":1},"detectionLatency":{"count":1,"sum":3,"max":3,"buckets":[0,0,1]}},` +
		`"timeline":{"ticks":1300,"partitions":[{"partition":"P1","windows":2,"suppliedTicks":200}],` +
		`"response":{"count":1,"sum":5,"min":5,"max":5,"buckets":[0,0,0,1]}},` +
		`"byScenario":{"overrun":{"runs":1}},"byFaultKind":{"deadline-overrun":{"runs":1}}}}}`
)

// FuzzHandlerBodies sends one arbitrary body to each POST endpoint of
// Handler, over a fresh retaining and a fresh streaming coordinator, each
// holding one submitted campaign. Remote input must be answered with a 2xx
// or a 4xx, never a panic, and must leave the coordinator's read side
// working; a retaining coordinator folds the observations it is sent, so
// that fold runs on remote input too. ServeHTTP is driven directly, so a
// panic fails the run instead of being recovered by net/http.
func FuzzHandlerBodies(f *testing.F) {
	f.Add([]byte(completeAggregate))
	f.Add([]byte(`{"worker":"w","lease":{"campaign":"c1","index":0},` +
		`"shard":{"start":0,"end":1,"aggregate":{"byScenario":{"b":null}}}}`))
	f.Add([]byte(`{"name":"huge","runs":1099511627776,"scenarios":[{"name":"baseline"}]}`))
	f.Add([]byte(completeObservations))
	f.Add([]byte(completeTwoObservations))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, retain := range []bool{false, true} {
			c, err := New(Options{KeepObservations: retain})
			if err != nil {
				t.Fatal(err)
			}
			id, err := c.Submit(testSpec(1))
			if err != nil {
				t.Fatal(err)
			}
			h := Handler(c)
			for _, path := range []string{pathCampaigns, pathAcquire, pathComplete, pathHeartbeat} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code/100 != 2 && rec.Code/100 != 4 {
					t.Fatalf("POST %s (retain=%v) = %d: %s", path, retain, rec.Code, rec.Body)
				}
			}
			// Whatever the bodies left behind, the read side answers; an
			// incomplete campaign's Result is an error, not a panic.
			_, _ = c.Result(id)
			c.FleetStatus()
			c.Snapshot()
			c.Registry()
		}
	})
}

// TestJournalReplayRejectsInvalidRecords: replay applies the checks the live
// path applies — Submit's spec validation and Complete's completion check. A
// completion over [0,1) of the 2-run lease 0 would otherwise load, and the
// finished 4-run campaign would report 3 observations; a streamed record
// (aggregate only) would leave a retaining coordinator's result without its
// observations; a null class would panic a streaming coordinator's merge,
// and a run count above the bound would size the lease table from untrusted
// input.
func TestJournalReplayRejectsInvalidRecords(t *testing.T) {
	cases := []struct {
		name, want string
		stream     bool // replay on a streaming coordinator, not a retaining one
		rec        func(id string) journalRecord
	}{
		{"completion outside lease bounds", "bounds [0,1) mismatch lease [0,2)", false, func(id string) journalRecord {
			agg := campaign.NewAggregate()
			return journalRecord{Op: opComplete, ID: id, Lease: 0, Start: 0, End: 1,
				Aggregate: &agg, Observations: make([]campaign.Observation, 1)}
		}},
		{"invalid spec", "duplicate scenario name", false, func(string) journalRecord {
			spec := testSpec(4).Defaulted()
			spec.Matrix = []campaign.Scenario{{Name: "dup"}, {Name: "dup"}}
			return journalRecord{Op: opSubmit, ID: "c2", Spec: &spec, LeaseSize: 2}
		}},
		{"streamed record under retention", "carries 0 observations for 2 runs", false, func(id string) journalRecord {
			agg := campaign.NewAggregate()
			return journalRecord{Op: opComplete, ID: id, Lease: 0, Start: 0, End: 2, Aggregate: &agg}
		}},
		{"null class", `null class "b"`, true, func(id string) journalRecord {
			agg := campaign.NewAggregate()
			agg.ByScenario["b"] = nil
			return journalRecord{Op: opComplete, ID: id, Lease: 0, Start: 0, End: 2,
				Aggregate: &agg, Observations: make([]campaign.Observation, 2)}
		}},
		{"runs above the bound", "exceed the maximum", false, func(string) journalRecord {
			spec := testSpec(campaign.MaxRuns + 1).Defaulted()
			return journalRecord{Op: opSubmit, ID: "c2", Spec: &spec, LeaseSize: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.journal")
			opts := Options{LeaseSize: 2, JournalPath: path, KeepObservations: !tc.stream}
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			id, err := c.Submit(testSpec(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			j, _, err := openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(tc.rec(id)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			c, err = New(opts)
			if err == nil {
				c.Close()
				t.Fatal("New loaded a journal record the live path rejects")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestHTTPCompleteRejectsNullClass: a completion whose aggregate holds a
// null class, for a lease any client can read off GET /campaigns, is a 400
// before anything is journaled — the merge never sees it, the lease stays
// pending, and a coordinator restarted over the journal starts.
func TestHTTPCompleteRejectsNullClass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	opts := Options{LeaseSize: 2, JournalPath: path}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"worker":"w","lease":{"campaign":"` + id + `","index":0},` +
		`"shard":{"start":0,"end":2,"aggregate":{"byScenario":{"b":null}}}}`
	rec := httptest.NewRecorder()
	Handler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/complete", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /fleet/complete with a null class = %d, want 400", rec.Code)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the rejected completion reached the journal")
	}
	c, err = New(opts)
	if err != nil {
		t.Fatalf("New over the journal: %v", err)
	}
	defer c.Close()
	if st, err := c.Progress(id); err != nil || st.Leases.Done != 0 {
		t.Fatalf("Progress = %+v, %v; want lease 0 still pending", st, err)
	}
}

func TestHTTPFleetRoundTrip(t *testing.T) {
	doc := &config.Campaign{
		Name:       "http-test",
		Runs:       18,
		Seed:       5,
		MTFsPerRun: 3,
		Scenarios: []config.CampaignScenario{
			{Name: "baseline"},
			{Name: "overrun", Weight: 2, Faults: []config.CampaignFault{{Kind: "deadline-overrun"}}},
		},
	}

	c, err := New(Options{LeaseSize: 4, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	cl := &Client{Base: srv.URL}

	id, err := cl.Submit(doc)
	if err != nil {
		t.Fatal(err)
	}

	// Two worker shards drain the coordinator purely over HTTP.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids := []string{"shard-a", "shard-b"}
			_, errs[i] = Work(cl, WorkerOptions{ID: ids[i], Workers: 1, Poll: time.Millisecond})
		}(i)
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil {
			t.Fatal(werr)
		}
	}

	// Progress and result arrive over the API…
	st, err := c.Progress(id)
	if err != nil || !st.Done {
		t.Fatalf("campaign not done over HTTP: %+v err=%v", st, err)
	}
	res, err := cl.http().Get(srv.URL + "/campaigns/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var gotBuf bytes.Buffer
	if _, err := gotBuf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}

	// …and match the single-process run of the same document byte-for-byte.
	spec, err := campaign.FromConfig(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), resultJSON(t, want)) {
		t.Fatal("HTTP fleet result differs from campaign.Run")
	}

	// Fleet status shows both shards as live contributors.
	fs := c.FleetStatus()
	if len(fs.Workers) != 2 {
		t.Fatalf("want 2 workers in fleet status, got %+v", fs.Workers)
	}
	for name, w := range fs.Workers {
		if !w.Live || w.Leases == 0 {
			t.Fatalf("worker %s not live/credited: %+v", name, w)
		}
	}
}

// recoverySpec is a campaign under the built-in recovery policy whose
// aggregate has every recovery counter non-zero: baseline, restart-storm
// and partition-hang scenarios at their default parameters, 6 runs of 80
// MTFs.
func recoverySpec() campaign.Spec {
	pol := config.DefaultRecovery().Policy()
	return campaign.Spec{Runs: 6, Seed: 11, MTFs: 80, Workers: 2, Recovery: &pol, Matrix: []campaign.Scenario{
		{Name: "baseline"},
		{Name: "restart-storm", Faults: []campaign.FaultRange{{Kind: workload.FaultRestartStorm}}},
		{Name: "partition-hang", Faults: []campaign.FaultRange{{Kind: workload.FaultPartitionHang}}},
	}}
}

// TestCompletionCarriesOneForm drains a journaled coordinator over HTTP,
// once retaining observations and once streaming, and reads what crossed the
// wire and what reached the journal: a retained completion carries its
// observations and no aggregate, a streamed one its aggregate and no
// observations. The workers are configured identically; only the lease's
// terms differ. Both results, and those of a coordinator reopened over each
// journal, equal the single-process run's. The recovery campaign carries
// restart and recovery counters, which each level recomputes from its
// merged metrics, through decoding, the journal and replay.
func TestCompletionCarriesOneForm(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		spec   campaign.Spec
	}{{"", testSpec(6)}, {"recovery/", recoverySpec()}} {
		spec := tc.spec
		want, err := campaign.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Recovery != nil && (want.Aggregate.Quarantines == 0 || want.Aggregate.Recoveries == 0) {
			t.Fatalf("recovery campaign quarantined %d and recovered %d times; want both",
				want.Aggregate.Quarantines, want.Aggregate.Recoveries)
		}
		for _, retain := range []bool{true, false} {
			t.Run(fmt.Sprintf("%sretain=%v", tc.prefix, retain), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "fleet.journal")
				opts := Options{LeaseSize: 2, JournalPath: path, KeepObservations: retain}
				c, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				id, err := c.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var bodies [][]byte
				h := Handler(c)
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == pathComplete {
						body, err := io.ReadAll(r.Body)
						if err != nil {
							t.Error(err)
						}
						mu.Lock()
						bodies = append(bodies, body)
						mu.Unlock()
						r.Body = io.NopCloser(bytes.NewReader(body))
					}
					h.ServeHTTP(w, r)
				}))
				defer srv.Close()
				if n, err := Work(&Client{Base: srv.URL}, WorkerOptions{ID: "w", Workers: 1, Poll: time.Millisecond}); err != nil || n != 3 {
					t.Fatalf("drain: %d leases, err %v", n, err)
				}

				has, lacks := "observations", "aggregate"
				if !retain {
					has, lacks = lacks, has
				}
				if len(bodies) != 3 {
					t.Fatalf("%d completion bodies, want 3", len(bodies))
				}
				for i, body := range bodies {
					var req struct{ Shard map[string]json.RawMessage }
					if err := json.Unmarshal(body, &req); err != nil {
						t.Fatal(err)
					}
					if _, ok := req.Shard[has]; !ok {
						t.Fatalf("completion %d has no %q key", i, has)
					}
					if _, ok := req.Shard[lacks]; ok {
						t.Fatalf("completion %d carries %q beside %q", i, lacks, has)
					}
				}
				_, records, err := openJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				completions := 0
				for _, r := range records {
					if r.Op != opComplete {
						continue
					}
					completions++
					if retain != (len(r.Observations) == r.End-r.Start) || retain != (r.Aggregate == nil) {
						t.Fatalf("journaled lease %d: %d observations, aggregate %v; want one form (retain=%v)",
							r.Lease, len(r.Observations), r.Aggregate != nil, retain)
					}
				}
				if completions != 3 {
					t.Fatalf("%d journaled completions, want 3", completions)
				}

				ref := *want
				if !retain {
					ref.Observations = nil
				}
				got, err := c.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resultJSON(t, got), resultJSON(t, &ref)) {
					t.Fatal("result differs from campaign.Run")
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				reopened, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				got, err = reopened.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resultJSON(t, got), resultJSON(t, &ref)) {
					t.Fatal("result of the reopened coordinator differs from campaign.Run")
				}
			})
		}
	}
}

// TestReplayBothFormJournal replays a journal whose completion records
// carry both the observations and their aggregate, as journals written
// under retention before completions took one form do. A retaining and a
// streaming coordinator each read the form they take and reach the result
// of a fresh run.
func TestReplayBothFormJournal(t *testing.T) {
	spec := testSpec(6).Defaulted()
	path := filepath.Join(t.TempDir(), "fleet.journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord{Op: opSubmit, ID: "c1", Spec: &spec, LeaseSize: 2}); err != nil {
		t.Fatal(err)
	}
	for lease := 0; lease < 3; lease++ {
		sh, err := campaign.RunShard(spec, 2*lease, 2*lease+2)
		if err != nil {
			t.Fatal(err)
		}
		agg := campaign.Fold(sh.Observations)
		if err := j.Append(journalRecord{Op: opComplete, ID: "c1", Lease: lease, Start: sh.Start, End: sh.End,
			Aggregate: &agg, Observations: sh.Observations}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{true, false} {
		c, err := New(Options{LeaseSize: 2, JournalPath: path, KeepObservations: retain})
		if err != nil {
			t.Fatalf("retain=%v: %v", retain, err)
		}
		got, err := c.Result("c1")
		c.Close()
		if err != nil {
			t.Fatalf("retain=%v: %v", retain, err)
		}
		ref := *want
		if !retain {
			ref.Observations = nil
		}
		if !bytes.Equal(resultJSON(t, got), resultJSON(t, &ref)) {
			t.Fatalf("retain=%v: replayed result differs from a fresh run", retain)
		}
	}
}

// TestHTTPCompleteChecksRetainedForm posts hand-made completions of the
// one-run lease c1/0 to a retaining and a streaming coordinator: each
// accepts the form its retention reads and answers anything lacking it with
// a 400 before the merge sees it.
func TestHTTPCompleteChecksRetainedForm(t *testing.T) {
	cases := []struct {
		name   string
		retain bool
		body   string
		code   int
	}{
		{"retained observations", true, completeObservations, http.StatusNoContent},
		{"retained count mismatch", true, completeTwoObservations, http.StatusBadRequest},
		{"retained aggregate only", true, completeAggregate, http.StatusBadRequest},
		{"streamed aggregate", false, completeAggregate, http.StatusNoContent},
		{"streamed observations only", false, completeObservations, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Options{KeepObservations: tc.retain})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Submit(testSpec(1)); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			Handler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathComplete, strings.NewReader(tc.body)))
			if rec.Code != tc.code {
				t.Fatalf("POST %s = %d (%s), want %d", pathComplete, rec.Code, rec.Body, tc.code)
			}
			st, err := c.Progress("c1")
			if err != nil {
				t.Fatal(err)
			}
			if done := tc.code == http.StatusNoContent; st.Done != done {
				t.Fatalf("campaign done = %v after a %d", st.Done, rec.Code)
			}
		})
	}
}
