package fleet

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/obs"
)

// quarantineCoordinator builds a coordinator under a fake clock with a
// tight flap detector: TTL 1m, quarantine after 2 expiries, 30s cooldown.
func quarantineCoordinator(t *testing.T) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	c, err := New(Options{
		LeaseSize:          4,
		LeaseTTL:           time.Minute,
		QuarantineAfter:    2,
		QuarantineWindow:   10 * time.Minute,
		QuarantineCooldown: 30 * time.Second,
		Clock:              clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, clk
}

// finish runs and completes one granted lease on the worker's behalf.
func finish(t *testing.T, svc Service, worker string, l Lease) {
	t.Helper()
	spec, err := svc.Spec(l.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := campaign.RunShard(spec, l.Start, l.End)
	if err != nil {
		t.Fatal(err)
	}
	ship(l, sh)
	if err := svc.Complete(worker, l, sh); err != nil {
		t.Fatalf("%s complete %s/%d: %v", worker, l.Campaign, l.Index, err)
	}
}

// drainAs completes every lease the worker can acquire right now.
func drainAs(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for {
		l, state, err := c.Acquire(worker)
		if err != nil {
			t.Fatal(err)
		}
		if state != Granted {
			return
		}
		finish(t, c, worker, l)
	}
}

func workerStatus(t *testing.T, c *Coordinator, worker string) WorkerStatus {
	t.Helper()
	ws, ok := c.FleetStatus().Workers[worker]
	if !ok {
		t.Fatalf("worker %s missing from fleet status", worker)
	}
	return ws
}

// expireOnto advances past the TTL and has the reaper steal-and-complete
// the flapper's expired lease, charging one flap.
func expireOnto(t *testing.T, c *Coordinator, clk *fakeClock) {
	t.Helper()
	clk.Advance(2 * time.Minute)
	drainAs(t, c, "reaper")
}

func TestQuarantineFlapThenProbeReadmits(t *testing.T) {
	c, clk := quarantineCoordinator(t)
	if _, err := c.Submit(testSpec(16)); err != nil {
		t.Fatal(err)
	}

	// Flap 1: flappy takes a lease and goes quiet; the reaper drains the
	// rest, then steals the expired lease.
	l, state, err := c.Acquire("flappy")
	if err != nil || state != Granted {
		t.Fatalf("acquire: %v %v", state, err)
	}
	_ = l
	drainAs(t, c, "reaper")
	expireOnto(t, c, clk)
	if ws := workerStatus(t, c, "flappy"); ws.Expiries != 1 || ws.Quarantined {
		t.Fatalf("after flap 1: %+v", ws)
	}

	// Flap 2 trips the detector.
	if _, err := c.Submit(testSpec(8)); err != nil {
		t.Fatal(err)
	}
	if _, state, _ := c.Acquire("flappy"); state != Granted {
		t.Fatalf("one flap must not quarantine, got %v", state)
	}
	drainAs(t, c, "reaper")
	expireOnto(t, c, clk)
	ws := workerStatus(t, c, "flappy")
	if !ws.Quarantined || ws.Probing {
		t.Fatalf("after flap 2 want quarantined: %+v", ws)
	}

	// Quarantined: denied leases while work is pending.
	if _, err := c.Submit(testSpec(4)); err != nil {
		t.Fatal(err)
	}
	if _, state, _ := c.Acquire("flappy"); state != Wait {
		t.Fatalf("quarantined shard got %v, want Wait", state)
	}

	// The quarantine is visible on /metrics.
	var sb strings.Builder
	if err := WritePrometheus(&sb, c.FleetStatus()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"air_fleet_quarantined_workers 1",
		`air_fleet_worker_quarantined{worker="flappy"} 1`,
		`air_fleet_worker_quarantined{worker="reaper"} 0`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, sb.String())
		}
	}

	// Cooldown not lapsed: still denied.
	clk.Advance(29 * time.Second)
	if _, state, _ := c.Acquire("flappy"); state != Wait {
		t.Fatalf("mid-cooldown shard got %v, want Wait", state)
	}
	// Cooldown lapsed: exactly one half-open probe lease. It is acquired
	// and completed over HTTP, so the probe match holds for a lease echoed
	// back through the JSON bodies, terms included: a heartbeat every
	// quarter of the 15s liveness window, shorter than the 1m TTL.
	clk.Advance(2 * time.Second)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	probe, state, err := cl.Acquire("flappy")
	if err != nil || state != Granted {
		t.Fatalf("probe acquire: %v %v", state, err)
	}
	if probe.Retain || probe.RenewEvery != 3750*time.Millisecond {
		t.Fatalf("probe lease terms: %+v", probe)
	}
	if ws := workerStatus(t, c, "flappy"); !ws.Probing || !ws.Quarantined {
		t.Fatalf("during probe: %+v", ws)
	}
	// While the probe is out, no second lease.
	if _, state, _ := c.Acquire("flappy"); state != Wait {
		t.Fatalf("second lease during probe: got %v, want Wait", state)
	}

	// Completing the probe re-admits with a clean flap account.
	finish(t, cl, "flappy", probe)
	ws = workerStatus(t, c, "flappy")
	if ws.Quarantined || ws.Probing || ws.Expiries != 0 {
		t.Fatalf("after probe completion: %+v", ws)
	}
}

func TestQuarantineProbeExpiryDoublesCooldown(t *testing.T) {
	c, clk := quarantineCoordinator(t)
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(testSpec(8)); err != nil {
			t.Fatal(err)
		}
		if _, state, _ := c.Acquire("flappy"); state != Granted {
			t.Fatal("flappy denied pre-quarantine")
		}
		drainAs(t, c, "reaper")
		expireOnto(t, c, clk)
	}
	if ws := workerStatus(t, c, "flappy"); !ws.Quarantined {
		t.Fatalf("not quarantined after 2 flaps: %+v", ws)
	}

	// Probe after the 30s cooldown… and expire it too.
	if _, err := c.Submit(testSpec(4)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	if _, state, _ := c.Acquire("flappy"); state != Granted {
		t.Fatal("probe denied after cooldown")
	}
	expireOnto(t, c, clk) // probe expires → cooldown doubles to 60s

	// 45s into the doubled cooldown: still quarantined.
	if _, err := c.Submit(testSpec(4)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(45 * time.Second)
	if _, state, _ := c.Acquire("flappy"); state != Wait {
		t.Fatal("60s cooldown not enforced after failed probe")
	}
	// Past 60s: a fresh probe, and this one lands.
	clk.Advance(20 * time.Second)
	probe, state, err := c.Acquire("flappy")
	if err != nil || state != Granted {
		t.Fatalf("second probe: %v %v", state, err)
	}
	finish(t, c, "flappy", probe)
	if ws := workerStatus(t, c, "flappy"); ws.Quarantined {
		t.Fatalf("not readmitted after successful second probe: %+v", ws)
	}
}

func TestQuarantineDisabled(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Options{
		LeaseSize:       4,
		LeaseTTL:        time.Minute,
		QuarantineAfter: -1,
		Clock:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(testSpec(4)); err != nil {
			t.Fatal(err)
		}
		if _, state, _ := c.Acquire("flappy"); state != Granted {
			t.Fatalf("flap %d: flappy denied with the detector off", i)
		}
		expireOnto(t, c, clk)
	}
	if ws := workerStatus(t, c, "flappy"); ws.Quarantined || ws.Expiries != 0 {
		t.Fatalf("detector off but state accrued: %+v", ws)
	}
}

// TestHeartbeatRenewsLease is the live-but-slow case: a shard that keeps
// heartbeating its in-flight lease is never reclaimed, however far past the
// original TTL it runs — and is reclaimed promptly once it goes quiet. The
// last part drives the real Work loop on the wall clock: a worker with
// default options heartbeats at the interval its lease grants, so a lease
// running four TTLs is renewed while a second worker polls to steal it.
func TestHeartbeatRenewsLease(t *testing.T) {
	c, clk := quarantineCoordinator(t)
	if _, err := c.Submit(testSpec(8)); err != nil {
		t.Fatal(err)
	}
	l, state, err := c.Acquire("slow")
	if err != nil || state != Granted {
		t.Fatalf("acquire: %v %v", state, err)
	}
	drainAs(t, c, "fast")

	// Three TTLs of slow progress, each covered by a heartbeat renewal.
	for i := 0; i < 3; i++ {
		clk.Advance(45 * time.Second)
		if err := c.Heartbeat("slow", &l, int64(7+i)); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if _, state, _ := c.Acquire("fast"); state != Wait {
			t.Fatalf("heartbeating shard's lease reclaimed at renewal %d", i)
		}
	}
	ws := workerStatus(t, c, "slow")
	if ws.Retries != 9 {
		t.Fatalf("heartbeat retries not recorded: %+v", ws)
	}
	if ws.BeatAgeMillis != 0 {
		t.Fatalf("beat age %dms right after a heartbeat", ws.BeatAgeMillis)
	}

	// Silence: one TTL later the lease is reclaimed.
	clk.Advance(61 * time.Second)
	stolen, state, err := c.Acquire("fast")
	if err != nil || state != Granted {
		t.Fatalf("reclaim after silence: %v %v", state, err)
	}
	if stolen != l {
		t.Fatalf("reclaimed %+v, want the quiet shard's %+v", stolen, l)
	}

	const ttl = 150 * time.Millisecond
	live, err := New(Options{LeaseSize: 4, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// One 4-run lease on one simulation goroutine: four TTLs of sleep.
	spec := testSpec(4)
	spec.OnObservation = func(campaign.Observation) { time.Sleep(ttl) }
	id, err := live.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		n       int
		err     error
		elapsed time.Duration
	}
	slow := make(chan outcome, 1)
	go func() {
		start := time.Now()
		// Nothing about renewal is set here: the lease's terms set it.
		n, err := Work(live, WorkerOptions{ID: "slow", Workers: 1})
		slow <- outcome{n, err, time.Since(start)}
	}()
	for {
		if st, _ := live.Progress(id); st.Leases.Issued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stole, err := Work(live, WorkerOptions{ID: "thief", Poll: 5 * time.Millisecond})
	if err != nil || stole != 0 {
		t.Fatalf("thief: %d leases, err %v; want none", stole, err)
	}
	got := <-slow
	if got.err != nil || got.n != 1 {
		t.Fatalf("slow worker: %d leases, err %v", got.n, got.err)
	}
	if got.elapsed < 3*ttl {
		t.Fatalf("lease ran %v, under three TTLs: nothing to renew", got.elapsed)
	}
	if n := live.Registry().CountKind(obs.KindLeaseReclaimed); n != 0 {
		t.Fatalf("%d LEASE_RECLAIMED under a default-options worker", n)
	}
	if ws := workerStatus(t, live, "slow"); ws.Expiries != 0 {
		t.Fatalf("slow worker charged %d expiries", ws.Expiries)
	}
}

func TestHeartbeatValidation(t *testing.T) {
	c, _ := quarantineCoordinator(t)
	id, err := c.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	// A bare heartbeat (no lease) is pure liveness: it registers the shard.
	if err := c.Heartbeat("idle", nil, 3); err != nil {
		t.Fatal(err)
	}
	if ws := workerStatus(t, c, "idle"); ws.Retries != 3 {
		t.Fatalf("bare heartbeat lost retries: %+v", ws)
	}
	if err := c.Heartbeat("idle", &Lease{Campaign: "nope"}, 0); err == nil {
		t.Fatal("heartbeat for unknown campaign accepted")
	}
	if err := c.Heartbeat("idle", &Lease{Campaign: id, Index: 99}, 0); err == nil {
		t.Fatal("heartbeat for out-of-range lease accepted")
	}
	// Renewing a lease the shard does not hold is a silent no-op, not an
	// error — the stale holder learns the truth from its next Complete.
	l, state, err := c.Acquire("holder")
	if err != nil || state != Granted {
		t.Fatalf("acquire: %v %v", state, err)
	}
	if err := c.Heartbeat("idle", &l, 0); err != nil {
		t.Fatalf("stale-holder heartbeat: %v", err)
	}
}
