package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/fleet"
)

// The multi-process tests re-exec this test binary as real worker
// processes (TestHelperWorkerProcess below), so the acceptance property —
// a campaign sharded across ≥ 2 worker processes merges byte-identically
// to the single-process run — is exercised across genuine process
// boundaries, over the daemon's real HTTP surface.

const (
	helperJoinEnv = "AIRCAMPAIGND_HELPER_JOIN"
	helperIDEnv   = "AIRCAMPAIGND_HELPER_ID"
	helperModeEnv = "AIRCAMPAIGND_HELPER_MODE"
)

// TestHelperWorkerProcess is not a test: it is the body of the re-exec'd
// worker processes. Without the helper environment it skips immediately.
func TestHelperWorkerProcess(t *testing.T) {
	base := os.Getenv(helperJoinEnv)
	if base == "" {
		t.Skip("helper process body; spawned by the multi-process fleet tests")
	}
	id := os.Getenv(helperIDEnv)
	switch os.Getenv(helperModeEnv) {
	case "die-mid-lease":
		// Complete exactly one lease, acquire a second and die holding it —
		// the shard-crash the lease TTL exists for.
		cl := &fleet.Client{Base: base}
		if n, err := fleet.Work(cl, fleet.WorkerOptions{ID: id, Workers: 1, Poll: time.Millisecond, MaxLeases: 1}); err != nil || n != 1 {
			t.Fatalf("first lease: n=%d err=%v", n, err)
		}
		if _, state, err := cl.Acquire(id); err != nil || state != fleet.Granted {
			t.Fatalf("second lease: state=%v err=%v", state, err)
		}
		os.Exit(0)
	case "linger":
		// A lingering worker: drains, keeps polling, and exits 0 only on the
		// SIGTERM graceful-drain path the parent test exercises.
		if err := run([]string{"-join", base, "-id", id, "-poll", "1ms", "-linger"}, os.Stdout); err != nil {
			t.Fatalf("linger worker %s: %v", id, err)
		}
	case "chaos":
		// A worker whose transport runs under a dense deterministic fault
		// schedule: drops, injected 500s, duplicated deliveries, latency.
		args := []string{
			"-join", base, "-id", id, "-poll", "1ms",
			"-timeout", "2s", "-retries", "8",
			"-chaos-seed", "7", "-chaos-drop", "0.08", "-chaos-500", "0.08",
			"-chaos-dup", "0.08", "-chaos-latency", "0.25", "-chaos-latency-span", "2ms",
		}
		if err := run(args, os.Stdout); err != nil {
			t.Fatalf("chaos worker %s: %v", id, err)
		}
	default:
		var sb strings.Builder
		if err := run([]string{"-join", base, "-id", id, "-poll", "1ms"}, &sb); err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
	}
}

// spawnWorker re-execs the test binary as one worker process.
func spawnWorker(t *testing.T, base, id, mode string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperWorkerProcess$")
	cmd.Env = append(os.Environ(),
		helperJoinEnv+"="+base,
		helperIDEnv+"="+id,
		helperModeEnv+"="+mode,
	)
	return cmd
}

// TestTwoWorkerProcessesMatchSingleProcess is the acceptance test: two
// worker processes drain a sharded campaign over HTTP and the merged
// aggregate is byte-identical to campaign.Run in this process.
func TestTwoWorkerProcessesMatchSingleProcess(t *testing.T) {
	doc := testDoc()
	doc.Runs = 12
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		cl := &fleet.Client{Base: base}
		id, err := cl.Submit(doc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}

		w1 := spawnWorker(t, base, "proc-1", "")
		w2 := spawnWorker(t, base, "proc-2", "")
		outs := make([]bytes.Buffer, 2)
		for i, w := range []*exec.Cmd{w1, w2} {
			w.Stdout, w.Stderr = &outs[i], &outs[i]
			if err := w.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range []*exec.Cmd{w1, w2} {
			if err := w.Wait(); err != nil {
				t.Fatalf("worker process %d: %v\n%s", i+1, err, outs[i].String())
			}
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
		want.Observations = nil
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Error("two-process fleet result differs from single-process campaign.Run")
		}

		var st fleet.Status
		getJSON(t, base+"/campaigns/"+id, &st)
		if !st.Done || st.Leases.Done != 6 {
			t.Fatalf("want 6 completed leases, got %+v", st)
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerProcessFollowsRetention: a worker process started with no flag
// about observations drains a -keep-observations coordinator, because each
// lease tells it to ship observations. /result then carries them and is
// byte-identical to the file aircampaign -matrix writes for the same
// document (fleet.RunLocal, itself byte-identical to campaign.Run).
func TestWorkerProcessFollowsRetention(t *testing.T) {
	doc := testDoc()
	doc.Runs = 8
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		id, err := (&fleet.Client{Base: base}).Submit(doc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if out, err := spawnWorker(t, base, "plain", "").CombinedOutput(); err != nil {
			t.Fatalf("worker process: %v\n%s", err, out)
		}
		got := get(t, base+"/campaigns/"+id+"/result")
		spec, err := campaign.FromConfig(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fleet.RunLocal(spec, fleet.LocalOptions{Shards: spec.Workers})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Error("retained fleet result differs from aircampaign -matrix's")
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2", "-keep-observations"}, &sb); err != nil {
		t.Fatal(err)
	}
}

// TestKilledShardResumesOnlyUnfinishedSeeds kills a worker process while it
// holds a lease. The surviving shard must re-run only the abandoned lease's
// seeds — the dead shard's completed lease stays completed — and the final
// result still matches the uninterrupted single-process run.
func TestKilledShardResumesOnlyUnfinishedSeeds(t *testing.T) {
	doc := testDoc()
	doc.Runs = 8 // 4 leases of 2 runs
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		cl := &fleet.Client{Base: base}
		id, err := cl.Submit(doc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}

		// The doomed process completes lease 0, acquires lease 1, dies.
		if out, err := spawnWorker(t, base, "doomed", "die-mid-lease").Output(); err != nil {
			t.Fatalf("doomed worker: %v\n%s", err, out)
		}
		var st fleet.Status
		getJSON(t, base+"/campaigns/"+id, &st)
		if st.Leases.Done != 1 || st.Leases.Issued != 1 {
			t.Fatalf("after shard death want 1 done + 1 abandoned lease, got %+v", st.Leases)
		}

		// The survivor drains the rest. Exactly 3 leases remain: the dead
		// shard's completed lease is NOT re-run; its abandoned one is
		// reclaimed once the 50ms TTL lapses.
		n, err := fleet.Work(cl, fleet.WorkerOptions{ID: "survivor", Workers: 1, Poll: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("survivor completed %d leases, want 3 (one 2-run lease was already done)", n)
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
		want.Observations = nil
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Error("post-crash fleet result differs from uninterrupted campaign.Run")
		}
	}
	defer func() { serveHook = nil }()

	var sb strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2", "-lease-ttl", "50ms"}, &sb); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorRestartResumesFromJournal kills the coordinator (first
// daemon invocation ends mid-campaign) and restarts it over the same
// journal: only the unfinished leases are re-issued, and the final result
// matches the uninterrupted single-process run.
func TestCoordinatorRestartResumesFromJournal(t *testing.T) {
	doc := testDoc()
	doc.Runs = 8 // 4 leases of 2 runs
	journal := filepath.Join(t.TempDir(), "fleet.journal")
	var id string

	// First daemon life: accept the campaign, complete exactly one lease,
	// then die (run returns, closing the server and the journal).
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		cl := &fleet.Client{Base: base}
		var err error
		if id, err = cl.Submit(doc); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if n, err := fleet.Work(cl, fleet.WorkerOptions{ID: "w", Workers: 1, Poll: time.Millisecond, MaxLeases: 1}); err != nil || n != 1 {
			t.Fatalf("pre-crash lease: n=%d err=%v", n, err)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2", "-journal", journal}, &sb); err != nil {
		t.Fatal(err)
	}

	// Second life: the journal brings the campaign back with 3 leases
	// pending — the completed one is never re-run.
	serveHook = func(kind, addr string) {
		base := "http://" + addr
		cl := &fleet.Client{Base: base}
		var st fleet.Status
		getJSON(t, base+"/campaigns/"+id, &st)
		if st.Leases.Done != 1 || st.Leases.Pending != 3 {
			t.Fatalf("restart state: want 1 done + 3 pending, got %+v", st.Leases)
		}
		n, err := fleet.Work(cl, fleet.WorkerOptions{ID: "w2", Workers: 1, Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("restart re-ran %d leases, want 3", n)
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
		want.Observations = nil
		wantJSON, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Error("journal-resumed result differs from uninterrupted campaign.Run")
		}
	}
	defer func() { serveHook = nil }()
	sb.Reset()
	if err := run([]string{"-addr", "127.0.0.1:0", "-lease", "2", "-journal", journal}, &sb); err != nil {
		t.Fatal(err)
	}
}
