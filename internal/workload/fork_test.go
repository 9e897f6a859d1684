package workload

import (
	"bytes"
	"reflect"
	"testing"

	"air/internal/core"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/tick"
)

const forkMTF = tick.Ticks(1300)

func newSatellite(t *testing.T, opts Options) *core.Module {
	t.Helper()
	m, err := core.NewModule(Config(opts))
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m
}

func traceJSONL(t *testing.T, m *core.Module) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestForkDeterminism is the snapshot/fork proof obligation: a module
// forked at a quiescent point ticks byte-identically to (a) its parent
// continuing and (b) a fresh module replayed from zero to the same tick.
func TestForkDeterminism(t *testing.T) {
	const prefixTicks = forkMTF - 1
	const suffixTicks = 2*forkMTF + 1

	parent := newSatellite(t, Options{})
	if err := parent.Run(prefixTicks); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fork, err := snap.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer fork.Shutdown()
	if fork.Now() != parent.Now() {
		t.Fatalf("fork clock %d != parent clock %d", fork.Now(), parent.Now())
	}
	if !bytes.Equal(traceJSONL(t, fork), traceJSONL(t, parent)) {
		t.Fatal("fork trace differs from parent trace at the snapshot point")
	}

	if err := parent.Run(suffixTicks); err != nil {
		t.Fatalf("parent suffix: %v", err)
	}
	if err := fork.Run(suffixTicks); err != nil {
		t.Fatalf("fork suffix: %v", err)
	}
	if !bytes.Equal(traceJSONL(t, fork), traceJSONL(t, parent)) {
		t.Fatal("fork trace diverged from parent after the snapshot point")
	}
	if !reflect.DeepEqual(fork.Metrics(), parent.Metrics()) {
		t.Fatal("fork metrics diverged from parent metrics")
	}

	fresh := newSatellite(t, Options{})
	if err := fresh.Run(prefixTicks + suffixTicks); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if !bytes.Equal(traceJSONL(t, fork), traceJSONL(t, fresh)) {
		t.Fatal("fork trace differs from a fresh module replayed to the same tick")
	}
	if !reflect.DeepEqual(fork.Metrics(), fresh.Metrics()) {
		t.Fatal("fork metrics differ from a fresh module replayed to the same tick")
	}
}

// TestForkIsolation proves fork independence in both directions: injecting
// faults into a fork and ticking it must leave the parent's trace, metrics
// and health log untouched, and the parent must remain forkable afterwards.
func TestForkIsolation(t *testing.T) {
	parent := newSatellite(t, Options{})
	if err := parent.Run(forkMTF - 1); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	beforeTrace := traceJSONL(t, parent)
	beforeMetrics := parent.Metrics()
	beforeHM := len(parent.Health().Events())

	fork, err := snap.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer fork.Shutdown()
	if err := InjectFaults(fork, Options{Faults: []FaultSpec{{Kind: FaultDeadlineOverrun}}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	if err := fork.Run(4 * forkMTF); err != nil {
		t.Fatalf("fork run: %v", err)
	}
	if snap := fork.Metrics(); snap.CountKind(obs.KindDeadlineMiss) == 0 {
		t.Fatal("injected overrun produced no deadline misses on the fork")
	}

	if got := traceJSONL(t, parent); !bytes.Equal(got, beforeTrace) {
		t.Fatal("fork mutation leaked into the parent trace")
	}
	if got := parent.Metrics(); !reflect.DeepEqual(got, beforeMetrics) {
		t.Fatal("fork mutation leaked into the parent metrics")
	}
	if got := len(parent.Health().Events()); got != beforeHM {
		t.Fatalf("fork mutation leaked into the parent health log: %d events, want %d", got, beforeHM)
	}

	// The parent is still live and forkable: a second, fault-free fork from
	// the same snapshot must not see the first fork's faults.
	clean, err := snap.Fork()
	if err != nil {
		t.Fatalf("second Fork: %v", err)
	}
	defer clean.Shutdown()
	if err := clean.Run(4 * forkMTF); err != nil {
		t.Fatalf("clean fork run: %v", err)
	}
	cleanSnap := clean.Metrics()
	if n := cleanSnap.CountKind(obs.KindDeadlineMiss); n != 0 {
		t.Fatalf("fault-free sibling fork saw %d deadline misses", n)
	}
}

// TestForkInjectedMatchesLateInjection pins the fork-mode semantics: a fork
// with faults injected at the snapshot point behaves identically to a
// from-zero module whose injectors are phase-delayed past the prefix —
// i.e. prefix sharing is exactly "the faults start after the prefix".
func TestForkInjectedMatchesLateInjection(t *testing.T) {
	const prefixMTFs = 2
	const totalMTFs = 6
	// DELAYED_START delays are relative to the START call's tick, so the
	// same first release needs two phases: the reference installs at tick 0
	// with the full delay, the fork installs at the snapshot tick
	// (prefix−1) with the remainder. Both park at the body entry until the
	// identical release tick.
	const release = prefixMTFs * forkMTF
	fault := FaultSpec{Kind: FaultDeadlineOverrun, Phase: release}

	parent := newSatellite(t, Options{})
	if err := parent.Run(prefixMTFs*forkMTF - 1); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	fork, err := parent.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer fork.Shutdown()
	forkFault := fault
	forkFault.Phase = release - fork.Now()
	if err := InjectFaults(fork, Options{Faults: []FaultSpec{forkFault}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	if err := fork.Run(totalMTFs*forkMTF - fork.Now()); err != nil {
		t.Fatalf("fork run: %v", err)
	}

	ref := newSatellite(t, Options{Faults: []FaultSpec{fault}})
	if err := ref.Run(totalMTFs * forkMTF); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	forkSnap, refSnap := fork.Metrics(), ref.Metrics()
	forkMisses := forkSnap.CountKind(obs.KindDeadlineMiss)
	refMisses := refSnap.CountKind(obs.KindDeadlineMiss)
	if forkMisses == 0 {
		t.Fatal("late-phase overrun produced no deadline misses")
	}
	if forkMisses != refMisses {
		t.Fatalf("fork saw %d deadline misses, late-injection reference saw %d", forkMisses, refMisses)
	}
	// The post-prefix suffix must agree event for event.
	refEvents := ref.Trace()
	forkEvents := fork.Trace()
	refSuffix := eventsAfter(refEvents, prefixMTFs*forkMTF-1)
	forkSuffix := eventsAfter(forkEvents, prefixMTFs*forkMTF-1)
	if !reflect.DeepEqual(refSuffix, forkSuffix) {
		t.Fatalf("post-prefix suffixes differ: fork %d events, reference %d events",
			len(forkSuffix), len(refSuffix))
	}
}

func eventsAfter(events []core.Event, after tick.Ticks) []core.Event {
	var out []core.Event
	for _, e := range events {
		if e.Time > after {
			out = append(out, e)
		}
	}
	return out
}

// TestSnapshotRejectsNonQuiescent pins the validation half of the fork
// contract: a module mid-frame (processes ready or running) must refuse to
// snapshot rather than fork silently-divergent copies.
func TestSnapshotRejectsNonQuiescent(t *testing.T) {
	m := newSatellite(t, Options{})
	// Tick 30 is inside P1's first window with aocs_control mid-computation.
	if err := m.Run(30); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted a mid-computation module")
	}

	// Unstarted modules are not forkable either.
	un, err := core.NewModule(Config(Options{}))
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	defer un.Shutdown()
	if _, err := un.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted an unstarted module")
	}
}

// TestForkWithRecoveryAndTimeline exercises the deep-copy breadth: a module
// with the recovery engine configured forks and continues under a restart
// storm without touching the parent's recovery state.
func TestForkWithRecoveryAndTimeline(t *testing.T) {
	pol := recovery.DefaultPolicy()
	parent := newSatellite(t, Options{Recovery: &pol})
	if err := parent.Run(forkMTF - 1); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	fork, err := parent.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer fork.Shutdown()
	if fork.Recovery() == nil {
		t.Fatal("fork lost the recovery engine")
	}
	if err := InjectFaults(fork, Options{Faults: []FaultSpec{{Kind: FaultRestartStorm}}}); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	if err := fork.Run(8 * forkMTF); err != nil {
		t.Fatalf("fork run: %v", err)
	}
	if snap := fork.Metrics(); snap.CountKind(obs.KindPartitionRestart) == 0 {
		t.Fatal("restart storm produced no partition restarts on the fork")
	}
	parentSnap := parent.Metrics()
	if n := parentSnap.CountKind(obs.KindPartitionRestart); n != 0 {
		t.Fatalf("parent saw %d partition restarts after fork-side storm", n)
	}
	if q := parent.Recovery().Quarantined(); len(q) != 0 {
		t.Fatalf("parent recovery state mutated: quarantined %v", q)
	}
}
