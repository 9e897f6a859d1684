package workload

import (
	"testing"

	"air/internal/core"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

func runSatellite(t *testing.T, opts Options, mtfs tick.Ticks) *core.Module {
	t.Helper()
	m, err := core.NewModule(Config(opts))
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.Run(mtfs * 1300); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// TestFaultClassSignals verifies each fault class produces health-monitoring
// events attributable to it, while the module survives.
func TestFaultClassSignals(t *testing.T) {
	for _, kind := range FaultKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := runSatellite(t, Options{Faults: []FaultSpec{{Kind: kind}}}, 6)
			if m.Halted() {
				t.Fatalf("module halted under %s", kind)
			}
			attributed := 0
			for _, e := range m.Health().Events() {
				if e.Code == hm.ErrMemoryViolation && kind == FaultMemoryViolation {
					attributed++
					continue
				}
				// The hang is detected by the liveness watchdog at partition
				// level: no process name is attached to the report.
				if e.Code == hm.ErrPartitionHang && kind == FaultPartitionHang {
					attributed++
					continue
				}
				if k, ok := FaultKindForProcess(e.Process); ok && k == kind {
					attributed++
				}
			}
			if attributed == 0 {
				t.Fatalf("no HM events attributable to %s; log: %v", kind, m.Health().Events())
			}
		})
	}
}

// TestOverrunMagnitudeCompletes: a bounded-magnitude overrun that fits its
// time capacity yields no misses; one exceeding it misses every MTF.
func TestOverrunMagnitude(t *testing.T) {
	fits := runSatellite(t, Options{Faults: []FaultSpec{
		{Kind: FaultDeadlineOverrun, Deadline: 220, Magnitude: 50},
	}}, 4)
	if n := len(fits.TraceKind(obs.KindDeadlineMiss)); n != 0 {
		t.Fatalf("magnitude 50 under deadline 220: %d unexpected misses", n)
	}
	over := runSatellite(t, Options{Faults: []FaultSpec{
		{Kind: FaultDeadlineOverrun, Deadline: 100, Magnitude: 500},
	}}, 4)
	if n := len(over.TraceKind(obs.KindDeadlineMiss)); n == 0 {
		t.Fatal("magnitude 500 over deadline 100: no misses")
	}
}

// TestMemoryViolationConfined: the out-of-partition write is confined to
// its partition (cold restarts), other partitions untouched.
func TestMemoryViolationConfined(t *testing.T) {
	m := runSatellite(t, Options{Faults: []FaultSpec{{Kind: FaultMemoryViolation}}}, 6)
	if n := m.Health().Count(hm.ErrMemoryViolation); n == 0 {
		t.Fatal("no MEMORY_VIOLATION events")
	}
	for _, p := range []model.PartitionName{"P1", "P3", "P4"} {
		if evs := m.Health().EventsFor(p); len(evs) != 0 {
			t.Fatalf("fault leaked outside P2: %s has %v", p, evs)
		}
	}
	p2, err := m.Partition("P2")
	if err != nil {
		t.Fatal(err)
	}
	if p2.StartCount() < 2 {
		t.Fatalf("expected P2 cold restarts, start count %d", p2.StartCount())
	}
}

// TestMultipleInstancesStableNames: repeated faults of one kind in the same
// partition get distinct, stable process names.
func TestMultipleInstancesStableNames(t *testing.T) {
	opts := Options{Faults: []FaultSpec{
		{Kind: FaultDeadlineOverrun, Deadline: 200},
		{Kind: FaultDeadlineOverrun, Deadline: 300},
	}}
	inj := newInjection(&opts)
	insts := inj.byPartition["P1"]
	if len(insts) != 2 {
		t.Fatalf("expected 2 instances, got %d", len(insts))
	}
	if insts[0].name != "faulty" || insts[1].name != "faulty_2" {
		t.Fatalf("unexpected names %q, %q", insts[0].name, insts[1].name)
	}
	m := runSatellite(t, opts, 4)
	names := map[string]bool{}
	for _, e := range m.TraceKind(obs.KindDeadlineMiss) {
		names[e.Process] = true
	}
	if !names["faulty"] || !names["faulty_2"] {
		t.Fatalf("expected misses from both instances, got %v", names)
	}
}

func TestParseFaultKind(t *testing.T) {
	for _, k := range FaultKinds() {
		got, err := ParseFaultKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round-trip %s: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseFaultKind("bit-flip"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestFaultKindForProcess(t *testing.T) {
	cases := map[string]FaultKind{
		"faulty":       FaultDeadlineOverrun,
		"faulty_2":     FaultDeadlineOverrun,
		"storm":        FaultModeSwitchStorm,
		"overload":     FaultSporadicOverload,
		"overload_srv": FaultSporadicOverload,
		"flood":        FaultIPCFlood,
		"memfault":     FaultMemoryViolation,
		"rstorm":       FaultRestartStorm,
		"rstorm_2":     FaultRestartStorm,
		"hang":         FaultPartitionHang,
	}
	for name, want := range cases {
		got, ok := FaultKindForProcess(name)
		if !ok || got != want {
			t.Fatalf("%s: got %v/%v, want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"aocs_control", "obdh_housekeeping", ""} {
		if _, ok := FaultKindForProcess(name); ok {
			t.Fatalf("%q wrongly attributed to an injector", name)
		}
	}
}

func TestFaultSpecValidate(t *testing.T) {
	if err := (FaultSpec{Kind: FaultIPCFlood}).Validate(); err != nil {
		t.Fatalf("default flood spec invalid: %v", err)
	}
	if err := (FaultSpec{Kind: FaultKind(99)}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := (FaultSpec{Kind: FaultIPCFlood, Partition: "P9"}).Validate(); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if err := (FaultSpec{Kind: FaultIPCFlood, Phase: -1}).Validate(); err == nil {
		t.Fatal("negative parameter accepted")
	}
	if err := ValidateFaults([]FaultSpec{{Kind: FaultIPCFlood}, {Kind: FaultKind(99)}}); err == nil {
		t.Fatal("invalid list accepted")
	}
}
