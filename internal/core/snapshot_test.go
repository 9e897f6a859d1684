package core

import (
	"errors"
	"strings"
	"testing"

	"air/internal/mmu"
	"air/internal/model"
)

// TestSnapshotBodyForms pins which registered body forms Snapshot accepts:
// forkable and model-only bodies fork, a closure body does not, and a
// warm-start re-registration decides by the body registered last.
func TestSnapshotBodyForms(t *testing.T) {
	spec := periodicTask("w", 100, 3)
	closure := func(sv *Services) {
		sv.CreateProcess(spec, func(sv *Services) {
			for {
				sv.Compute(10)
				sv.PeriodicWait()
			}
		})
	}
	modelOnly := func(sv *Services) { sv.CreateProcess(spec, nil) }
	forkable := func(sv *Services) {
		sv.CreateForkableProcess(spec, ForkableBody{
			New:   func() any { return new(int) },
			Clone: func(state any) any { n := *state.(*int); return &n },
			Run: func(sv *Services, state any) {
				for {
					sv.Compute(10)
					*state.(*int)++
					sv.PeriodicWait()
				}
			},
		})
	}

	cases := []struct {
		name string
		// register runs on the first start; reregister, when set, on a warm
		// restart after the first frame.
		register, reregister func(sv *Services)
		wantErr              string
	}{
		{"closure body", closure, nil, "opaque closure body"},
		{"model-only nil body", modelOnly, nil, ""},
		{"warm start forkable to closure", forkable, closure, "opaque closure body"},
		{"warm start closure to forkable", closure, forkable, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := startModule(t, Config{
				System: twoPartitionSystem(),
				Partitions: []PartitionConfig{
					{Name: "A", Init: func(sv *Services) {
						if sv.GetPartitionStatus().StartCount > 1 {
							tc.reregister(sv)
						} else {
							tc.register(sv)
						}
						sv.StartProcess("w")
						sv.SetPartitionMode(model.ModeNormal)
					}},
					{Name: "B", Init: normalInit(nil)},
				},
			})
			// w computes in A's window and parks in PeriodicWait by tick 99.
			if err := m.Run(99); err != nil {
				t.Fatal(err)
			}
			if tc.reregister != nil {
				pt, _ := m.Partition("A")
				pt.restart(model.ModeWarmStart)
				if err := m.Run(50); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := m.Snapshot()
			if tc.wantErr != "" {
				if !errors.Is(err, ErrNotForkable) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Snapshot error = %v, want ErrNotForkable with %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			fork, err := snap.Fork()
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			defer fork.Shutdown()
			if err := fork.Run(200); err != nil {
				t.Fatalf("fork run: %v", err)
			}
		})
	}
}

// TestForkMemoryIsolation: forks share simulated RAM copy-on-write, so a
// write into one fork reaches neither the parent nor a sibling fork taken
// from the same snapshot.
func TestForkMemoryIsolation(t *testing.T) {
	m := startModule(t, Config{
		System: twoPartitionSystem(),
		Partitions: []PartitionConfig{
			{Name: "A", Init: normalInit(nil)},
			{Name: "B", Init: normalInit(nil)},
		},
	})
	const va = mmu.VirtAddr(0x0010_0000) // the default data section
	if err := m.Memory().WriteIn("A", va, []byte("parent"), mmu.PrivPOS); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forks := make([]*Module, 2)
	for i := range forks {
		if forks[i], err = snap.Fork(); err != nil {
			t.Fatal(err)
		}
		defer forks[i].Shutdown()
	}
	if err := forks[0].Memory().WriteIn("A", va, []byte("fork-0"), mmu.PrivPOS); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mod  *Module
		want string
	}{
		{"writer", forks[0], "fork-0"},
		{"parent", m, "parent"},
		{"sibling", forks[1], "parent"},
	} {
		buf := make([]byte, 6)
		if err := tc.mod.Memory().ReadIn("A", va, buf, mmu.PrivPOS); err != nil {
			t.Fatal(err)
		}
		if string(buf) != tc.want {
			t.Errorf("%s reads %q, want %q", tc.name, buf, tc.want)
		}
	}
}
