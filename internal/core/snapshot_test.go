package core

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"air/internal/iodev"
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

// TestStaticSpatialSeparation checks the page tables a module shares with
// its forks, on the Fig. 8 module after Start and on a fork of it: every
// page of each partition's descriptors translates to a frame no other page
// maps, and app and POS reads, writes and executes succeed exactly where
// the descriptor allows. After the fork neither side can map RAM or a
// device, and every translation stays as it was.
func TestStaticSpatialSeparation(t *testing.T) {
	cfg := Config{System: model.Fig8System()}
	for _, p := range cfg.System.Partitions {
		cfg.Partitions = append(cfg.Partitions, PartitionConfig{Name: p, Init: normalInit(nil)})
	}
	// P4's app and POS permissions differ, so the check tells the levels
	// apart.
	cfg.Partitions[3].Descriptors = []mmu.Descriptor{
		{Section: mmu.SectionCode, Base: 0x0000_0000, Size: 4 * mmu.PageSize,
			AppPerms: mmu.Execute, POSPerms: mmu.Read | mmu.Execute},
		{Section: mmu.SectionData, Base: 0x0010_0000, Size: 4 * mmu.PageSize,
			AppPerms: mmu.Read, POSPerms: mmu.Read | mmu.Write},
		{Section: mmu.SectionData, Base: 0x0018_0000, Size: 2 * mmu.PageSize,
			POSPerms: mmu.Read | mmu.Write},
		{Section: mmu.SectionStack, Base: 0x0020_0000, Size: 2 * mmu.PageSize,
			AppPerms: mmu.Read | mmu.Write, POSPerms: mmu.Read | mmu.Write},
	}
	m := startModule(t, cfg)
	want := separatedPages(t, m)
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	fork, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Shutdown()
	for _, side := range []struct {
		name string
		mod  *Module
	}{{"parent", m}, {"fork", fork}} {
		mem := side.mod.Memory()
		err := mem.MapSpace(mmu.SpaceSpec{Partition: "P1", Descriptors: []mmu.Descriptor{{
			Section: mmu.SectionData, Base: 0x0040_0000, Size: mmu.PageSize,
			AppPerms: mmu.Read, POSPerms: mmu.Read}}})
		if !errors.Is(err, mmu.ErrShared) {
			t.Errorf("%s: MapSpace = %v, want mmu.ErrShared", side.name, err)
		}
		err = mem.MapDevice("P1", 0x0050_0000, 64, mmu.Read, mmu.Read, iodev.NewUART())
		if !errors.Is(err, mmu.ErrShared) {
			t.Errorf("%s: MapDevice = %v, want mmu.ErrShared", side.name, err)
		}
		if got := separatedPages(t, side.mod); !maps.Equal(got, want) {
			t.Errorf("%s: translations changed: %d mapped pages, want the %d mapped after Start",
				side.name, len(got), len(want))
		}
	}
}

// separatedPages checks the static separation of m's page tables and
// returns every mapped page's PMK translation, keyed by partition and
// virtual page.
func separatedPages(t *testing.T, m *Module) map[string]mmu.PhysAddr {
	t.Helper()
	mem := m.Memory()
	pages := make(map[string]mmu.PhysAddr)
	owner := make(map[mmu.PhysAddr]string)
	for _, p := range m.sys.Partitions {
		for _, d := range mem.Descriptors(p) {
			for va := d.Base; va < d.End(); va += mmu.PageSize {
				page := fmt.Sprintf("%s@%#x", p, uint32(va))
				pa, err := mem.TranslateIn(p, va, mmu.Read, mmu.PrivPMK)
				if err != nil {
					t.Fatalf("%s: %v", page, err)
				}
				if prev, ok := owner[pa]; ok {
					t.Errorf("%s and %s both map frame %#x", prev, page, uint32(pa))
				}
				owner[pa], pages[page] = page, pa
				for _, lv := range []struct {
					priv  mmu.Privilege
					perms mmu.AccessMode
				}{{mmu.PrivApp, d.AppPerms}, {mmu.PrivPOS, d.POSPerms}} {
					for _, mode := range []mmu.AccessMode{mmu.Read, mmu.Write, mmu.Execute} {
						_, err := mem.TranslateIn(p, va, mode, lv.priv)
						if allowed := lv.perms&mode != 0; allowed != (err == nil) {
							t.Errorf("%s %s %s: %v, descriptor grants %s", page, lv.priv, mode, err, lv.perms)
						}
					}
				}
			}
		}
	}
	return pages
}
