package mmu

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// cowBase is P1's data section in newMapped: four read-write pages.
const (
	cowBase  VirtAddr = 0x0001_0000
	cowBytes          = 4 * PageSize
)

// cowWorld runs writes and clones against MMUs and, beside each, a model
// of the bytes P1's data section must hold.
type cowWorld struct {
	mmus  map[string]*MMU
	model map[string][]byte
}

func (w *cowWorld) write(t *testing.T, name string, off int, data string) {
	t.Helper()
	if err := w.mmus[name].WriteIn("P1", cowBase+VirtAddr(off), []byte(data), PrivPMK); err != nil {
		t.Fatalf("%s write at +%d: %v", name, off, err)
	}
	copy(w.model[name][off:], data)
}

func (w *cowWorld) clone(from, to string) {
	w.mmus[to] = w.mmus[from].Clone()
	w.model[to] = bytes.Clone(w.model[from])
}

// check reads every MMU's whole section into a dirty buffer, so a
// never-written frame must actively read as zeros, and compares it with
// the model.
func (w *cowWorld) check(t *testing.T) {
	t.Helper()
	for name, m := range w.mmus {
		got := bytes.Repeat([]byte{0xA5}, cowBytes)
		if err := m.ReadIn("P1", cowBase, got, PrivPMK); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		want := w.model[name]
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: byte +%d (page %d) = %#x, want %#x",
					name, i, i/PageSize, got[i], want[i])
				break
			}
		}
	}
}

// TestCloneCopyOnWrite: clones share frames copy-on-write, so every write
// — in a clone, in a sibling clone, or in the source after Clone — stays
// in the MMU it was made in, and frames nobody wrote read as zeros.
func TestCloneCopyOnWrite(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, w *cowWorld)
	}{
		{"clone write invisible to source and sibling", func(t *testing.T, w *cowWorld) {
			w.write(t, "src", 0, "parent frame")
			w.clone("src", "a")
			w.clone("src", "b")
			w.write(t, "a", 0, "fork-a")
			w.write(t, "b", 7, "sibling")
			w.write(t, "a", 2, "again")
		}},
		{"source write after clone invisible to clone", func(t *testing.T, w *cowWorld) {
			w.write(t, "src", 0, "before clone")
			w.clone("src", "a")
			w.write(t, "src", 0, "after")
			w.write(t, "src", PageSize, "fresh page")
		}},
		{"never-written frames read zero on both sides", func(t *testing.T, w *cowWorld) {
			w.write(t, "src", 0, "page zero")
			w.clone("src", "a")
			w.write(t, "a", 2*PageSize+100, "page two")
			w.write(t, "src", 4, "src")
		}},
		{"write crossing a page boundary", func(t *testing.T, w *cowWorld) {
			w.write(t, "src", PageSize-5, "straddles two")
			w.clone("src", "a")
			w.write(t, "a", PageSize-3, "crossing!")
			w.clone("a", "b")
			w.write(t, "b", 2*PageSize-1, "xy")
			w.write(t, "src", PageSize-1, "zz")
		}},
		{"8 goroutines clone one source, each writes its own", func(t *testing.T, w *cowWorld) {
			w.write(t, "src", 0, "shared")
			w.write(t, "src", 3*PageSize-2, "tail")
			const n = 8
			clones := make([]*MMU, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range clones {
				wg.Add(1)
				go func() {
					defer wg.Done()
					clones[i] = w.mmus["src"].Clone()
					data := fmt.Sprintf("clone-%d", i)
					errs[i] = clones[i].WriteIn("P1", cowBase+VirtAddr(i), []byte(data), PrivPMK)
				}()
			}
			wg.Wait()
			for i, c := range clones {
				if errs[i] != nil {
					t.Fatalf("clone %d write: %v", i, errs[i])
				}
				name := fmt.Sprintf("c%d", i)
				w.mmus[name] = c
				w.model[name] = bytes.Clone(w.model["src"])
				copy(w.model[name][i:], fmt.Sprintf("clone-%d", i))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &cowWorld{
				mmus:  map[string]*MMU{"src": newMapped(t)},
				model: map[string][]byte{"src": make([]byte, cowBytes)},
			}
			tc.run(t, w)
			w.check(t)
		})
	}
}
