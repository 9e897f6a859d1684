package pal

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"air/internal/pos"
	"air/internal/tick"
)

// queueImpls enumerates both deadline queue implementations so every test
// runs against each — the list (paper's choice) and the tree (alternative).
func queueImpls() map[string]func() DeadlineQueue {
	return map[string]func() DeadlineQueue{
		"list": func() DeadlineQueue { return NewListQueue() },
		"tree": func() DeadlineQueue { return NewTreeQueue() },
	}
}

func TestQueueBasicOrdering(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if _, ok := q.Earliest(); ok {
				t.Fatal("empty queue has earliest")
			}
			q.Register(Entry{PID: 1, Name: "a", Deadline: 300})
			q.Register(Entry{PID: 2, Name: "b", Deadline: 100})
			q.Register(Entry{PID: 3, Name: "c", Deadline: 200})
			if q.Len() != 3 {
				t.Fatalf("Len = %d", q.Len())
			}
			e, ok := q.Earliest()
			if !ok || e.PID != 2 {
				t.Fatalf("earliest = %v", e)
			}
			entries := q.Entries()
			if len(entries) != 3 || entries[0].PID != 2 || entries[1].PID != 3 || entries[2].PID != 1 {
				t.Fatalf("entries = %v", entries)
			}
			q.RemoveEarliest()
			e, _ = q.Earliest()
			if e.PID != 3 {
				t.Fatalf("after remove earliest = %v", e)
			}
		})
	}
}

func TestQueueUpdateMovesEntry(t *testing.T) {
	// Sect. 5.2: a replenish updates the deadline; the entry must move to
	// keep ascending order, not duplicate.
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Register(Entry{PID: 1, Name: "a", Deadline: 100})
			q.Register(Entry{PID: 2, Name: "b", Deadline: 200})
			q.Register(Entry{PID: 1, Name: "a", Deadline: 300}) // replenish
			if q.Len() != 2 {
				t.Fatalf("Len = %d, want 2 (update, not insert)", q.Len())
			}
			e, _ := q.Earliest()
			if e.PID != 2 {
				t.Fatalf("earliest = %v, want pid 2", e)
			}
			// Update moving earlier.
			q.Register(Entry{PID: 1, Name: "a", Deadline: 50})
			e, _ = q.Earliest()
			if e.PID != 1 || e.Deadline != 50 {
				t.Fatalf("earliest = %v, want pid 1 at 50", e)
			}
		})
	}
}

func TestQueueUnregister(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Register(Entry{PID: 1, Deadline: 100})
			q.Register(Entry{PID: 2, Deadline: 200})
			if !q.Unregister(1) {
				t.Fatal("Unregister(1) = false")
			}
			if q.Unregister(1) {
				t.Fatal("double Unregister(1) = true")
			}
			if q.Unregister(99) {
				t.Fatal("Unregister(unknown) = true")
			}
			if q.Len() != 1 {
				t.Fatalf("Len = %d", q.Len())
			}
			e, _ := q.Earliest()
			if e.PID != 2 {
				t.Fatalf("earliest = %v", e)
			}
		})
	}
}

func TestQueueEqualDeadlinesTiebreak(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Register(Entry{PID: 5, Deadline: 100})
			q.Register(Entry{PID: 2, Deadline: 100})
			q.Register(Entry{PID: 9, Deadline: 100})
			entries := q.Entries()
			want := []pos.ProcessID{2, 5, 9}
			for i, w := range want {
				if entries[i].PID != w {
					t.Fatalf("entries = %v, want pid order %v", entries, want)
				}
			}
		})
	}
}

func TestQueueRemoveEarliestEmpty(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.RemoveEarliest() // must not panic
			if q.Len() != 0 {
				t.Fatal("phantom entry")
			}
		})
	}
}

// TestQueueEquivalenceProperty drives both implementations with the same
// random operation sequence and requires identical observable behaviour —
// the tree is validated against the list as a reference model. A Clone step
// (the fork path) requires the copy to equal its source, and neither's
// later mutations to reach the other.
func TestQueueEquivalenceProperty(t *testing.T) {
	type op struct {
		Kind     uint8
		PID      uint8
		Deadline uint16
	}
	// frozen is a queue replaced by its clone, with the entries it held
	// when the sequence moved on to the clone.
	type frozen struct {
		q    DeadlineQueue
		want []Entry
	}
	prop := func(ops []op) bool {
		var list, avl DeadlineQueue = NewListQueue(), NewTreeQueue()
		var sources []frozen
		for _, o := range ops {
			pid := pos.ProcessID(o.PID%32 + 1)
			switch o.Kind % 4 {
			case 0:
				e := Entry{PID: pid, Deadline: tick.Ticks(o.Deadline)}
				list.Register(e)
				avl.Register(e)
			case 1:
				if list.Unregister(pid) != avl.Unregister(pid) {
					return false
				}
			case 2:
				list.RemoveEarliest()
				avl.RemoveEarliest()
			case 3:
				lc, ac := list.Clone(), avl.Clone()
				want := list.Entries()
				// Mutate the sources, then go on with the clones.
				for _, q := range []DeadlineQueue{list, avl} {
					q.Register(Entry{PID: pid, Deadline: tick.Ticks(o.Deadline)})
					q.RemoveEarliest()
					sources = append(sources, frozen{q, q.Entries()})
				}
				if !slices.Equal(lc.Entries(), want) || !slices.Equal(ac.Entries(), want) {
					return false
				}
				list, avl = lc, ac
			}
			if list.Len() != avl.Len() {
				return false
			}
			le, lok := list.Earliest()
			ae, aok := avl.Earliest()
			if lok != aok || le != ae {
				return false
			}
			les := list.Entries()
			if !slices.Equal(les, avl.Entries()) {
				return false
			}
			// Entries must be ascending.
			if !sort.SliceIsSorted(les, func(i, j int) bool { return less(les[i], les[j]) }) {
				return false
			}
			for _, f := range sources {
				if f.q.Len() != len(f.want) || !slices.Equal(f.q.Entries(), f.want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestListQueueUpdateAllocFree: updating a registered deadline (a
// replenish, a periodic wait) re-links the process's node, so the list
// allocates only for a process it does not hold.
func TestListQueueUpdateAllocFree(t *testing.T) {
	q := NewListQueue()
	for pid := pos.ProcessID(1); pid <= 8; pid++ {
		q.Register(Entry{PID: pid, Deadline: tick.Ticks(100 * pid)})
	}
	var d tick.Ticks
	allocs := testing.AllocsPerRun(100, func() {
		d = (d + 337) % 1000
		q.Register(Entry{PID: 3, Deadline: d})
	})
	if allocs != 0 {
		t.Errorf("Register of a registered pid: %v allocs, want 0", allocs)
	}
	if q.Len() != 8 {
		t.Errorf("Len = %d, want 8", q.Len())
	}
}

// TestTreeBalanceInvariant checks AVL height bounds under churn: height must
// stay O(log n) (≤ 1.44·log2(n+2)).
func TestTreeBalanceInvariant(t *testing.T) {
	q := NewTreeQueue()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		q.Register(Entry{
			PID:      pos.ProcessID(i + 1),
			Deadline: tick.Ticks(rng.Intn(10000)),
		})
	}
	// Remove half at random.
	for i := 0; i < 1000; i++ {
		q.Unregister(pos.ProcessID(rng.Intn(2000) + 1))
	}
	var checkHeights func(n *treeNode) int
	ok := true
	checkHeights = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		hl, hr := checkHeights(n.left), checkHeights(n.right)
		if hl-hr > 1 || hr-hl > 1 {
			ok = false
		}
		h := hl
		if hr > h {
			h = hr
		}
		return h + 1
	}
	checkHeights(q.root)
	if !ok {
		t.Fatal("AVL balance invariant violated")
	}
	// BST order invariant via Entries.
	entries := q.Entries()
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return less(entries[i], entries[j]) }) {
		t.Fatal("in-order traversal not sorted")
	}
	if len(entries) != q.Len() {
		t.Fatalf("Entries len %d != Len %d", len(entries), q.Len())
	}
}
