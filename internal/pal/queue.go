// Package pal implements the AIR POS Adaptation Layer (paper Sect. 2.2, 5):
// the per-partition component that wraps the partition operating system,
// keeps the process deadline information ordered by deadline time, and runs
// the surrogate clock tick announcement routine (Algorithm 3, Fig. 7) that
// detects and reports process deadline violations to Health Monitoring.
//
// Two deadline queue implementations are provided, turning the paper's
// Sect. 5.3 engineering discussion into an executable ablation:
//
//   - ListQueue — the paper's choice: a sorted doubly linked list. Earliest
//     retrieval and removal of a detected violation are O(1) (work done
//     inside the clock tick ISR); register/update is O(n) (work done in the
//     partition's own window).
//   - TreeQueue — the discussed alternative: a self-balancing (AVL) binary
//     search tree with O(log n) register/update but O(log n) earliest
//     retrieval.
package pal

import (
	"air/internal/pos"
	"air/internal/tick"
)

// Entry is one registered process deadline.
type Entry struct {
	PID      pos.ProcessID
	Name     string
	Deadline tick.Ticks
}

// DeadlineQueue keeps process deadlines in ascending deadline order, keyed by
// process. Registering an already-registered process updates (moves) its
// entry, per Sect. 5.2: "if necessary, this information will be moved to keep
// the deadlines sorted by ascending deadline time order".
type DeadlineQueue interface {
	// Register inserts or updates the deadline for e.PID.
	Register(e Entry)
	// Unregister removes the deadline for pid, reporting whether one was
	// registered.
	Unregister(pid pos.ProcessID) bool
	// Earliest returns the entry with the smallest deadline.
	Earliest() (Entry, bool)
	// RemoveEarliest removes the entry returned by Earliest.
	RemoveEarliest()
	// Len returns the number of registered deadlines.
	Len() int
	// Entries returns all entries in ascending deadline order.
	Entries() []Entry
	// Clone returns a deep copy of the queue (used by module snapshot/fork;
	// the copy and the original never share mutable state).
	Clone() DeadlineQueue
}

// listNode is a node of the sorted doubly linked list.
type listNode struct {
	entry      Entry
	prev, next *listNode
}

// ListQueue is the paper's production implementation: a sorted doubly linked
// list with a per-process index map. "Since we already have a pointer to the
// node to be removed, the complexity of the deadline removal from the linked
// list will effectively be O(1)" (Sect. 5.3). A process keeps its node while
// its deadline is registered, so updating a deadline does not allocate.
type ListQueue struct {
	head  *listNode
	index map[pos.ProcessID]*listNode
}

var _ DeadlineQueue = (*ListQueue)(nil)

// NewListQueue creates an empty list-backed deadline queue.
func NewListQueue() *ListQueue {
	return &ListQueue{index: make(map[pos.ProcessID]*listNode)}
}

// Register inserts or updates pid's deadline, keeping ascending order. An
// update (a replenish, a periodic wait) re-links the process's node.
func (q *ListQueue) Register(e Entry) {
	n, ok := q.index[e.PID]
	if ok {
		q.unlink(n)
		n.entry = e
	} else {
		n = &listNode{entry: e}
		q.index[e.PID] = n
	}
	// O(n) ordered insertion — performed in the partition's execution
	// window, not inside the clock tick ISR.
	var after *listNode
	for cur := q.head; cur != nil && less(cur.entry, e); cur = cur.next {
		after = cur
	}
	if after == nil { // new head
		n.next = q.head
		q.head = n
	} else {
		n.prev = after
		n.next = after.next
		after.next = n
	}
	if n.next != nil {
		n.next.prev = n
	}
}

// Unregister removes pid's deadline in O(1) given the index map.
func (q *ListQueue) Unregister(pid pos.ProcessID) bool {
	n, ok := q.index[pid]
	if !ok {
		return false
	}
	q.unlink(n)
	delete(q.index, pid)
	return true
}

// Earliest returns the head of the list — O(1), the property the paper
// requires for verification inside the system clock ISR.
//
//air:hotpath
func (q *ListQueue) Earliest() (Entry, bool) {
	if q.head == nil {
		return Entry{}, false
	}
	return q.head.entry, true
}

// RemoveEarliest unlinks the head in O(1).
//
//air:hotpath
func (q *ListQueue) RemoveEarliest() {
	if n := q.head; n != nil {
		q.unlink(n)
		delete(q.index, n.entry.PID)
	}
}

// Len returns the number of registered deadlines.
//
//air:hotpath
func (q *ListQueue) Len() int { return len(q.index) }

// Entries returns the registered deadlines in ascending order.
func (q *ListQueue) Entries() []Entry {
	out := make([]Entry, 0, len(q.index))
	for cur := q.head; cur != nil; cur = cur.next {
		out = append(out, cur.entry)
	}
	return out
}

// Clone deep-copies the list by re-inserting the (already sorted) entries.
func (q *ListQueue) Clone() DeadlineQueue {
	c := NewListQueue()
	for cur := q.head; cur != nil; cur = cur.next {
		c.Register(cur.entry)
	}
	return c
}

// unlink detaches n from the list; the index map keeps it.
//
//air:hotpath
func (q *ListQueue) unlink(n *listNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
}

// less orders entries by (deadline, pid); the pid tiebreak makes ordering
// total and deterministic.
//
//air:hotpath
func less(a, b Entry) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.PID < b.PID
}
