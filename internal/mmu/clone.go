package mmu

import "slices"

// Clone returns an independent copy of the MMU and its simulated physical
// memory for module snapshot/fork. It copies the frame table's pointers,
// not frame bytes: every frame is shared copy-on-write, and bumping the
// source's generation makes the frames the source had written shared for
// it too, so a later write on either side copies the frame first and
// never reaches the other or a sibling clone. The bump is Clone's only
// write to the source and is atomic, so concurrent Clones of one source
// are safe as long as nothing writes the source meanwhile.
//
// The partition contexts (page tables, descriptors and device ranges) are
// fixed at integration and shared read-only: the clone takes the source's
// contexts map as it is, and from then on MapSpace and MapDevice return
// ErrShared on either side. Each clone keeps to itself only its frame table,
// its current context and its TLB, whose entries and statistics are
// value-copied so a fork's hit/miss profile replays exactly. Shared device
// ranges reach the parent's Device implementations, whose state the MMU
// cannot copy, so callers that need fork isolation must not map devices
// (the core snapshot layer rejects them).
func (m *MMU) Clone() *MMU {
	c := &MMU{
		size:     m.size,
		contexts: m.contexts,
		current:  m.current,
		hasCtx:   m.hasCtx,
		tlb:      m.tlb,
		tlbStats: m.tlbStats,
	}
	// Every entry's gen is below the bumped value, so all frames are
	// shared on both sides.
	c.gen.Store(m.gen.Add(1))
	c.frames = slices.Clone(m.frames)
	return c
}
