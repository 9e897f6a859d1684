package mmu

import (
	"slices"

	"air/internal/model"
)

// Clone returns an independent copy of the MMU and its simulated physical
// memory for module snapshot/fork. It copies the frame table's pointers,
// not frame bytes: every frame is shared copy-on-write, and bumping the
// source's generation makes the frames the source had written shared for
// it too, so a later write on either side copies the frame first and
// never reaches the other or a sibling clone. The bump is Clone's only
// write to the source and is atomic, so concurrent Clones of one source
// are safe as long as nothing writes the source meanwhile. Page tables
// are rebuilt node by node (all entries are plain values), and the TLB
// plus its statistics are value-copied so a fork's hit/miss profile
// replays exactly. Device ranges share the parent's Device
// implementations — device models carry external state the MMU cannot
// copy, so callers that need fork isolation must not map devices (the
// core snapshot layer rejects them).
func (m *MMU) Clone() *MMU {
	c := &MMU{
		size:     m.size,
		contexts: make(map[model.PartitionName]*context, len(m.contexts)),
		current:  m.current,
		hasCtx:   m.hasCtx,
		tlb:      m.tlb,
		tlbStats: m.tlbStats,
	}
	// Every entry's gen is below the bumped value, so all frames are
	// shared on both sides.
	c.gen.Store(m.gen.Add(1))
	c.frames = slices.Clone(m.frames)
	for name, ctx := range m.contexts { //air:allow(maprange): one-shot fork assembly off the hot path; order-insensitive copy
		c.contexts[name] = ctx.clone()
	}
	return c
}

func (ctx *context) clone() *context {
	c := &context{
		root:        cloneL1(ctx.root),
		descriptors: append([]Descriptor(nil), ctx.descriptors...),
		pages:       ctx.pages,
		devices:     append([]devRange(nil), ctx.devices...),
	}
	return c
}

func cloneL1(t *l1Table) *l1Table {
	if t == nil {
		return nil
	}
	c := &l1Table{}
	for i, l2 := range t.next {
		c.next[i] = cloneL2(l2)
	}
	return c
}

func cloneL2(t *l2Table) *l2Table {
	if t == nil {
		return nil
	}
	c := &l2Table{}
	for i, l3 := range t.next {
		c.next[i] = cloneL3(l3)
	}
	return c
}

func cloneL3(t *l3Table) *l3Table {
	if t == nil {
		return nil
	}
	c := *t // entries are plain values
	return &c
}
