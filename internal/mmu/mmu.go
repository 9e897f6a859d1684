// Package mmu implements AIR's spatial partitioning support (paper Sect. 2.1,
// Fig. 3): a high-level, processor-independent description of each
// partition's addressing space — a set of descriptors per execution level and
// memory section — mapped at "runtime" onto a simulated three-level
// page-based MMU modelled after the Gaisler SPARC V8 LEON3 SRMMU referenced
// by the paper (context table → 256-entry level-1 → 64-entry level-2 →
// 64-entry level-3 tables, 4 KiB pages).
//
// Applications running in one partition cannot access addressing spaces
// outside those belonging to that partition: every simulated load/store walks
// the current context's page table and faults — surfacing to the Health
// Monitor as a MEMORY_VIOLATION — when the mapping is absent or the access
// permissions of the executing privilege level are insufficient.
//
// The simulated physical memory behind the page tables is a frame table,
// one entry per allocated 4 KiB frame indexed by PhysAddr >> 12. A frame
// holds no bytes until its first write, and a never-written frame reads as
// zeros, so mapping a partition's space costs table entries, not zeroed
// megabytes. Clone shares every frame copy-on-write (see MMU.Clone).
package mmu

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"air/internal/model"
)

// VirtAddr is a 32-bit virtual address in a partition's addressing space.
type VirtAddr uint32

// PhysAddr is a 32-bit physical address in the simulated memory.
type PhysAddr uint32

// AccessMode is a bitmask of requested or permitted access types.
type AccessMode uint8

// Access modes.
const (
	Read AccessMode = 1 << iota
	Write
	Execute
)

// String renders the mode as "rwx" flags.
func (m AccessMode) String() string {
	flags := []byte("---")
	if m&Read != 0 {
		flags[0] = 'r'
	}
	if m&Write != 0 {
		flags[1] = 'w'
	}
	if m&Execute != 0 {
		flags[2] = 'x'
	}
	return string(flags)
}

// Privilege is the executing level, matching the paper's "several levels of
// execution (e.g. application, operating system and AIR PMK)".
type Privilege int

// Privilege levels. PrivPMK bypasses permission checks (but not mapping
// validity), as the hypervisor-level PMK owns the machine.
const (
	PrivApp Privilege = iota + 1
	PrivPOS
	PrivPMK
)

// String renders the privilege level.
func (p Privilege) String() string {
	switch p {
	case PrivApp:
		return "APP"
	case PrivPOS:
		return "POS"
	case PrivPMK:
		return "PMK"
	default:
		return fmt.Sprintf("Privilege(%d)", int(p))
	}
}

// Section labels a descriptor's memory section ("e.g. code, data and stack").
type Section int

// Memory sections.
const (
	SectionCode Section = iota + 1
	SectionData
	SectionStack
	SectionIO
)

// String renders the section.
func (s Section) String() string {
	switch s {
	case SectionCode:
		return "code"
	case SectionData:
		return "data"
	case SectionStack:
		return "stack"
	case SectionIO:
		return "io"
	default:
		return fmt.Sprintf("Section(%d)", int(s))
	}
}

// Page-table geometry of the simulated LEON3 SRMMU.
const (
	PageSize   = 4096 // bytes per level-3 page
	pageShift  = 12
	l3Entries  = 64 // level-3 table: 64 pages  → 256 KiB per L2 entry
	l2Entries  = 64 // level-2 table: 64 L3s    → 16 MiB per L1 entry
	l1Entries  = 256
	l3Shift    = pageShift
	l2Shift    = l3Shift + 6 // log2(l3Entries)
	l1Shift    = l2Shift + 6 // log2(l2Entries)
	pageOffset = PageSize - 1
)

// Descriptor is one entry of the high-level abstract spatial partitioning
// description: a contiguous virtual range of one section, with the access
// permissions granted to the application and operating-system execution
// levels. Base and Size must be page-aligned.
type Descriptor struct {
	Section  Section
	Base     VirtAddr
	Size     uint32
	AppPerms AccessMode // permissions at PrivApp
	POSPerms AccessMode // permissions at PrivPOS
}

// End returns one past the last virtual address of the descriptor.
func (d Descriptor) End() VirtAddr { return d.Base + VirtAddr(d.Size) }

// Contains reports whether va falls within the descriptor.
func (d Descriptor) Contains(va VirtAddr) bool {
	return va >= d.Base && va < d.End()
}

// SpaceSpec is the integrator-defined addressing space of one partition: the
// set of descriptors provided per partition (Fig. 3).
type SpaceSpec struct {
	Partition   model.PartitionName
	Descriptors []Descriptor
}

// FaultReason classifies a spatial partitioning fault.
type FaultReason int

// Fault reasons.
const (
	// FaultUnmapped: no valid translation for the address.
	FaultUnmapped FaultReason = iota + 1
	// FaultProtection: a translation exists but the privilege level lacks
	// the requested access mode.
	FaultProtection
	// FaultNoContext: no partition context is installed.
	FaultNoContext
)

// String renders the fault reason.
func (r FaultReason) String() string {
	switch r {
	case FaultUnmapped:
		return "UNMAPPED"
	case FaultProtection:
		return "PROTECTION"
	case FaultNoContext:
		return "NO_CONTEXT"
	default:
		return fmt.Sprintf("FaultReason(%d)", int(r))
	}
}

// Fault is a spatial partitioning violation. The kernel converts it into a
// Health Monitor MEMORY_VIOLATION report confined to the faulting partition.
type Fault struct {
	Partition model.PartitionName
	Address   VirtAddr
	Access    AccessMode
	Privilege Privilege
	Reason    FaultReason
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault at 0x%08x (%s, %s) in partition %s",
		f.Reason, uint32(f.Address), f.Access, f.Privilege, f.Partition)
}

// pte is a level-3 page table entry.
type pte struct {
	valid    bool
	frame    PhysAddr // physical frame base (page-aligned)
	appPerms AccessMode
	posPerms AccessMode
}

type l3Table struct{ entries [l3Entries]pte }
type l2Table struct{ next [l2Entries]*l3Table }
type l1Table struct{ next [l1Entries]*l2Table }

// context is one partition's page-table root plus bookkeeping.
type context struct {
	root        *l1Table
	descriptors []Descriptor
	pages       int
	devices     []devRange
}

// tlbEntries is the size of the direct-mapped translation lookaside buffer,
// matching the LEON3 SRMMU's 32-entry TLB.
const tlbEntries = 32

// tlbEntry caches one page translation of the current context.
type tlbEntry struct {
	valid bool
	page  VirtAddr // va & ^pageOffset
	pte   pte
}

// TLBStats reports translation lookaside buffer behaviour.
type TLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// frame is one frame-table entry: the frame's bytes, nil until the first
// write, and the generation of the owning MMU at which those bytes were
// made private to it.
type frame struct {
	data *[PageSize]byte
	gen  uint64
}

// MMU is the simulated memory management unit together with the simulated
// physical memory it fronts.
//
// Physical memory is the frame table: frames[pa>>pageShift] backs the 4 KiB
// frame at pa, and frames are allocated in PhysAddr order, so len(frames)
// is the number allocated. A frame's bytes may be shared with clones, so a
// write goes in place only when the entry's gen equals the MMU's gen;
// otherwise it first copies the frame (or allocates a nil one) and stamps
// the entry with the current gen. Clone bumps gen, which makes every frame
// shared again without touching the table. Clone is gen's only writer, so a
// non-zero gen also marks contexts as shared with a clone and read-only.
type MMU struct {
	frames   []frame
	gen      atomic.Uint64
	size     int // simulated physical capacity in bytes
	contexts map[model.PartitionName]*context
	current  model.PartitionName
	hasCtx   bool

	// tlb caches current-context translations; it is flushed on every
	// context switch, exactly like the hardware it models. Explicit-context
	// accesses (TranslateIn/ReadIn/WriteIn, used by the PMK) bypass it.
	tlb      [tlbEntries]tlbEntry
	tlbStats TLBStats
}

// Errors returned by mapping operations (integration-time failures rather
// than runtime faults).
var (
	ErrUnaligned    = errors.New("mmu: descriptor base/size not page-aligned")
	ErrOverlap      = errors.New("mmu: descriptor overlaps existing mapping")
	ErrOutOfMemory  = errors.New("mmu: simulated physical memory exhausted")
	ErrUnknownSpace = errors.New("mmu: partition has no mapped space")
	ErrZeroSize     = errors.New("mmu: descriptor has zero size")
	// ErrShared: the page tables are shared with a clone (see Clone), so
	// no mapping can change any more.
	ErrShared = errors.New("mmu: page tables shared with a clone")
)

// New creates an MMU fronting size bytes of simulated physical memory
// (rounded up to a whole number of pages).
func New(size int) *MMU {
	pages := (size + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	return &MMU{
		size:     pages * PageSize,
		contexts: make(map[model.PartitionName]*context),
	}
}

// MapSpace installs a partition's addressing space: for each descriptor,
// physical frames are allocated and the three-level page table populated.
// It returns ErrShared once the MMU has been cloned or is a clone.
func (m *MMU) MapSpace(spec SpaceSpec) error {
	if m.gen.Load() != 0 {
		return ErrShared
	}
	ctx, ok := m.contexts[spec.Partition]
	if !ok {
		ctx = &context{root: &l1Table{}}
		m.contexts[spec.Partition] = ctx
	}
	pages := 0
	for _, d := range spec.Descriptors {
		pages += int(d.Size / PageSize)
	}
	m.frames = slices.Grow(m.frames, min(pages, m.FreeBytes()/PageSize))
	for _, d := range spec.Descriptors {
		if err := m.mapDescriptor(ctx, d); err != nil {
			return fmt.Errorf("partition %s %s descriptor at 0x%08x: %w",
				spec.Partition, d.Section, uint32(d.Base), err)
		}
	}
	return nil
}

func (m *MMU) mapDescriptor(ctx *context, d Descriptor) error {
	if d.Size == 0 {
		return ErrZeroSize
	}
	if uint32(d.Base)%PageSize != 0 || d.Size%PageSize != 0 {
		return ErrUnaligned
	}
	// First pass: reject overlaps before allocating anything.
	for va := d.Base; va < d.End(); va += PageSize {
		if e := m.walk(ctx.root, va); e != nil && e.valid {
			return ErrOverlap
		}
	}
	for va := d.Base; va < d.End(); va += PageSize {
		frame, err := m.allocFrame()
		if err != nil {
			return err
		}
		entry := m.ensure(ctx.root, va)
		*entry = pte{valid: true, frame: frame, appPerms: d.AppPerms, posPerms: d.POSPerms}
		ctx.pages++
	}
	ctx.descriptors = append(ctx.descriptors, d)
	return nil
}

func (m *MMU) allocFrame() (PhysAddr, error) {
	if m.FreeBytes() < PageSize {
		return 0, ErrOutOfMemory
	}
	f := PhysAddr(len(m.frames)) << pageShift
	m.frames = append(m.frames, frame{})
	return f, nil
}

// writable returns the bytes of the frame at pa, made private to m first:
// a nil frame is allocated and a shared one copied.
func (m *MMU) writable(pa PhysAddr) *[PageSize]byte {
	f := &m.frames[pa>>pageShift]
	if gen := m.gen.Load(); f.data == nil || f.gen != gen {
		page := new([PageSize]byte)
		if f.data != nil {
			*page = *f.data
		}
		f.data, f.gen = page, gen
	}
	return f.data
}

// walk returns the level-3 entry for va, or nil if any intermediate table is
// absent.
func (m *MMU) walk(root *l1Table, va VirtAddr) *pte {
	l2 := root.next[(va>>l1Shift)&(l1Entries-1)]
	if l2 == nil {
		return nil
	}
	l3 := l2.next[(va>>l2Shift)&(l2Entries-1)]
	if l3 == nil {
		return nil
	}
	return &l3.entries[(va>>l3Shift)&(l3Entries-1)]
}

// ensure returns the level-3 entry for va, materialising intermediate tables.
func (m *MMU) ensure(root *l1Table, va VirtAddr) *pte {
	i1 := (va >> l1Shift) & (l1Entries - 1)
	if root.next[i1] == nil {
		root.next[i1] = &l2Table{}
	}
	l2 := root.next[i1]
	i2 := (va >> l2Shift) & (l2Entries - 1)
	if l2.next[i2] == nil {
		l2.next[i2] = &l3Table{}
	}
	return &l2.next[i2].entries[(va>>l3Shift)&(l3Entries-1)]
}

// SetContext installs the page-table context of the given partition,
// flushing the TLB. The PMK dispatcher calls this on every partition context
// switch.
func (m *MMU) SetContext(p model.PartitionName) error {
	if _, ok := m.contexts[p]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSpace, p)
	}
	if !m.hasCtx || m.current != p {
		m.flushTLB()
	}
	m.current = p
	m.hasCtx = true
	return nil
}

// ClearContext removes the current context (idle window) and flushes the
// TLB.
func (m *MMU) ClearContext() {
	if m.hasCtx {
		m.flushTLB()
	}
	m.current = ""
	m.hasCtx = false
}

func (m *MMU) flushTLB() {
	for i := range m.tlb {
		m.tlb[i].valid = false
	}
	m.tlbStats.Flushes++
}

// TLB returns the translation lookaside buffer statistics.
func (m *MMU) TLB() TLBStats { return m.tlbStats }

// Current returns the currently installed context's partition.
func (m *MMU) Current() (model.PartitionName, bool) {
	return m.current, m.hasCtx
}

// Translate resolves va in the current context and checks that priv permits
// the requested access, returning the physical address or a *Fault. Hits in
// the direct-mapped TLB skip the three-level table walk.
func (m *MMU) Translate(va VirtAddr, access AccessMode, priv Privilege) (PhysAddr, error) {
	if !m.hasCtx {
		return 0, &Fault{Address: va, Access: access, Privilege: priv, Reason: FaultNoContext}
	}
	page := va &^ VirtAddr(pageOffset)
	slot := &m.tlb[(va>>pageShift)%tlbEntries]
	if slot.valid && slot.page == page {
		m.tlbStats.Hits++
		if err := checkPerms(&slot.pte, va, access, priv, m.current); err != nil {
			return 0, err
		}
		return slot.pte.frame + PhysAddr(va&pageOffset), nil
	}
	m.tlbStats.Misses++
	ctx := m.contexts[m.current]
	entry := m.walk(ctx.root, va)
	if entry == nil || !entry.valid {
		return 0, &Fault{Partition: m.current, Address: va, Access: access,
			Privilege: priv, Reason: FaultUnmapped}
	}
	*slot = tlbEntry{valid: true, page: page, pte: *entry}
	if err := checkPerms(entry, va, access, priv, m.current); err != nil {
		return 0, err
	}
	return entry.frame + PhysAddr(va&pageOffset), nil
}

// checkPerms validates the privilege level's access rights against a PTE.
func checkPerms(entry *pte, va VirtAddr, access AccessMode, priv Privilege, p model.PartitionName) error {
	if priv == PrivPMK {
		return nil
	}
	perms := entry.appPerms
	if priv == PrivPOS {
		perms = entry.posPerms
	}
	if perms&access != access {
		return &Fault{Partition: p, Address: va, Access: access,
			Privilege: priv, Reason: FaultProtection}
	}
	return nil
}

// TranslateIn performs a translation in an explicitly named partition's
// context without switching the current context. The PMK uses this for
// interpartition memory-to-memory copies that must respect both spaces.
func (m *MMU) TranslateIn(p model.PartitionName, va VirtAddr, access AccessMode, priv Privilege) (PhysAddr, error) {
	if _, ok := m.contexts[p]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSpace, p)
	}
	return m.translateIn(p, va, access, priv)
}

func (m *MMU) translateIn(p model.PartitionName, va VirtAddr, access AccessMode, priv Privilege) (PhysAddr, error) {
	ctx := m.contexts[p]
	entry := m.walk(ctx.root, va)
	if entry == nil || !entry.valid {
		return 0, &Fault{Partition: p, Address: va, Access: access,
			Privilege: priv, Reason: FaultUnmapped}
	}
	if err := checkPerms(entry, va, access, priv, p); err != nil {
		return 0, err
	}
	return entry.frame + PhysAddr(va&pageOffset), nil
}

// Read copies len(buf) bytes from the current context starting at va,
// checking Read permission page by page.
func (m *MMU) Read(va VirtAddr, buf []byte, priv Privilege) error {
	return m.access(m.current, m.hasCtx, va, buf, Read, priv)
}

// Write copies buf into the current context starting at va, checking Write
// permission page by page.
func (m *MMU) Write(va VirtAddr, buf []byte, priv Privilege) error {
	return m.access(m.current, m.hasCtx, va, buf, Write, priv)
}

// ReadIn and WriteIn are the explicit-context variants used by the PMK.
func (m *MMU) ReadIn(p model.PartitionName, va VirtAddr, buf []byte, priv Privilege) error {
	_, ok := m.contexts[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSpace, p)
	}
	return m.access(p, true, va, buf, Read, priv)
}

// WriteIn writes into an explicitly named partition's space.
func (m *MMU) WriteIn(p model.PartitionName, va VirtAddr, buf []byte, priv Privilege) error {
	_, ok := m.contexts[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSpace, p)
	}
	return m.access(p, true, va, buf, Write, priv)
}

func (m *MMU) access(p model.PartitionName, hasCtx bool, va VirtAddr, buf []byte, mode AccessMode, priv Privilege) error {
	if !hasCtx {
		return &Fault{Address: va, Access: mode, Privilege: priv, Reason: FaultNoContext}
	}
	// Memory-mapped device ranges take precedence over RAM translation.
	if handled, err := m.deviceAccess(p, va, buf, mode, priv); handled {
		return err
	}
	// Current-context accesses go through the TLB path; explicit-context
	// (PMK) accesses walk the tables directly.
	translate := m.translateIn
	if m.hasCtx && p == m.current {
		translate = func(_ model.PartitionName, va VirtAddr, access AccessMode, priv Privilege) (PhysAddr, error) {
			return m.Translate(va, access, priv)
		}
	}
	remaining := buf
	for len(remaining) > 0 {
		pa, err := translate(p, va, mode, priv)
		if err != nil {
			return err
		}
		n := PageSize - int(va&pageOffset)
		if n > len(remaining) {
			n = len(remaining)
		}
		off := int(pa & pageOffset)
		if mode == Write {
			copy(m.writable(pa)[off:off+n], remaining[:n])
		} else if data := m.frames[pa>>pageShift].data; data != nil {
			copy(remaining[:n], data[off:off+n])
		} else {
			clear(remaining[:n])
		}
		va += VirtAddr(n)
		remaining = remaining[n:]
	}
	return nil
}

// Copy performs a PMK-mediated memory-to-memory copy from one partition's
// space to another's — the interpartition communication primitive of
// Sect. 2.1 ("implemented through memory-to-memory copies not violating
// spatial separation requirements"). The source is read with Read permission
// at the source privilege and the destination written with Write permission
// at the destination privilege; each side is checked against its own space.
func (m *MMU) Copy(src model.PartitionName, srcVA VirtAddr, srcPriv Privilege,
	dst model.PartitionName, dstVA VirtAddr, dstPriv Privilege, n int) error {
	buf := make([]byte, n)
	if err := m.ReadIn(src, srcVA, buf, srcPriv); err != nil {
		return err
	}
	return m.WriteIn(dst, dstVA, buf, dstPriv)
}

// Descriptors returns a copy of the descriptors mapped for partition p.
func (m *MMU) Descriptors(p model.PartitionName) []Descriptor {
	ctx, ok := m.contexts[p]
	if !ok {
		return nil
	}
	out := make([]Descriptor, len(ctx.descriptors))
	copy(out, ctx.descriptors)
	return out
}

// MappedPages returns the number of 4 KiB pages mapped for partition p.
func (m *MMU) MappedPages(p model.PartitionName) int {
	ctx, ok := m.contexts[p]
	if !ok {
		return 0
	}
	return ctx.pages
}

// FreeBytes returns the unallocated simulated physical memory.
func (m *MMU) FreeBytes() int { return m.size - len(m.frames)*PageSize }
