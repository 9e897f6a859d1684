package mmu

import (
	"errors"
	"fmt"

	"air/internal/model"
)

// Device is a memory-mapped I/O device: reads and writes at offsets within
// the device's mapped range are routed to it instead of RAM. Spatial
// partitioning extends to I/O exactly as the paper's abstract requires —
// "dedicated memory and input/output addressing spaces": a device is mapped
// into one partition's addressing space and other partitions cannot reach
// it.
type Device interface {
	// ReadAt fills buf from the device starting at the given offset within
	// the mapped range.
	ReadAt(offset int, buf []byte)
	// WriteAt stores data into the device starting at the given offset.
	WriteAt(offset int, data []byte)
}

// devRange is one device mapping within a partition's space.
type devRange struct {
	base     VirtAddr
	size     uint32
	appPerms AccessMode
	posPerms AccessMode
	dev      Device
}

func (r *devRange) contains(va VirtAddr) bool {
	return va >= r.base && va < r.base+VirtAddr(r.size)
}

// Device mapping errors.
var (
	ErrDeviceOverlap = errors.New("mmu: device range overlaps existing mapping")
	ErrNilDevice     = errors.New("mmu: nil device")
)

// MapDevice installs a memory-mapped device into partition p's addressing
// space. The range must not collide with mapped RAM pages or other devices
// of the same partition. Unlike RAM descriptors, device ranges need not be
// page-aligned (device register blocks rarely are). Like MapSpace, it
// returns ErrShared once the MMU has been cloned or is a clone.
func (m *MMU) MapDevice(p model.PartitionName, base VirtAddr, size uint32,
	appPerms, posPerms AccessMode, dev Device) error {
	if m.gen.Load() != 0 {
		return ErrShared
	}
	if dev == nil {
		return ErrNilDevice
	}
	if size == 0 {
		return ErrZeroSize
	}
	ctx, ok := m.contexts[p]
	if !ok {
		ctx = &context{root: &l1Table{}}
		m.contexts[p] = ctx
	}
	// Collision checks: against RAM pages overlapping the range...
	for va := base &^ VirtAddr(pageOffset); va < base+VirtAddr(size); va += PageSize {
		if e := m.walk(ctx.root, va); e != nil && e.valid {
			return fmt.Errorf("%w: RAM at 0x%08x", ErrDeviceOverlap, uint32(va))
		}
	}
	// ...and against other device ranges.
	for i := range ctx.devices {
		r := &ctx.devices[i]
		if base < r.base+VirtAddr(r.size) && r.base < base+VirtAddr(size) {
			return fmt.Errorf("%w: device at 0x%08x", ErrDeviceOverlap, uint32(r.base))
		}
	}
	ctx.devices = append(ctx.devices, devRange{
		base: base, size: size, appPerms: appPerms, posPerms: posPerms, dev: dev,
	})
	return nil
}

// deviceAt returns the device range covering va in p's space, if any.
func (m *MMU) deviceAt(p model.PartitionName, va VirtAddr) *devRange {
	ctx, ok := m.contexts[p]
	if !ok {
		return nil
	}
	for i := range ctx.devices {
		if ctx.devices[i].contains(va) {
			return &ctx.devices[i]
		}
	}
	return nil
}

// deviceAccess routes an access hitting a device range; it returns true when
// the access was handled (or faulted) by a device.
func (m *MMU) deviceAccess(p model.PartitionName, va VirtAddr, buf []byte,
	mode AccessMode, priv Privilege) (bool, error) {
	r := m.deviceAt(p, va)
	if r == nil {
		return false, nil
	}
	if priv != PrivPMK {
		perms := r.appPerms
		if priv == PrivPOS {
			perms = r.posPerms
		}
		if perms&mode != mode {
			return true, &Fault{Partition: p, Address: va, Access: mode,
				Privilege: priv, Reason: FaultProtection}
		}
	}
	// Accesses must stay within the device range (no silent spill into
	// unmapped space).
	if va+VirtAddr(len(buf)) > r.base+VirtAddr(r.size) {
		return true, &Fault{Partition: p, Address: r.base + VirtAddr(r.size),
			Access: mode, Privilege: priv, Reason: FaultUnmapped}
	}
	offset := int(va - r.base)
	if mode == Write {
		r.dev.WriteAt(offset, buf)
	} else {
		r.dev.ReadAt(offset, buf)
	}
	return true, nil
}

// Devices returns the number of device ranges mapped for partition p.
func (m *MMU) Devices(p model.PartitionName) int {
	ctx, ok := m.contexts[p]
	if !ok {
		return 0
	}
	return len(ctx.devices)
}
