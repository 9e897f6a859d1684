package hm

import (
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// Clone returns a deep copy of the monitor for module snapshot/fork,
// rebound to the fork's clock and observability spine. Escalation counters,
// the reported-code tally and the event log are copied so the fork's HM
// decisions (e.g. restart-storm stop thresholds) continue exactly where the
// parent's left off. The Table values themselves are shared: they are
// lookup-only after installation, and SetProcessTable replaces whole table
// references rather than mutating entries, so sharing is safe. The parent
// is locked for the duration of the copy, making concurrent forks of one
// snapshot safe.
func (m *Monitor) Clone(now func() tick.Ticks, em obs.Emitter) *Monitor {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Monitor{
		now:      now,
		module:   m.module,
		counters: make(map[counterKey]int, len(m.counters)),
		reported: make(map[ErrorCode]uint64, len(m.reported)),
		handlers: make(map[model.PartitionName]bool, len(m.handlers)),
		obs:      em,
	}
	if m.partition != nil {
		c.partition = make(map[model.PartitionName]Table, len(m.partition))
		for p, t := range m.partition { //air:allow(maprange): one-shot fork assembly off the hot path; order-insensitive copy
			c.partition[p] = t
		}
	}
	if m.process != nil {
		c.process = make(map[model.PartitionName]Table, len(m.process))
		for p, t := range m.process { //air:allow(maprange): one-shot fork assembly off the hot path; order-insensitive copy
			c.process[p] = t
		}
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for k, v := range m.counters {
		c.counters[k] = v
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for k, v := range m.reported {
		c.reported[k] = v
	}
	//air:allow(maprange): one-shot fork assembly off the hot path.
	for k, v := range m.handlers {
		c.handlers[k] = v
	}
	c.events = append([]Event(nil), m.events...)
	return c
}
