// Package pmk implements the AIR Partition Management Kernel's temporal
// partitioning machinery (paper Sect. 2.1, 4): the Partition Scheduler of
// Algorithm 1 — extended with mode-based schedules — and the Partition
// Dispatcher of Algorithm 2, operating over partition scheduling tables
// compiled into preemption-point form.
package pmk

import (
	"air/internal/model"
	"air/internal/tick"
)

// Heir identifies the partition that will hold the processing resources
// until the next partition preemption point. Idle marks scheduling gaps —
// stretches of the MTF assigned to no partition.
type Heir struct {
	Partition model.PartitionName
	Idle      bool
}

// String renders the heir.
func (h Heir) String() string {
	if h.Idle {
		return "<idle>"
	}
	return string(h.Partition)
}

// PreemptionPoint is one entry of a compiled scheduling table: at MTF offset
// Offset the heir partition becomes Heir.
type PreemptionPoint struct {
	Offset tick.Ticks
	Heir   Heir
	// WindowIndex is the index of the originating window in the model
	// schedule, or -1 for synthesized idle points.
	WindowIndex int
}

// CompiledSchedule is a partition scheduling table in the form consumed by
// Algorithm 1: preemption points sorted by MTF offset, always including one
// at offset 0.
type CompiledSchedule struct {
	Name   string
	MTF    tick.Ticks
	Points []PreemptionPoint
	// ChangeActions maps each participating partition to its
	// ScheduleChangeAction for this schedule (Sect. 4, integration step 2).
	ChangeActions map[model.PartitionName]model.ScheduleChangeAction

	// Flat compiled form, derived from Points/ChangeActions at compile time
	// and consumed by the Algorithm 1/2 hot paths: parallel per-point arrays
	// (no struct-field hops) and a dense change-action table indexed by
	// partition ordinal. These tables are immutable after compile and shared
	// read-only between a module and all its snapshot forks.
	offsets []tick.Ticks // per point: MTF offset
	heirs   []Heir       // per point: heir selected at that offset
	// actionByOrd is ChangeActions as a dense slice indexed by partition
	// ordinal (the order of sys.Partitions); 0 marks a partition with no
	// requirement in this schedule.
	actionByOrd []model.ScheduleChangeAction
}

// compile translates a model schedule of sys, which model.Verify has
// accepted, into preemption-point form: idle gaps between windows, before
// the first window and after the last one become explicit idle preemption
// points.
func compile(sys *model.System, s *model.Schedule) *CompiledSchedule {
	cs := &CompiledSchedule{
		Name:          s.Name,
		MTF:           s.MTF,
		ChangeActions: make(map[model.PartitionName]model.ScheduleChangeAction, len(s.Requirements)),
	}
	for _, q := range s.Requirements {
		action := q.ChangeAction
		if action == 0 {
			action = model.ActionSkip
		}
		cs.ChangeActions[q.Partition] = action
	}
	cursor := tick.Ticks(0)
	for i, w := range s.Windows {
		if w.Offset > cursor {
			cs.Points = append(cs.Points, PreemptionPoint{
				Offset: cursor, Heir: Heir{Idle: true}, WindowIndex: -1,
			})
		}
		cs.Points = append(cs.Points, PreemptionPoint{
			Offset: w.Offset, Heir: Heir{Partition: w.Partition}, WindowIndex: i,
		})
		cursor = w.End()
	}
	if cursor < s.MTF || len(cs.Points) == 0 {
		cs.Points = append(cs.Points, PreemptionPoint{
			Offset: cursor, Heir: Heir{Idle: true}, WindowIndex: -1,
		})
	}
	cs.offsets = make([]tick.Ticks, len(cs.Points))
	cs.heirs = make([]Heir, len(cs.Points))
	for i, pt := range cs.Points {
		cs.offsets[i] = pt.Offset
		cs.heirs[i] = pt.Heir
	}
	cs.actionByOrd = make([]model.ScheduleChangeAction, len(sys.Partitions))
	for i, p := range sys.Partitions {
		cs.actionByOrd[i] = cs.ChangeActions[p]
	}
	return cs
}

// PartitionAt returns the heir at a given offset within the MTF — useful for
// timeline rendering and analysis.
func (cs *CompiledSchedule) PartitionAt(offset tick.Ticks) Heir {
	offset %= cs.MTF
	heir := cs.Points[len(cs.Points)-1].Heir
	for _, pt := range cs.Points {
		if pt.Offset > offset {
			break
		}
		heir = pt.Heir
	}
	return heir
}
