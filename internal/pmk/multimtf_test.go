package pmk

import (
	"testing"

	"air/internal/model"
	"air/internal/tick"
)

// TestDifferentMTFsAcrossSchedules exercises the Sect. 4 extension point
// the paper calls out explicitly: "definition of multiple schedules, with
// different major time frames, partitions, and respective periods and
// execution time windows". Schedule s0 has MTF 100 (A/B split), s1 has MTF
// 60 (B only); the switch lands at an s0 boundary and the new 60-tick frame
// counts from the switch instant.
func TestDifferentMTFsAcrossSchedules(t *testing.T) {
	sys := &model.System{
		Partitions: []model.PartitionName{"A", "B"},
		Schedules: []model.Schedule{
			{
				Name: "s0", MTF: 100,
				Requirements: []model.Requirement{
					{Partition: "A", Cycle: 100, Budget: 50},
					{Partition: "B", Cycle: 100, Budget: 50},
				},
				Windows: []model.Window{
					{Partition: "A", Offset: 0, Duration: 50},
					{Partition: "B", Offset: 50, Duration: 50},
				},
			},
			{
				Name: "s1", MTF: 60,
				Requirements: []model.Requirement{
					{Partition: "B", Cycle: 60, Budget: 40},
				},
				Windows: []model.Window{
					{Partition: "B", Offset: 0, Duration: 40},
					// 20-tick idle gap per frame.
				},
			},
		},
	}
	s := NewScheduler(sys)
	heir, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Run half an s0 frame, request the switch.
	for s.Ticks() < 250 {
		if s.Tick() {
			heir = s.Heir()
		}
	}
	if err := s.RequestSwitch(1); err != nil {
		t.Fatal(err)
	}
	// Effective at the next s0 boundary: t = 300.
	for s.Ticks() < 300 {
		if s.Tick() {
			heir = s.Heir()
		}
		if s.Status().Current != 0 && s.Ticks() < 300 {
			t.Fatalf("switched early at %d", s.Ticks())
		}
	}
	st := s.Status()
	if st.Current != 1 || st.LastSwitch != 300 {
		t.Fatalf("status after switch = %+v", st)
	}
	// Under s1 the pattern repeats every 60 ticks from t=300:
	// [300,340) B, [340,360) idle, [360,400) B, ...
	type sample struct {
		at   tick.Ticks
		idle bool
	}
	samples := []sample{
		{310, false}, {339, false}, {345, true}, {359, true},
		{365, false}, {399, false}, {401, true},
	}
	cur := heir
	for s.Ticks() < 420 {
		if s.Tick() {
			cur = s.Heir()
		}
		for _, smp := range samples {
			if s.Ticks() == smp.at {
				if cur.Idle != smp.idle {
					t.Fatalf("t=%d heir=%v, want idle=%v", smp.at, cur, smp.idle)
				}
				if !smp.idle && cur.Partition != "B" {
					t.Fatalf("t=%d heir=%v, want B", smp.at, cur)
				}
			}
		}
	}
	// Switch back: boundary relative to lastScheduleSwitch — next multiple
	// of 60 after the request.
	if err := s.RequestSwitch(0); err != nil {
		t.Fatal(err)
	}
	prev := s.Status().LastSwitch
	for s.Status().Current != 0 {
		s.Tick()
	}
	back := s.Status().LastSwitch
	if (back-prev)%60 != 0 {
		t.Fatalf("switch back at %d not on an s1 boundary (last=%d)", back, prev)
	}
}
