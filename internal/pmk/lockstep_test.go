package pmk

import (
	"fmt"
	"math/rand"
	"testing"

	"air/internal/model"
	"air/internal/tick"
)

// refScheduler is Algorithm 1 (Sect. 4) transcribed over the compiled
// preemption-point structs and the ChangeActions map, with the pending
// actions kept in a map: the reference semantics TestSchedulerLockstep
// holds the flat-table Scheduler to.
type refScheduler struct {
	schedules   []*CompiledSchedule
	ticks       tick.Ticks
	current     model.ScheduleID
	next        model.ScheduleID
	lastSwitch  tick.Ticks
	iterator    int
	heir        Heir
	everSwitch  bool
	switchCount int
	pending     map[model.PartitionName]model.ScheduleChangeAction
}

// newRefScheduler returns the reference primed like Scheduler.Start: the
// point at offset 0 is taken at tick 0.
func newRefScheduler(schedules []*CompiledSchedule) *refScheduler {
	return &refScheduler{
		schedules: schedules,
		heir:      schedules[0].Points[0].Heir,
		iterator:  1 % len(schedules[0].Points),
		pending:   map[model.PartitionName]model.ScheduleChangeAction{},
	}
}

func (r *refScheduler) tick() bool {
	r.ticks++ // line 1
	cs := r.schedules[r.current]
	if cs.Points[r.iterator].Offset != (r.ticks-r.lastSwitch)%cs.MTF { // line 2
		return false
	}
	if r.current != r.next && (r.ticks-r.lastSwitch)%cs.MTF == 0 { // line 3
		// Lines 4–6.
		r.current = r.next
		r.lastSwitch = r.ticks
		r.iterator = 0
		r.everSwitch = true
		r.switchCount++
		cs = r.schedules[r.current]
		for p, a := range cs.ChangeActions { //air:allow(maprange): map-to-map copy; order-insensitive
			r.pending[p] = a
		}
	}
	r.heir = cs.Points[r.iterator].Heir            // line 8
	r.iterator = (r.iterator + 1) % len(cs.Points) // line 9
	return true
}

func (r *refScheduler) status() ScheduleStatus {
	st := ScheduleStatus{Current: r.current, Next: r.next}
	if r.everSwitch {
		st.LastSwitch = r.lastSwitch
	}
	return st
}

func (r *refScheduler) consume(p model.PartitionName) (model.ScheduleChangeAction, bool) {
	a, ok := r.pending[p]
	delete(r.pending, p)
	return a, ok
}

func (r *refScheduler) clone() *refScheduler {
	c := *r
	c.pending = make(map[model.PartitionName]model.ScheduleChangeAction, len(r.pending))
	for p, a := range r.pending { //air:allow(maprange): map-to-map copy; order-insensitive
		c.pending[p] = a
	}
	return &c
}

// genSystem draws 1–4 partitions and 1–4 schedules. Each schedule has its
// own MTF, idle gaps before, between and after its windows, a random subset
// of the partitions as members (the rest have no change action) and random
// change actions, zero included.
func genSystem(rng *rand.Rand) *model.System {
	sys := &model.System{}
	for n := 1 + rng.Intn(4); len(sys.Partitions) < n; {
		sys.Partitions = append(sys.Partitions, model.PartitionName(fmt.Sprintf("P%d", len(sys.Partitions)+1)))
	}
	for n := 1 + rng.Intn(4); len(sys.Schedules) < n; {
		s := model.Schedule{Name: fmt.Sprintf("s%d", len(sys.Schedules)), MTF: tick.Ticks(1 + rng.Intn(40))}
		var members []model.PartitionName
		for _, p := range sys.Partitions {
			if rng.Intn(4) > 0 {
				members = append(members, p)
			}
		}
		supplied := map[model.PartitionName]tick.Ticks{}
		for off := tick.Ticks(rng.Intn(3)); len(members) > 0 && off < s.MTF; {
			w := model.Window{Partition: members[rng.Intn(len(members))], Offset: off, Duration: tick.Ticks(1 + rng.Intn(6))}
			w.Duration = min(w.Duration, s.MTF-off)
			s.Windows = append(s.Windows, w)
			supplied[w.Partition] += w.Duration
			off = w.End() + tick.Ticks(rng.Intn(3))
		}
		for _, p := range members {
			s.Requirements = append(s.Requirements, model.Requirement{
				Partition: p, Cycle: s.MTF, Budget: supplied[p],
				ChangeAction: model.ScheduleChangeAction(rng.Intn(4)),
			})
		}
		sys.Schedules = append(sys.Schedules, s)
	}
	return sys
}

// TestSchedulerLockstep runs the compiled Scheduler beside the reference
// transcription of Algorithm 1 over generated systems, with random switch
// requests, random first dispatches consuming pending actions, and
// occasional forks. After every tick it compares everything the module
// reads from the scheduler.
func TestSchedulerLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		sys := genSystem(rng)
		compiled := make([]*CompiledSchedule, len(sys.Schedules))
		for i := range sys.Schedules {
			cs, err := Compile(sys, &sys.Schedules[i])
			if err != nil {
				t.Fatalf("system %d: %v", n, err)
			}
			compiled[i] = cs
		}
		s, err := NewScheduler(compiled)
		if err != nil {
			t.Fatalf("system %d: %v", n, err)
		}
		heir, err := s.Start()
		if err != nil {
			t.Fatalf("system %d: %v", n, err)
		}
		ref := newRefScheduler(compiled)
		if heir != ref.heir {
			t.Fatalf("system %d: Start heir %v, want %v", n, heir, ref.heir)
		}
		for step := 0; step < 2000; step++ {
			switch rng.Intn(40) {
			case 0:
				id := model.ScheduleID(rng.Intn(len(compiled)))
				if err := s.RequestSwitch(id); err != nil {
					t.Fatal(err)
				}
				ref.next = id
			case 1:
				s, ref = s.Clone(), ref.clone()
			}
			if got, want := s.Tick(), ref.tick(); got != want {
				t.Fatalf("system %d tick %d: Tick = %v, want %v", n, ref.ticks, got, want)
			}
			if rng.Intn(3) == 0 {
				p := sys.Partitions[rng.Intn(len(sys.Partitions))]
				a, ok := s.ConsumePendingAction(p)
				wa, wok := ref.consume(p)
				if a != wa || ok != wok {
					t.Fatalf("system %d tick %d: ConsumePendingAction(%s) = %v, %v, want %v, %v",
						n, ref.ticks, p, a, ok, wa, wok)
				}
			}
			if s.Heir() != ref.heir || s.Ticks() != ref.ticks || s.Status() != ref.status() ||
				s.SwitchCount() != ref.switchCount || s.Current() != compiled[ref.current] ||
				s.PendingActionCount() != len(ref.pending) {
				t.Fatalf("system %d tick %d: scheduler (heir %v, ticks %d, status %+v, switches %d, schedule %s, pending %d) "+
					"!= reference (heir %v, ticks %d, status %+v, switches %d, schedule %s, pending %d)",
					n, ref.ticks, s.Heir(), s.Ticks(), s.Status(), s.SwitchCount(), s.Current().Name, s.PendingActionCount(),
					ref.heir, ref.ticks, ref.status(), ref.switchCount, compiled[ref.current].Name, len(ref.pending))
			}
		}
	}
}
