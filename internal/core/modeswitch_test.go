package core

import (
	"testing"

	"air/internal/apex"
	"air/internal/hm"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
)

// fig8Config builds a runnable module over the paper's Fig. 8 prototype:
// four partitions, two PSTs. P1 is the system partition (it may request
// schedule switches). Each partition runs a periodic mockup process.
func fig8Config(changeActions map[model.PartitionName]model.ScheduleChangeAction) Config {
	sys := model.Fig8System()
	// Attach change actions to chi2's requirements.
	for i := range sys.Schedules[1].Requirements {
		q := &sys.Schedules[1].Requirements[i]
		if a, ok := changeActions[q.Partition]; ok {
			q.ChangeAction = a
		}
	}
	mkInit := func(period, work tick.Ticks) InitFunc {
		return normalInit(func(sv *Services) {
			sv.CreateProcess(model.TaskSpec{
				Name: "task", Period: period, Deadline: period,
				BasePriority: 5, WCET: work, Periodic: true,
			}, func(sv *Services) {
				for {
					sv.Compute(work)
					sv.PeriodicWait()
				}
			})
			sv.StartProcess("task")
		})
	}
	return Config{
		System: sys,
		Partitions: []PartitionConfig{
			{Name: "P1", System: true, Init: mkInit(1300, 150)},
			{Name: "P2", Init: mkInit(650, 80)},
			{Name: "P3", Init: mkInit(650, 80)},
			{Name: "P4", Init: mkInit(1300, 90)},
		},
	}
}

// TestScheduleSwitchNoNewViolations is experiment E4: successive requests to
// change schedule are handled at the end of the current MTF and do not
// introduce deadline violations, because both PSTs comply with the
// partitions' temporal requirements (eq. 23).
func TestScheduleSwitchNoNewViolations(t *testing.T) {
	m := startModule(t, fig8Config(nil))
	// Let one MTF run under chi1.
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	// Issue successive switch requests from the system partition: to chi2,
	// back to chi1, then to chi2 — the last request wins at the MTF end.
	pt, _ := m.Partition("P1")
	sv := pt.services(0, nil)
	for _, id := range []model.ScheduleID{1, 0, 1} {
		if rc := sv.SetModuleSchedule(id); rc != apex.NoError {
			t.Fatalf("SetModuleSchedule(%d) = %v", id, rc)
		}
	}
	st := sv.GetModuleScheduleStatus()
	if st.CurrentName != "chi1" || st.NextName != "chi2" {
		t.Fatalf("status before boundary = %+v", st)
	}
	// Run to just before the boundary: still chi1.
	if err := m.Run(1300 - (m.Now() % 1300) - 1); err != nil {
		t.Fatal(err)
	}
	if got := m.ScheduleStatus().CurrentName; got != "chi1" {
		t.Fatalf("switched early: %s at t=%d", got, m.Now())
	}
	// Cross the boundary.
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	st = m.ScheduleStatus()
	if st.CurrentName != "chi2" || st.LastSwitch != 2600 {
		t.Fatalf("status after boundary = %+v (t=%d)", st, m.Now())
	}
	// Run several MTFs under chi2, then switch back, accumulating zero
	// deadline violations throughout.
	if err := m.Run(2 * 1300); err != nil {
		t.Fatal(err)
	}
	if rc := sv.SetModuleSchedule(0); rc != apex.NoError {
		t.Fatal("switch back failed")
	}
	if err := m.Run(2 * 1300); err != nil {
		t.Fatal(err)
	}
	if misses := m.TraceKind(obs.KindDeadlineMiss); len(misses) != 0 {
		t.Fatalf("schedule switches introduced deadline violations: %v", misses)
	}
	if got := m.ScheduleStatus().CurrentName; got != "chi1" {
		t.Errorf("final schedule = %s, want chi1", got)
	}
}

// TestScheduleSwitchWithInjectedFault combines E3 and E4: with the faulty
// process active on P1, schedule switches introduce no violations beyond the
// injected one.
func TestScheduleSwitchWithInjectedFault(t *testing.T) {
	cfg := fig8Config(nil)
	// Replace P1's init with the faulty-process variant (never completes,
	// deadline 200 < cycle 1300, restart-on-miss).
	cfg.Partitions[0].Init = normalInit(func(sv *Services) {
		sv.CreateProcess(model.TaskSpec{
			Name: "faulty", Period: 1300, Deadline: 220,
			BasePriority: 5, WCET: 200, Periodic: true,
		}, func(sv *Services) {
			for {
				sv.Compute(1 << 30)
			}
		})
		sv.StartProcess("faulty")
	})
	cfg.Partitions[0].HMProcessTable = hm.Table{
		hm.ErrDeadlineMissed: hm.Rule{Action: hm.ActionRestartProcess},
	}
	m := startModule(t, cfg)
	if err := m.Run(1300); err != nil {
		t.Fatal(err)
	}
	pt, _ := m.Partition("P1")
	sv := pt.services(0, nil)
	sv.SetModuleSchedule(1)
	if err := m.Run(4 * 1300); err != nil {
		t.Fatal(err)
	}
	misses := m.TraceKind(obs.KindDeadlineMiss)
	if len(misses) == 0 {
		t.Fatal("injected fault not detected")
	}
	for _, e := range misses {
		if e.Partition != "P1" || e.Process != "faulty" {
			t.Fatalf("violation outside the injected fault: %v", e)
		}
	}
}

// TestScheduleChangeActions verifies Sect. 4.2: partitions restart according
// to their per-schedule ScheduleChangeAction the first time they are
// dispatched after the switch — and only then.
func TestScheduleChangeActions(t *testing.T) {
	m := startModule(t, fig8Config(map[model.PartitionName]model.ScheduleChangeAction{
		"P2": model.ActionColdStart,
		"P3": model.ActionWarmStart,
		"P4": model.ActionSkip,
	}))
	pt1, _ := m.Partition("P1")
	sv := pt1.services(0, nil)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if rc := sv.SetModuleSchedule(1); rc != apex.NoError {
		t.Fatal("switch request failed")
	}
	// Run past the boundary (t=1300) and through the first windows of the
	// new schedule (P4@1500, P3@1600, P2@1700 under chi2).
	if err := m.Run(1900); err != nil {
		t.Fatal(err)
	}
	counts := map[model.PartitionName]int{}
	for _, name := range m.Partitions() {
		pt, _ := m.Partition(name)
		counts[name] = pt.StartCount()
	}
	if counts["P1"] != 1 || counts["P4"] != 1 {
		t.Errorf("P1/P4 restarted: %v (actions SKIP)", counts)
	}
	if counts["P2"] != 2 {
		t.Errorf("P2 start count = %d, want 2 (cold start action)", counts["P2"])
	}
	if counts["P3"] != 2 {
		t.Errorf("P3 start count = %d, want 2 (warm start action)", counts["P3"])
	}
	// Restart events were traced at the partitions' first dispatch under
	// chi2 (P4 at 1500 has none; P3 at 1400; P2 at 1700... under chi2:
	// P1@0, P4@200, P3@300, P2@400 relative to 1300).
	restarts := m.TraceKind(obs.KindPartitionRestart)
	if len(restarts) != 2 {
		t.Fatalf("restart events = %v", restarts)
	}
	if restarts[0].Partition != "P3" || restarts[0].Time != 1600 {
		t.Errorf("first restart = %v, want P3 at 1600", restarts[0])
	}
	if restarts[1].Partition != "P2" || restarts[1].Time != 1700 {
		t.Errorf("second restart = %v, want P2 at 1700", restarts[1])
	}
}

// TestUnauthorizedScheduleSwitch: only system partitions may invoke
// SET_MODULE_SCHEDULE (Sect. 4.2 "must be invoked by an authorized
// partition").
func TestUnauthorizedScheduleSwitch(t *testing.T) {
	m := startModule(t, fig8Config(nil))
	pt2, _ := m.Partition("P2")
	sv := pt2.services(0, nil)
	if rc := sv.SetModuleSchedule(1); rc != apex.InvalidConfig {
		t.Fatalf("unauthorized switch rc = %v, want INVALID_CONFIG", rc)
	}
	if st := m.ScheduleStatus(); st.NextName != "chi1" {
		t.Errorf("unauthorized request took effect: %+v", st)
	}
	// Unknown schedule id from the authorized partition.
	pt1, _ := m.Partition("P1")
	sv1 := pt1.services(0, nil)
	if rc := sv1.SetModuleSchedule(7); rc != apex.InvalidParam {
		t.Errorf("unknown schedule rc = %v", rc)
	}
	if rc := sv1.SetModuleScheduleByName("chi2"); rc != apex.NoError {
		t.Errorf("by-name switch rc = %v", rc)
	}
	if rc := sv1.SetModuleScheduleByName("nope"); rc != apex.InvalidParam {
		t.Errorf("unknown name rc = %v", rc)
	}
}
