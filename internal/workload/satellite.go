// Package workload provides the mockup satellite applications of the
// paper's prototype (Sect. 6): four RTEMS-style partitions "representative
// of typical functions present in a satellite system" — AOCS (Attitude and
// Orbit Control), OBDH (Onboard Data Handling), TTC (Telemetry, Tracking and
// Command) and FDIR (Fault Detection, Isolation and Recovery) — wired over
// the Fig. 8 partition scheduling tables, with optional injection of the
// faulty process on P1 used in the deadline violation demonstration.
package workload

import (
	"fmt"

	"air/internal/apex"
	"air/internal/core"
	"air/internal/ipc"
	"air/internal/model"
	"air/internal/recovery"
)

// Output receives application console lines, keyed by partition — the
// examples and airsim route these into VITRAL windows.
type Output func(p model.PartitionName, line string)

// Options configures the satellite scenario.
type Options struct {
	// Output sinks partition console lines; nil discards them.
	Output Output
	// Faults declares the injected faults for this run; see FaultSpec.
	// Zero-valued spec parameters take per-kind defaults.
	Faults []FaultSpec
	// FDIRSwitchOnStale makes the FDIR partition request the chi2 schedule
	// after observing consecutive stale attitude samples — mode-based
	// schedule adaptation for fault accommodation (Sect. 4).
	FDIRSwitchOnStale int
	// ChangeActions optionally sets per-partition restart actions on chi2.
	ChangeActions map[model.PartitionName]model.ScheduleChangeAction
	// Recovery forwards a recovery orchestration policy to core.Config:
	// restart budgets, quarantine and safe-mode degradation for the
	// scenario's partitions. Nil runs without the recovery layer.
	Recovery *recovery.Policy
	// TraceCapacity forwards to core.Config.
	TraceCapacity int
}

func (o *Options) emit(p model.PartitionName, format string, args ...any) {
	if o.Output != nil {
		o.Output(p, fmt.Sprintf(format, args...))
	}
}

// Config builds the complete core configuration for the satellite scenario
// over the Fig. 8 system.
func Config(opts Options) core.Config {
	sys := model.Fig8System()
	for i := range sys.Schedules[1].Requirements {
		q := &sys.Schedules[1].Requirements[i]
		if a, ok := opts.ChangeActions[q.Partition]; ok {
			q.ChangeAction = a
		}
	}
	inj := newInjection(&opts)
	return core.Config{
		System:        sys,
		Recovery:      opts.Recovery,
		HangTicks:     inj.hangTicks(),
		TraceCapacity: opts.TraceCapacity,
		Sampling: []ipc.SamplingConfig{{
			Name: "attitude", MaxMessage: 64, Refresh: 1300,
			Source: ipc.PortRef{Partition: "P1", Port: "att_out"},
			Destinations: []ipc.PortRef{
				{Partition: "P2", Port: "att_in"},
				{Partition: "P4", Port: "att_in"},
			},
		}},
		Queuing: []ipc.QueuingConfig{{
			Name: "housekeeping", MaxMessage: 128, Depth: 16,
			Source:      ipc.PortRef{Partition: "P2", Port: "hk_out"},
			Destination: ipc.PortRef{Partition: "P3", Port: "hk_in"},
		}},
		Partitions: []core.PartitionConfig{
			{
				Name: "P1", System: true, Init: aocsInit(&opts, inj),
				HMProcessTable: inj.processTable("P1", baseProcessTable("P1")),
			},
			{Name: "P2", Init: obdhInit(&opts, inj),
				HMProcessTable: inj.processTable("P2", baseProcessTable("P2"))},
			{Name: "P3", Init: ttcInit(&opts, inj),
				HMProcessTable: inj.processTable("P3", baseProcessTable("P3"))},
			{Name: "P4", System: true, Init: fdirInit(&opts, inj),
				HMProcessTable: inj.processTable("P4", baseProcessTable("P4"))},
		},
	}
}

// Application process state cells. Each satellite process keeps its
// activation-to-activation state in one of these instead of closure
// variables, in the ForkableBody form module snapshot/fork requires: the
// runtime can deep-copy a cell, it cannot copy a goroutine's captured
// locals.
type (
	aocsState struct{ angle int64 }
	obdhState struct{ seq int }
	ttcState  struct{ downlinked int }
	fdirState struct {
		stale    int
		switched bool
	}
)

// aocsInit is P1: the Attitude and Orbit Control Subsystem. A periodic
// control process integrates a mock attitude state and publishes it on the
// attitude sampling channel. Injected faults targeting P1 (by default the
// Sect. 6 deadline-overrun process) install during initialization.
func aocsInit(opts *Options, inj *injection) core.InitFunc {
	return func(sv *core.Services) {
		sv.CreateSamplingPort("att_out", apex.Source)
		sv.CreateForkableProcess(model.TaskSpec{
			Name: "aocs_control", Period: 1300, Deadline: 650,
			BasePriority: 1, WCET: 150, Periodic: true,
		}, core.ForkableBody{
			New:   func() any { return new(aocsState) },
			Clone: func(s any) any { c := *s.(*aocsState); return &c },
			Run: func(sv *core.Services, state any) {
				s := state.(*aocsState)
				for {
					sv.Compute(120) // sensor fusion + control law
					s.angle = (s.angle + 7) % 3600
					msg := fmt.Sprintf("q:%04d t:%d", s.angle, sv.GetTime())
					if rc := sv.WriteSamplingMessage("att_out", []byte(msg)); rc != apex.NoError {
						sv.ReportApplicationMessage("attitude publish failed: " + rc.String())
					}
					opts.emit("P1", "AOCS attitude %04d published", s.angle)
					sv.PeriodicWait()
				}
			},
		})
		sv.StartProcess("aocs_control")
		inj.install(sv, "P1")
		sv.SetPartitionMode(model.ModeNormal)
	}
}

// obdhInit is P2: Onboard Data Handling. Each activation samples the
// attitude port and queues a housekeeping frame toward TTC.
func obdhInit(opts *Options, inj *injection) core.InitFunc {
	return func(sv *core.Services) {
		sv.CreateSamplingPort("att_in", apex.Destination)
		sv.CreateQueuingPort("hk_out", apex.Source)
		sv.CreateForkableProcess(model.TaskSpec{
			Name: "obdh_housekeeping", Period: 650, Deadline: 650,
			BasePriority: 2, WCET: 80, Periodic: true,
		}, core.ForkableBody{
			New:   func() any { return new(obdhState) },
			Clone: func(s any) any { c := *s.(*obdhState); return &c },
			Run: func(sv *core.Services, state any) {
				s := state.(*obdhState)
				for {
					sv.Compute(60)
					att, validity, rc := sv.ReadSamplingMessage("att_in")
					frame := fmt.Sprintf("hk#%03d att=%q valid=%v", s.seq, att, validity == apex.Valid)
					if rc != apex.NoError {
						frame = fmt.Sprintf("hk#%03d att=unavailable", s.seq)
					}
					if rc := sv.SendQueuingMessage("hk_out", []byte(frame), 0); rc == apex.NoError {
						opts.emit("P2", "OBDH queued %s", frame)
					} else {
						opts.emit("P2", "OBDH hk overflow: %s", rc)
					}
					s.seq++
					sv.PeriodicWait()
				}
			},
		})
		sv.StartProcess("obdh_housekeeping")
		inj.install(sv, "P2")
		sv.SetPartitionMode(model.ModeNormal)
	}
}

// ttcInit is P3: Telemetry, Tracking and Command. It drains the
// housekeeping queue and "downlinks" the frames.
func ttcInit(opts *Options, inj *injection) core.InitFunc {
	return func(sv *core.Services) {
		sv.CreateQueuingPort("hk_in", apex.Destination)
		sv.CreateForkableProcess(model.TaskSpec{
			Name: "ttc_downlink", Period: 650, Deadline: 650,
			BasePriority: 2, WCET: 80, Periodic: true,
		}, core.ForkableBody{
			New:   func() any { return new(ttcState) },
			Clone: func(s any) any { c := *s.(*ttcState); return &c },
			Run: func(sv *core.Services, state any) {
				s := state.(*ttcState)
				for {
					sv.Compute(20)
					for {
						frame, rc := sv.ReceiveQueuingMessage("hk_in", 0)
						if rc != apex.NoError {
							break
						}
						s.downlinked++
						sv.Compute(5) // radio framing
						opts.emit("P3", "TTC downlink %s (total %d)", frame, s.downlinked)
					}
					sv.PeriodicWait()
				}
			},
		})
		sv.StartProcess("ttc_downlink")
		inj.install(sv, "P3")
		sv.SetPartitionMode(model.ModeNormal)
	}
}

// fdirInit is P4: Fault Detection, Isolation and Recovery. It monitors the
// attitude channel validity; with FDIRSwitchOnStale > 0, consecutive stale
// or missing samples trigger a mode-based schedule switch to chi2 — the
// paper's motivating use of schedule switching for "accommodation of
// component failures".
func fdirInit(opts *Options, inj *injection) core.InitFunc {
	return func(sv *core.Services) {
		sv.CreateSamplingPort("att_in", apex.Destination)
		sv.CreateForkableProcess(model.TaskSpec{
			Name: "fdir_monitor", Period: 1300, Deadline: 1300,
			BasePriority: 1, WCET: 90, Periodic: true,
		}, core.ForkableBody{
			New:   func() any { return new(fdirState) },
			Clone: func(s any) any { c := *s.(*fdirState); return &c },
			Run: func(sv *core.Services, state any) {
				s := state.(*fdirState)
				for {
					sv.Compute(50)
					_, validity, rc := sv.ReadSamplingMessage("att_in")
					if rc != apex.NoError || validity != apex.Valid {
						s.stale++
						opts.emit("P4", "FDIR stale attitude (%d consecutive)", s.stale)
					} else {
						s.stale = 0
						opts.emit("P4", "FDIR attitude nominal")
					}
					if !s.switched && opts.FDIRSwitchOnStale > 0 && s.stale >= opts.FDIRSwitchOnStale {
						st := sv.GetModuleScheduleStatus()
						if st.CurrentName != "chi2" {
							if rc := sv.SetModuleScheduleByName("chi2"); rc == apex.NoError {
								s.switched = true
								opts.emit("P4", "FDIR requested schedule chi2")
							}
						}
					}
					sv.PeriodicWait()
				}
			},
		})
		sv.StartProcess("fdir_monitor")
		inj.install(sv, "P4")
		sv.SetPartitionMode(model.ModeNormal)
	}
}
