// Fault injection for the satellite scenario, generalized from the paper's
// single faulty process (Sect. 6) into a declarative fault catalogue: each
// FaultSpec installs an adversarial process (or process pair) inside the
// targeted partition's containment domain, so campaigns can sweep systematic
// multi-fault scenarios while the module's robustness mechanisms — deadline
// violation monitoring, spatial partitioning, health monitoring, sporadic
// inter-arrival enforcement — are exercised under load.
package workload

import (
	"fmt"
	"strings"

	"air/internal/apex"
	"air/internal/core"
	"air/internal/hm"
	"air/internal/mmu"
	"air/internal/model"
	"air/internal/tick"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

// Fault classes.
const (
	// FaultDeadlineOverrun installs the paper's Sect. 6 faulty process: a
	// periodic process whose computation exceeds its time capacity (or never
	// completes), so its deadline expires and the HM restart action re-arms
	// it every activation.
	FaultDeadlineOverrun FaultKind = iota + 1
	// FaultMemoryViolation installs a process that periodically writes
	// outside its partition's addressing space; the MMU faults, health
	// monitoring confines the error to the partition (cold restart by
	// default).
	FaultMemoryViolation
	// FaultModeSwitchStorm installs a process that floods SET_MODULE_SCHEDULE
	// with alternating chi1/chi2 requests — the paper's E4 adversarial case
	// (successive requests must coalesce at the MTF boundary).
	FaultModeSwitchStorm
	// FaultSporadicOverload installs a sporadic server plus a driver that
	// fires arrivals faster than the server's minimum inter-arrival bound,
	// exercising the POS event-overload protection (Sect. 3.3).
	FaultSporadicOverload
	// FaultIPCFlood installs a process that bursts messages into the
	// housekeeping queuing channel beyond its depth, starving legitimate
	// senders.
	FaultIPCFlood
	// FaultRestartStorm installs a process that raises an APPLICATION_ERROR
	// whose HM rule cold-starts the partition — on every incarnation, for
	// Magnitude incarnations. Each restart re-installs the injector, so the
	// partition storms through restart after restart: the failure mode the
	// recovery layer's budgets and quarantine exist to contain.
	FaultRestartStorm
	// FaultPartitionHang installs a process that busy-spins with no deadline
	// for Magnitude incarnations: invisible to deadline monitoring, it
	// silently consumes the partition's windows until the liveness watchdog
	// (core.Config.HangTicks) reports PARTITION_HANG.
	FaultPartitionHang
)

// String renders the fault kind in the spelling used by campaign
// configuration files.
func (k FaultKind) String() string {
	switch k {
	case FaultDeadlineOverrun:
		return "deadline-overrun"
	case FaultMemoryViolation:
		return "memory-violation"
	case FaultModeSwitchStorm:
		return "mode-switch-storm"
	case FaultSporadicOverload:
		return "sporadic-overload"
	case FaultIPCFlood:
		return "ipc-flood"
	case FaultRestartStorm:
		return "restart-storm"
	case FaultPartitionHang:
		return "partition-hang"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ParseFaultKind resolves the configuration-file spelling of a fault kind.
func ParseFaultKind(s string) (FaultKind, error) {
	for k := FaultDeadlineOverrun; k <= FaultPartitionHang; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown fault kind %q", s)
}

// FaultKinds lists every fault class.
func FaultKinds() []FaultKind {
	return []FaultKind{FaultDeadlineOverrun, FaultMemoryViolation,
		FaultModeSwitchStorm, FaultSporadicOverload, FaultIPCFlood,
		FaultRestartStorm, FaultPartitionHang}
}

// FaultKindForProcess maps an injector process name (stable across restarts)
// back to its fault kind, so campaign analysis can attribute HM events to
// the fault class that provoked them. Reports false for regular application
// processes.
func FaultKindForProcess(name string) (FaultKind, bool) {
	for k, base := range injectorBaseNames { //air:allow(maprange): base names are distinct, so at most one entry matches
		if name == base || strings.HasPrefix(name, base+"_") {
			return k, true
		}
	}
	return 0, false
}

// FaultSpec declares one injected fault. Zero-valued parameters take
// per-kind defaults (see withDefaults).
type FaultSpec struct {
	// Kind selects the fault class.
	Kind FaultKind
	// Partition targets the containment domain; empty selects the per-kind
	// default (overrun→P1, memory→P2, storm→P4, overload→P3, flood→P2).
	Partition model.PartitionName
	// Deadline is the overrun process's time capacity (default 220,
	// expiring between P1's windows like the paper's demonstration).
	Deadline tick.Ticks
	// Magnitude scales the fault: overrun computation per activation (0 =
	// never completes), sporadic server minimum inter-arrival bound
	// (default 400), flood burst size in messages (default 32), number of
	// faulty incarnations for restart-storm (default 8) and partition-hang
	// (default 2) — the counter survives cold restarts, which is what makes
	// those faults storms rather than one-shot errors.
	Magnitude tick.Ticks
	// Period is the injector's activation period (per-kind default).
	Period tick.Ticks
	// Phase delays the injector's first activation (DELAYED_START).
	Phase tick.Ticks
}

// faultDefaults holds the per-kind parameter defaults.
var faultDefaults = map[FaultKind]FaultSpec{
	FaultDeadlineOverrun:  {Partition: "P1", Deadline: 220, Period: 1300},
	FaultMemoryViolation:  {Partition: "P2", Period: 650, Phase: 300},
	FaultModeSwitchStorm:  {Partition: "P4", Period: 325},
	FaultSporadicOverload: {Partition: "P3", Magnitude: 400, Period: 100},
	FaultIPCFlood:         {Partition: "P2", Magnitude: 32, Period: 650},
	FaultRestartStorm:     {Partition: "P1", Magnitude: 8, Period: 650},
	FaultPartitionHang:    {Partition: "P3", Magnitude: 2, Period: 650},
}

// withDefaults fills zero-valued parameters with the per-kind defaults and
// clamps them into ranges a valid TaskSpec accepts.
func (f FaultSpec) withDefaults() FaultSpec {
	d, ok := faultDefaults[f.Kind]
	if !ok {
		return f
	}
	if f.Partition == "" {
		f.Partition = d.Partition
	}
	if f.Deadline == 0 {
		f.Deadline = d.Deadline
	}
	if f.Magnitude == 0 {
		f.Magnitude = d.Magnitude
	}
	if f.Period == 0 {
		f.Period = d.Period
	}
	if f.Phase == 0 {
		f.Phase = d.Phase
	}
	if f.Period < 1 {
		f.Period = 1
	}
	if f.Kind == FaultDeadlineOverrun {
		// The overrun process is periodic with a constrained deadline.
		if f.Deadline < 1 {
			f.Deadline = 1
		}
		if f.Deadline > f.Period {
			f.Deadline = f.Period
		}
	}
	return f
}

// Target resolves the partition this fault injects into, applying the
// per-kind default when the spec leaves it unset — the set campaign runs use
// to judge error confinement (HM events outside every fault's target mean
// the fault leaked across partition boundaries).
func (f FaultSpec) Target() model.PartitionName {
	return f.withDefaults().Partition
}

// Validate rejects structurally impossible fault specifications. It is the
// check campaign configuration loading applies before a sweep starts.
func (f FaultSpec) Validate() error {
	if _, ok := faultDefaults[f.Kind]; !ok {
		return fmt.Errorf("workload: unknown fault kind %d", int(f.Kind))
	}
	if f.Partition != "" && !model.Fig8System().HasPartition(f.Partition) {
		return fmt.Errorf("workload: fault %s targets unknown partition %s", f.Kind, f.Partition)
	}
	for _, v := range []tick.Ticks{f.Deadline, f.Magnitude, f.Period, f.Phase} {
		if v < 0 {
			return fmt.Errorf("workload: fault %s has a negative parameter", f.Kind)
		}
	}
	return nil
}

// ValidateFaults validates a fault list.
func ValidateFaults(faults []FaultSpec) error {
	for i, f := range faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// faultInstance is one resolved injector: its defaulted spec plus the stable
// process names allocated at configuration time (restarts re-install the
// same names).
type faultInstance struct {
	spec FaultSpec
	name string // injector process
	aux  string // auxiliary process (sporadic server)
	// remaining counts the faulty incarnations left for restart-storm and
	// partition-hang injectors. It lives outside the partition (on the
	// injection, which survives cold restarts) so each re-installed
	// incarnation continues the storm where the previous one left off.
	remaining *int
}

// injection wires the resolved fault list into the partition initializers.
type injection struct {
	opts        *Options
	byPartition map[model.PartitionName][]faultInstance
}

// injectorBaseNames keeps the paper-era process name for the deadline
// overrun ("faulty"), which tests and the Sect. 6 demonstration reference.
var injectorBaseNames = map[FaultKind]string{
	FaultDeadlineOverrun:  "faulty",
	FaultMemoryViolation:  "memfault",
	FaultModeSwitchStorm:  "storm",
	FaultSporadicOverload: "overload",
	FaultIPCFlood:         "flood",
	FaultRestartStorm:     "rstorm",
	FaultPartitionHang:    "hang",
}

// newInjection resolves the options' fault list into per-partition injector
// instances.
func newInjection(opts *Options) *injection {
	inj := &injection{
		opts:        opts,
		byPartition: make(map[model.PartitionName][]faultInstance),
	}
	counts := make(map[model.PartitionName]map[FaultKind]int)
	for _, f := range opts.Faults {
		f = f.withDefaults()
		if counts[f.Partition] == nil {
			counts[f.Partition] = make(map[FaultKind]int)
		}
		counts[f.Partition][f.Kind]++
		name := injectorBaseNames[f.Kind]
		if name == "" {
			continue // unknown kind: skip rather than crash the scenario
		}
		if n := counts[f.Partition][f.Kind]; n > 1 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		inst := faultInstance{spec: f, name: name}
		if f.Kind == FaultSporadicOverload {
			inst.aux = name + "_srv"
		}
		if f.Kind == FaultRestartStorm || f.Kind == FaultPartitionHang {
			r := int(f.Magnitude)
			inst.remaining = &r
		}
		inj.byPartition[f.Partition] = append(inj.byPartition[f.Partition], inst)
	}
	return inj
}

// hangTicks is the partition liveness watchdog threshold
// (core.Config.HangTicks) the injected faults need: a partition hang is
// undetectable without the watchdog, so an injected one arms it at two of
// the hang target's 100-tick windows plus margin. 0 leaves it disarmed.
func (inj *injection) hangTicks() tick.Ticks {
	for _, insts := range inj.byPartition { //air:allow(maprange): existence check over all entries; order-insensitive
		for _, inst := range insts {
			if inst.spec.Kind == FaultPartitionHang {
				return 260
			}
		}
	}
	return 0
}

// processTable merges the HM process-level rules the partition's injectors
// need into its base table: deadline overruns want the paper's restart
// response; storm/overload/flood injectors report their activity through
// RAISE_APPLICATION_ERROR and must not be stopped for it.
func (inj *injection) processTable(p model.PartitionName, base hm.Table) hm.Table {
	insts := inj.byPartition[p]
	if len(insts) == 0 {
		return base
	}
	t := make(hm.Table, len(base)+2)
	for code, rule := range base { //air:allow(maprange): map-to-map copy; order-insensitive
		t[code] = rule
	}
	for _, inst := range insts {
		switch inst.spec.Kind {
		case FaultDeadlineOverrun:
			if _, ok := t[hm.ErrDeadlineMissed]; !ok {
				t[hm.ErrDeadlineMissed] = hm.Rule{Action: hm.ActionRestartProcess}
			}
		case FaultModeSwitchStorm, FaultSporadicOverload, FaultIPCFlood:
			if _, ok := t[hm.ErrApplicationError]; !ok {
				t[hm.ErrApplicationError] = hm.Rule{Action: hm.ActionIgnore}
			}
		case FaultRestartStorm:
			// The storm's APPLICATION_ERROR must cold-start the partition —
			// that escalation IS the fault. It wins over the Ignore rule the
			// reporting-style injectors install, so co-located injectors do
			// not defuse the storm.
			t[hm.ErrApplicationError] = hm.Rule{Action: hm.ActionColdStartPartition}
		}
	}
	return t
}

// install creates and starts the partition's injector processes. It runs
// inside partition initialization (before SET_PARTITION_MODE NORMAL), so
// restarts re-install every injector.
func (inj *injection) install(sv *core.Services, p model.PartitionName) {
	for _, inst := range inj.byPartition[p] {
		switch inst.spec.Kind {
		case FaultDeadlineOverrun:
			inj.installOverrun(sv, p, inst)
		case FaultMemoryViolation:
			inj.installMemoryViolation(sv, p, inst)
		case FaultModeSwitchStorm:
			inj.installModeSwitchStorm(sv, p, inst)
		case FaultSporadicOverload:
			inj.installSporadicOverload(sv, p, inst)
		case FaultIPCFlood:
			inj.installIPCFlood(sv, p, inst)
		case FaultRestartStorm:
			inj.installRestartStorm(sv, p, inst)
		case FaultPartitionHang:
			inj.installPartitionHang(sv, p, inst)
		}
	}
}

// startInjector starts a created injector, honoring its phase.
func startInjector(sv *core.Services, name string, phase tick.Ticks) {
	if phase > 0 {
		sv.DelayedStartProcess(name, phase)
		return
	}
	sv.StartProcess(name)
}

// installOverrun is the generalized Sect. 6 faulty process: with Magnitude 0
// it never completes (the paper's runaway computation); with Magnitude > 0
// it computes that many ticks per activation, overrunning whenever the
// magnitude exceeds the time capacity.
func (inj *injection) installOverrun(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	wcet := tick.Ticks(200)
	if wcet > spec.Deadline {
		wcet = spec.Deadline
	}
	opts := inj.opts
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: spec.Deadline,
		BasePriority: 8, WCET: wcet, Periodic: true,
	}, func(sv *core.Services) {
		opts.emit(p, "faulty process activated")
		for {
			if spec.Magnitude > 0 {
				sv.Compute(spec.Magnitude)
				sv.PeriodicWait()
			} else {
				sv.Compute(1 << 30) // runaway computation, never yields
			}
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// badVirtAddr lies far outside every partition's default addressing-space
// layout, so the injector's store always takes the MMU fault path.
const badVirtAddr = mmu.VirtAddr(0x0800_0000)

// installMemoryViolation writes outside the partition's addressing space
// every activation; the decided recovery action (cold restart by default)
// terminates the injector, and the re-run initialization re-installs it.
func (inj *injection) installMemoryViolation(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 9, WCET: 10, Periodic: true,
	}, func(sv *core.Services) {
		for {
			sv.Compute(2)
			opts.emit(p, "memfault writing outside the partition space")
			sv.MemWrite(badVirtAddr, []byte{0xde, 0xad})
			// Unreachable under restart-type recovery; reachable when the
			// partition's HM table downgrades the violation to a log.
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// installModeSwitchStorm floods the module schedule services with
// alternating switch requests; each request is also reported to health
// monitoring (APPLICATION_ERROR, logged under an Ignore rule) so campaigns
// can attribute HM activity to this fault class.
func (inj *injection) installModeSwitchStorm(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 9, WCET: 5, Periodic: true,
	}, func(sv *core.Services) {
		for {
			sv.Compute(1)
			target := "chi2"
			if sv.GetModuleScheduleStatus().NextName == "chi2" {
				target = "chi1"
			}
			rc := sv.SetModuleScheduleByName(target)
			opts.emit(p, "storm requested %s (%s)", target, rc)
			sv.RaiseApplicationError(fmt.Sprintf("mode-switch storm: requested %s (%s)", target, rc))
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// installSporadicOverload pairs a sporadic server (minimum inter-arrival =
// Magnitude) with a periodic driver firing a burst of back-to-back arrivals
// every Period ticks — faster than any positive inter-arrival bound allows.
// Rejected arrivals — the POS event-overload protection working — are
// reported as APPLICATION_ERRORs under an Ignore rule.
func (inj *injection) installSporadicOverload(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	gap := spec.Magnitude
	if gap < 1 {
		gap = 1
	}
	wcet := tick.Ticks(20)
	if wcet > gap {
		wcet = gap
	}
	sv.CreateProcess(model.TaskSpec{
		Name: inst.aux, Period: gap, Deadline: gap,
		BasePriority: 7, WCET: wcet, Periodic: false,
	}, func(sv *core.Services) {
		sv.Compute(wcet)
		// Returning stops the server (dormant) until the next accepted
		// arrival restarts it.
	})
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 6, WCET: 5, Periodic: true,
	}, func(sv *core.Services) {
		aux := inst.aux
		const attempts = 2
		for {
			sv.Compute(1)
			rejected := 0
			for i := 0; i < attempts; i++ {
				if rc := sv.StartProcess(aux); rc != apex.NoError {
					rejected++
				}
			}
			if rejected > 0 {
				opts.emit(p, "overload: %d/%d arrivals rejected", rejected, attempts)
				sv.RaiseApplicationError(fmt.Sprintf(
					"sporadic overload: %d/%d arrivals for %s rejected", rejected, attempts, aux))
			}
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// installRestartStorm raises a partition-restarting APPLICATION_ERROR on
// every incarnation while the cross-restart counter lasts; once exhausted
// the incarnation behaves healthily, so a recovery layer's half-open probe
// can eventually find the partition recovered (finite MTTR). The injector
// runs at the highest priority (0: lower value = higher priority) so each
// incarnation faults within a couple of granted ticks — the partition's
// windows are consumed by back-to-back restarts, the storm failure mode.
func (inj *injection) installRestartStorm(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 0, WCET: 5, Periodic: true,
	}, func(sv *core.Services) {
		for {
			sv.Compute(1)
			if *inst.remaining > 0 {
				*inst.remaining--
				opts.emit(p, "restart storm: raising partition fault (%d left)", *inst.remaining)
				// The cold-start action terminates this process; the re-run
				// initialization re-installs it and the storm continues.
				sv.RaiseApplicationError("restart storm: injected partition fault")
			}
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// installPartitionHang busy-spins with an infinite deadline while the
// cross-restart counter lasts: no deadline ever expires, so only the
// partition liveness watchdog (core.Config.HangTicks) can detect the hang
// and trigger the partition-level recovery that re-installs the injector.
// Unlike the reporting-style injectors, the hang runs at the highest
// priority (0: lower value = higher priority) so it starves the partition's
// legitimate processes — a hang that yields to supervised work is not a
// hang.
func (inj *injection) installPartitionHang(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 0, WCET: 5, Periodic: true,
	}, func(sv *core.Services) {
		for {
			sv.Compute(1)
			if *inst.remaining > 0 {
				*inst.remaining--
				opts.emit(p, "hang: entering busy spin (%d left)", *inst.remaining)
				sv.Compute(1 << 30) // silent no-progress spin, no deadline
			}
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}

// installIPCFlood bursts Magnitude messages into the housekeeping queuing
// channel every activation; once the channel depth is exceeded the rejected
// remainder is reported as an APPLICATION_ERROR under an Ignore rule.
func (inj *injection) installIPCFlood(sv *core.Services, p model.PartitionName, inst faultInstance) {
	spec := inst.spec
	opts := inj.opts
	burst := int(spec.Magnitude)
	if burst < 1 {
		burst = 1
	}
	sv.CreateProcess(model.TaskSpec{
		Name: inst.name, Period: spec.Period, Deadline: tick.Infinity,
		BasePriority: 9, WCET: 5, Periodic: true,
	}, func(sv *core.Services) {
		payload := []byte("FLOOD")
		for {
			sv.Compute(1)
			rejected := 0
			for i := 0; i < burst; i++ {
				if rc := sv.SendQueuingMessage("hk_out", payload, 0); rc != apex.NoError {
					rejected++
				}
			}
			if rejected > 0 {
				opts.emit(p, "flood: %d/%d sends rejected", rejected, burst)
				sv.RaiseApplicationError(fmt.Sprintf("ipc flood: %d/%d sends rejected", rejected, burst))
			}
			sv.PeriodicWait()
		}
	})
	startInjector(sv, inst.name, spec.Phase)
}
