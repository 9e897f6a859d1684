// Package obs is the module's unified observability spine: one typed event
// stream spanning every layer of the architecture — partition scheduling
// (PMK), process scheduling (POS), deadline monitoring (PAL via core),
// health monitoring, interpartition communication and the module kernel —
// published through a single Bus with pluggable sinks and an always-on,
// allocation-free metrics registry.
//
// The design follows the uniform low-overhead instrumentation plane argued
// for by partitioned-RTOS benchmarking practice: emitting an event with no
// sink attached costs a handful of counter increments and performs zero heap
// allocations, so instrumentation can stay enabled on the hot tick path.
// Sinks (a bounded ring for post-hoc inspection, a streaming JSONL writer
// for during-the-run export) are attached at integration time.
//
// Layer attribution: every event carries the emitting core's index
// (multicore modules share one spine), the partition and process it concerns
// and — for health-monitoring reports — the structured code/level/action
// triple of the HM decision.
package obs

import (
	"fmt"
	"strings"

	"air/internal/model"
	"air/internal/tick"
)

// Kind classifies spine events. The first twelve kinds are the module trace
// kinds (their numeric values and names are part of the JSONL trace format);
// the remaining kinds are the fine-grained scheduling and communication
// events published by the PMK, POS and IPC layers.
type Kind int

// Event kinds.
const (
	KindPartitionSwitch Kind = iota + 1
	KindScheduleSwitch
	KindDeadlineMiss
	KindHMAction
	KindPartitionRestart
	KindPartitionStopped
	KindProcessStopped
	KindProcessRestarted
	KindApplicationMessage
	KindModuleReset
	KindModuleHalt
	KindMemoryViolation
	// KindWindowActivation is emitted by the partition dispatcher when a
	// partition window begins (the heir partition receives the processor);
	// Latency carries the elapsed ticks since the partition last ran.
	KindWindowActivation
	// KindHeirSelection is emitted by the partition scheduler at every
	// partition preemption point, naming the selected heir.
	KindHeirSelection
	// KindPreemption is emitted when execution is taken away from a running
	// entity: with an empty Process it is a partition losing the processor
	// at a preemption point; with a Process it is a POS-level process
	// preemption inside a partition.
	KindPreemption
	// KindPortSend / KindPortReceive are emitted by the interpartition
	// communication channels on successful message transfer; Process carries
	// the port name and Detail the channel name.
	KindPortSend
	KindPortReceive
	// KindHMReport is emitted by the Health Monitor for every reported
	// error, carrying the structured Code/Level/Action fields.
	KindHMReport
	// KindRestartDeferred is emitted by the recovery orchestration layer when
	// a partition restart exceeds its restart budget and is postponed;
	// Latency carries the backoff delay in ticks.
	KindRestartDeferred
	// KindQuarantineEnter / KindQuarantineExit bracket a partition's
	// circuit-breaker quarantine; the exit event's Latency carries the total
	// ticks the partition spent quarantined (its MTTR contribution).
	KindQuarantineEnter
	KindQuarantineExit
	// KindScheduleDegrade / KindScheduleRestore record graceful-degradation
	// schedule changes: entering a safe-mode schedule and restoring the
	// nominal one; the restore event's Latency carries the ticks spent in
	// degraded mode.
	KindScheduleDegrade
	KindScheduleRestore
	// KindProcessRelease is emitted by the POS when a process activation is
	// released (start, delayed-start expiry or periodic release point is
	// announced); Latency carries the ticks from the announcement to the
	// activation's absolute deadline (0 when the process has no deadline,
	// negative when the deadline already passed while the partition was off
	// the processor).
	KindProcessRelease
	// KindProcessComplete is emitted by the POS when a periodic process
	// completes an activation (PERIODIC_WAIT); Latency carries the response
	// time: the completion instant minus the activation's nominal release
	// point.
	KindProcessComplete
	// KindSlackWarning is the deadline-miss early warning, emitted by the
	// timeline analyzer (internal/timeline) when an open activation's
	// remaining slack crosses the configured watermark — before the PAL/HM
	// detect anything; Latency carries the remaining ticks to the deadline.
	KindSlackWarning
	// KindModelViolation is emitted by the timeline analyzer when a
	// partition's supplied processor time over one activation cycle falls
	// short of its contracted budget (eqs. (19)–(24)); Latency carries the
	// shortfall in ticks.
	KindModelViolation
	// KindCampaignSubmitted is emitted by the fleet coordinator
	// (internal/fleet) when a campaign matrix is accepted; Latency carries
	// the campaign's run count. Fleet kinds live on the coordinator's own
	// registry — they never appear on a module's tick-domain spine — but
	// share the spine's kind space so the existing /metrics exporter
	// surfaces them without special cases.
	KindCampaignSubmitted
	// KindCampaignDone is emitted when a campaign's last lease merges;
	// Latency carries the campaign's run count.
	KindCampaignDone
	// KindLeaseIssued / KindLeaseCompleted bracket one lease of a
	// campaign's run space handed to a worker shard; Latency carries the
	// lease's run count.
	KindLeaseIssued
	KindLeaseCompleted
	// KindLeaseReclaimed is emitted when the work-stealing dispatcher takes
	// an expired lease back from a slow or dead shard for reissue; Latency
	// carries the lease's run count.
	KindLeaseReclaimed
	// KindShardJoined is emitted the first time a worker shard contacts the
	// coordinator.
	KindShardJoined
	// KindShardQuarantined is emitted when the coordinator's flap detector
	// trips for a shard whose leases repeatedly expired: the shard is denied
	// new leases until a half-open probe succeeds. Latency carries the
	// cooldown in milliseconds.
	KindShardQuarantined
	// KindShardReadmitted is emitted when a quarantined shard's half-open
	// probe lease completes and the shard is re-admitted to dispatch.
	KindShardReadmitted
	// KindLeaseRenewed is emitted when a worker heartbeat extends an issued
	// lease's reclamation deadline — the signal that a slow shard is alive,
	// not dead. Latency carries the lease's run count.
	KindLeaseRenewed

	kindCount = int(KindLeaseRenewed)
)

// TraceKinds lists the kinds a module's bounded trace ring admits: the
// twelve historical module-trace kinds, the recovery orchestration kinds
// (internal/recovery) and the timeline analyzer's findings
// (internal/timeline). All are coarse and low-frequency. The fine-grained
// scheduling, communication and HM-report kinds and the per-activation
// KindProcessRelease and KindProcessComplete stay out, so they cannot crowd
// coarse records out of bounded retention; the fleet kinds never reach a
// module's spine.
func TraceKinds() []Kind {
	return []Kind{
		KindPartitionSwitch, KindScheduleSwitch, KindDeadlineMiss, KindHMAction,
		KindPartitionRestart, KindPartitionStopped, KindProcessStopped,
		KindProcessRestarted, KindApplicationMessage, KindModuleReset,
		KindModuleHalt, KindMemoryViolation,
		KindRestartDeferred, KindQuarantineEnter, KindQuarantineExit,
		KindScheduleDegrade, KindScheduleRestore,
		KindSlackWarning, KindModelViolation,
	}
}

// kindNames indexes Kind → wire name. The first twelve entries are pinned by
// the JSONL trace schema (see internal/core's golden-file test).
var kindNames = [...]string{
	KindPartitionSwitch:    "PARTITION_SWITCH",
	KindScheduleSwitch:     "SCHEDULE_SWITCH",
	KindDeadlineMiss:       "DEADLINE_MISS",
	KindHMAction:           "HM_ACTION",
	KindPartitionRestart:   "PARTITION_RESTART",
	KindPartitionStopped:   "PARTITION_STOPPED",
	KindProcessStopped:     "PROCESS_STOPPED",
	KindProcessRestarted:   "PROCESS_RESTARTED",
	KindApplicationMessage: "APPLICATION_MESSAGE",
	KindModuleReset:        "MODULE_RESET",
	KindModuleHalt:         "MODULE_HALT",
	KindMemoryViolation:    "MEMORY_VIOLATION",
	KindWindowActivation:   "WINDOW_ACTIVATION",
	KindHeirSelection:      "HEIR_SELECTION",
	KindPreemption:         "PREEMPTION",
	KindPortSend:           "PORT_SEND",
	KindPortReceive:        "PORT_RECEIVE",
	KindHMReport:           "HM_REPORT",
	KindRestartDeferred:    "RESTART_DEFERRED",
	KindQuarantineEnter:    "QUARANTINE_ENTER",
	KindQuarantineExit:     "QUARANTINE_EXIT",
	KindScheduleDegrade:    "SCHEDULE_DEGRADE",
	KindScheduleRestore:    "SCHEDULE_RESTORE",
	KindProcessRelease:     "PROCESS_RELEASE",
	KindProcessComplete:    "PROCESS_COMPLETE",
	KindSlackWarning:       "SLACK_WARNING",
	KindModelViolation:     "MODEL_VIOLATION",
	KindCampaignSubmitted:  "CAMPAIGN_SUBMITTED",
	KindCampaignDone:       "CAMPAIGN_DONE",
	KindLeaseIssued:        "LEASE_ISSUED",
	KindLeaseCompleted:     "LEASE_COMPLETED",
	KindLeaseReclaimed:     "LEASE_RECLAIMED",
	KindShardJoined:        "SHARD_JOINED",
	KindShardQuarantined:   "SHARD_QUARANTINED",
	KindShardReadmitted:    "SHARD_READMITTED",
	KindLeaseRenewed:       "LEASE_RENEWED",
}

// String renders the kind.
func (k Kind) String() string {
	if k >= 1 && int(k) <= kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// kindByName inverts kindNames: the one name→Kind table, shared by
// KindFromString and ParseRecord.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, kindCount)
	for k := Kind(1); int(k) <= kindCount; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// KindFromString parses a wire name back into a Kind (0 for unknown names).
func KindFromString(s string) Kind { return kindByName[s] }

// ScheduleName recovers the target schedule from the detail line of a
// schedule event (KindScheduleSwitch, KindScheduleDegrade,
// KindScheduleRestore): its last space-separated word, as in "requested
// schedule chi2" or "degraded to schedule safe". It returns "" when the
// detail carries no name; slicing allocates nothing.
func ScheduleName(detail string) string {
	if i := strings.LastIndexByte(detail, ' '); i >= 0 {
		return detail[i+1:]
	}
	return ""
}

// Event is one spine record. The zero value of every field other than Time
// and Kind means "not applicable": events are small comparable values and
// are passed by value throughout, so emission never heap-allocates.
type Event struct {
	Time tick.Ticks
	Kind Kind
	// Core attributes the event to the emitting processor core (always 0 in
	// single-core modules).
	Core      int
	Partition model.PartitionName
	Process   string
	Detail    string
	// Latency is kind-dependent: for KindDeadlineMiss it is the detection
	// latency of the miss (ticks from the deadline instant to PAL
	// detection, Sect. 6); for KindWindowActivation it is the number of
	// ticks since the partition last held the processor; for
	// KindRestartDeferred the backoff delay; for KindQuarantineExit the
	// ticks spent quarantined (MTTR); for KindScheduleRestore the ticks
	// spent in degraded mode; for a KindPartitionRestart granted by the
	// recovery layer, the partition's restart count in the sliding budget
	// window. Zero otherwise.
	Latency tick.Ticks
	// Code, Level and Action carry the Health Monitor's structured decision
	// for KindHMReport events (ARINC 653 error code, error level and the
	// recovery action decided). Empty for other kinds.
	Code   string
	Level  string
	Action string
}

// String renders the event as a log line (the historical module trace
// format, extended with a core tag on multicore spines).
func (e Event) String() string {
	who := string(e.Partition)
	if e.Process != "" {
		who += "/" + e.Process
	}
	if who != "" {
		who = " " + who
	}
	if e.Core != 0 {
		return fmt.Sprintf("[%6d] c%d %s%s: %s", e.Time, e.Core, e.Kind, who, e.Detail)
	}
	return fmt.Sprintf("[%6d] %s%s: %s", e.Time, e.Kind, who, e.Detail)
}

// Sink consumes published events. Sinks run synchronously on the emitting
// path under the module's strict-alternation execution model: they must not
// block and must not retain references into concurrently mutated state
// (Event is a value; retaining it is fine).
type Sink interface {
	Emit(e Event)
}

// Bus is the spine: a metrics registry plus zero or more sinks. The zero
// number of sinks is the hot-path case — Emit then only updates the fixed
// counter arrays. A nil *Bus is valid and discards everything.
//
// A Bus is not internally synchronized: the module's strict alternation
// already serializes all emitters of one spine (multicore modules step cores
// in index order). Campaign workers each own a private spine.
//
// With batching enabled (SetBatching), sink delivery is deferred: Emit
// stages events into a fixed preallocated buffer and Flush hands them to the
// sinks in strict FIFO order — the module kernel flushes once per partition
// window instead of paying the sink fan-out per event. The metrics registry
// always observes immediately, so counter reads never need a flush; only
// sink-visible state (the trace ring, streaming exporters) is deferred, and
// every read path of those goes through Flush first. An event a sink emits
// while a flush delivers (the timeline analyzer's findings) goes straight to
// the sinks, as it would without batching.
type Bus struct {
	metrics Metrics
	sinks   []Sink
	// staged is the batch buffer: nil when batching is off; emptied (length
	// 0, capacity retained) by Flush. Appends never grow it past its initial
	// capacity, so steady-state staging allocates nothing.
	staged []Event
	// flushing is set while Flush delivers staged events.
	flushing bool
}

// batchCapacity is the staging buffer size: comfortably more events than the
// spine produces in one partition window, so the capacity-full early flush
// is the exception, not the rule.
const batchCapacity = 512

// NewBus creates an empty spine.
func NewBus() *Bus { return &Bus{} }

// SetBatching enables or disables deferred sink delivery. Disabling flushes
// whatever is staged, so no event is ever lost by toggling.
func (b *Bus) SetBatching(on bool) {
	if b == nil {
		return
	}
	if !on {
		b.Flush()
		b.staged = nil
		return
	}
	if b.staged == nil {
		b.staged = make([]Event, 0, batchCapacity)
	}
}

// Batching reports whether sink delivery is deferred.
func (b *Bus) Batching() bool { return b != nil && b.staged != nil }

// Flush delivers every staged event to the sinks in emission (FIFO) order.
// It is a no-op when batching is off, nothing is staged, or a flush is
// already delivering.
//
//air:hotpath
func (b *Bus) Flush() {
	if b == nil || len(b.staged) == 0 || b.flushing {
		return
	}
	b.flushing = true
	for _, e := range b.staged {
		for _, s := range b.sinks {
			s.Emit(e) //air:allow(call): sink fan-out, amortized to once per partition window by batching
		}
	}
	b.staged = b.staged[:0]
	b.flushing = false
}

// Attach adds a sink. Attaching a nil sink is a no-op.
func (b *Bus) Attach(s Sink) {
	if b == nil || s == nil {
		return
	}
	b.sinks = append(b.sinks, s)
}

// Active reports whether any sink is attached. Emitters can use it to skip
// building expensive Detail strings for events nobody will read (metrics
// never need them).
func (b *Bus) Active() bool { return b != nil && len(b.sinks) > 0 }

// Emit publishes one event: the metrics registry always observes it, then
// every attached sink receives it in attach order.
//
//air:hotpath
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	b.metrics.observe(e)
	if b.staged != nil && !b.flushing {
		if len(b.staged) == cap(b.staged) {
			b.Flush()
		}
		b.staged = append(b.staged, e) //air:allow(alloc): capacity-bounded — Flush above guarantees room, so the append never grows the staging buffer
		return
	}
	for _, s := range b.sinks {
		s.Emit(e) //air:allow(call): sinks are integration-chosen; the sink-free spine is the hot configuration, and attached sinks accept the spine's per-event cost knowingly
	}
}

// AdoptMetrics replaces the bus's registry state with a copy of src's —
// how a forked module's fresh spine continues the parent's monotonic
// counters so post-fork metrics snapshots match a module that simulated the
// whole history itself.
func (b *Bus) AdoptMetrics(src *Metrics) {
	if b == nil || src == nil {
		return
	}
	b.metrics = *src
}

// Metrics exposes the bus's registry.
func (b *Bus) Metrics() *Metrics {
	if b == nil {
		return nil
	}
	return &b.metrics
}

// Snapshot returns the registry's current state (nil-safe).
func (b *Bus) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	return b.metrics.Snapshot()
}

// Emitter couples a bus with a fixed core-attribution tag, giving the
// emitting layers (PMK, POS, IPC, HM) a zero-value-usable handle: the zero
// Emitter discards events, so layers need no nil checks and unit tests need
// no spine.
type Emitter struct {
	bus  *Bus
	core int
}

// NewEmitter binds a bus and a core tag.
func NewEmitter(b *Bus, core int) Emitter { return Emitter{bus: b, core: core} }

// Emit publishes the event with the emitter's core tag.
//
//air:hotpath
func (em Emitter) Emit(e Event) {
	if em.bus == nil {
		return
	}
	e.Core = em.core
	em.bus.Emit(e)
}

// Active reports whether emitted events reach any sink.
func (em Emitter) Active() bool { return em.bus.Active() }

// Bus returns the underlying bus (nil for the zero Emitter).
func (em Emitter) Bus() *Bus { return em.bus }
