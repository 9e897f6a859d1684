// Package fleet is the sharded campaign coordinator: it scales the
// fault-injection campaign engine (internal/campaign) from one process to a
// fleet of worker shards, keeping the engine's defining property — results
// are a pure function of (seed, runs, matrix), byte-identical however the
// work is distributed.
//
// The design exploits the campaign engine's structure. Every run is an
// independent, deterministic simulation keyed by (campaign seed, run
// index), so the campaign matrix is a seed space that can be partitioned
// arbitrarily. The coordinator slices the run space [0, Runs) into
// contiguous, fixed-size leases and hands them to worker shards on demand
// (pull-based work stealing: fast shards simply acquire more leases, and a
// lease whose holder goes quiet past its TTL is reclaimed and reissued to
// the next shard that asks). A lease carries the coordinator's terms:
// whether it retains per-run observations, and how often to heartbeat.
// Workers execute a lease with campaign.RunShard and report one form: the
// observations, which a retaining coordinator folds itself, or their fold,
// a partial campaign.Aggregate — the streaming form that keeps worker and
// coordinator memory independent of campaign size. The coordinator merges
// lease partials strictly in lease order (Aggregate.Merge is exact for
// in-order contiguous merges), so the final aggregate is byte-identical to
// a single-process campaign.Run.
//
// Durability: every accepted campaign and every completed lease is appended
// to the journal, a durable.Log of CRC-framed JSON records synced per
// record. A restarted coordinator replays the journal under the durable
// recovery rule (a torn final record is dropped, a corrupt one fails the
// start) and reissues only the leases that never completed; a killed shard
// loses only its in-flight leases. Completion is idempotent — if a reclaimed lease is
// finished by both the slow original holder and the reissued one, the
// second completion is dropped (both are byte-identical by determinism).
//
// The coordinator is exposed three ways: in-process (RunLocal, the
// cmd/aircampaign local mode), over HTTP (Handler/Client, the
// cmd/aircampaignd daemon and its worker processes), and through the
// existing telemetry surface — it implements timeline.Source, so the
// merged campaign state and fleet-level lease/shard metrics ride the
// /metrics Prometheus exporter unchanged.
package fleet

import (
	"time"

	"air/internal/campaign"
	"air/internal/wire"
)

// Lease is one contiguous slice of a campaign's run space, handed to a
// worker shard for execution, with the coordinator's terms for holding it.
// Leases are identified by (Campaign, Index); Index orders the merge.
type Lease struct {
	// Campaign is the owning campaign's coordinator-assigned ID.
	Campaign string `json:"campaign"`
	// Index is the lease's position in the campaign's lease sequence.
	Index int `json:"index"`
	// Start and End delimit the half-open run range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Retain and RenewEvery are the coordinator's terms. Retain: it keeps
	// per-run observations (Options.KeepObservations), so the holder
	// completes the lease with them, not with their aggregate. RenewEvery:
	// how often the holder heartbeats the lease while running it (0 = never).
	Retain     bool          `json:"retain,omitempty"`
	RenewEvery time.Duration `json:"renewEvery,omitempty"`
}

// Runs is the number of runs the lease covers.
func (l Lease) Runs() int { return l.End - l.Start }

// appendLease appends l as encoding/json writes it.
func appendLease(e *wire.Encoder, l *Lease) {
	e.Raw(`{"campaign":`)
	e.Str(l.Campaign)
	e.Raw(`,"index":`)
	e.Int(int64(l.Index))
	e.Raw(`,"start":`)
	e.Int(int64(l.Start))
	e.Raw(`,"end":`)
	e.Int(int64(l.End))
	if l.Retain {
		e.Raw(`,"retain":true`)
	}
	e.OmitemptyInt(`,"renewEvery":`, int64(l.RenewEvery))
	e.Raw("}")
}

// parseLease reads into the zero l one lease as appendLease writes it, any
// member of which may be left out.
func parseLease(p *wire.Parser, l *Lease) {
	p.Object()
	if p.Field(`"campaign":`) {
		l.Campaign = p.Str()
	}
	if p.Field(`"index":`) {
		l.Index = p.Int()
	}
	if p.Field(`"start":`) {
		l.Start = p.Int()
	}
	if p.Field(`"end":`) {
		l.End = p.Int()
	}
	if p.Field(`"retain":`) {
		l.Retain = p.True()
	}
	if p.Field(`"renewEvery":`) {
		l.RenewEvery = time.Duration(p.NonzeroInt64())
	}
	p.End()
}

// AcquireState is the outcome of asking the coordinator for work.
type AcquireState int

const (
	// Granted: a lease was issued; execute it and Complete.
	Granted AcquireState = iota
	// Wait: no lease is available right now, but unfinished leases are
	// outstanding on other shards — poll again (one may be reclaimed).
	Wait
	// Drained: every lease of every campaign is complete; a finite worker
	// can exit.
	Drained
)

// String renders the state.
func (s AcquireState) String() string {
	switch s {
	case Granted:
		return "granted"
	case Wait:
		return "wait"
	case Drained:
		return "drained"
	}
	return "unknown"
}

// Service is the coordinator surface a worker shard needs. The Coordinator
// implements it directly (in-process shards); Client implements it over
// HTTP (worker processes), the path Chaos.Transport faults.
type Service interface {
	// Acquire asks for a lease on behalf of the named worker.
	Acquire(worker string) (Lease, AcquireState, error)
	// Spec returns the executable spec of a campaign (fetched once per
	// campaign by each shard, then cached).
	Spec(campaignID string) (campaign.Spec, error)
	// Complete reports a finished lease with its shard result. Completing
	// an already-completed lease is a no-op, so Complete is safe to retry
	// blindly — the resilience the whole fleet protocol leans on.
	Complete(worker string, l Lease, sh *campaign.Shard) error
	// Heartbeat reports the worker alive. A non-nil lease asks the
	// coordinator to extend that lease's reclamation deadline (the
	// live-but-slow signal); retries is the worker's cumulative transport
	// retry count, surfaced on /metrics. Heartbeats are best-effort: workers
	// ignore heartbeat errors.
	Heartbeat(worker string, l *Lease, retries int64) error
}

// LeaseCounts breaks a campaign's leases down by state.
type LeaseCounts struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Issued  int `json:"issued"`
	Done    int `json:"done"`
}

// Status is one campaign's progress view (GET /campaigns/{id}).
type Status struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
	Runs int    `json:"runs"`
	MTFs int    `json:"mtfsPerRun"`
	// RunsDone counts runs whose lease has completed; RunsMerged counts
	// runs already folded into the in-order merge prefix (RunsMerged ≤
	// RunsDone: a completed lease waits for its predecessors).
	RunsDone   int         `json:"runsDone"`
	RunsMerged int         `json:"runsMerged"`
	Leases     LeaseCounts `json:"leases"`
	Done       bool        `json:"done"`
}

// WorkerStatus is one shard's liveness view.
type WorkerStatus struct {
	// FirstSeenMillis/LastSeenMillis are Unix milliseconds of the shard's
	// first and latest coordinator contact (any RPC, heartbeats included).
	FirstSeenMillis int64 `json:"firstSeenMillis"`
	LastSeenMillis  int64 `json:"lastSeenMillis"`
	// Leases counts the shard's completed leases.
	Leases int `json:"leases"`
	// Live reports contact within the coordinator's liveness window.
	Live bool `json:"live"`
	// BeatAgeMillis is how long ago the shard last contacted the
	// coordinator — the heartbeat-liveness age exported on /metrics.
	BeatAgeMillis int64 `json:"beatAgeMillis"`
	// Retries is the shard's cumulative transport retry count, as last
	// reported by its heartbeats.
	Retries int64 `json:"retries,omitempty"`
	// Expiries counts lease expiries attributed to the shard inside the
	// current flap-detection window.
	Expiries int `json:"expiries,omitempty"`
	// Quarantined reports the shard tripped the flap detector: it is denied
	// new leases until its half-open probe lease completes.
	Quarantined bool `json:"quarantined,omitempty"`
	// Probing reports the shard is half-open: one probe lease is in flight,
	// and its fate decides re-admission vs a doubled cooldown.
	Probing bool `json:"probing,omitempty"`
}

// FleetStatus is the coordinator-wide progress view (GET /campaigns).
type FleetStatus struct {
	Campaigns []Status                `json:"campaigns"`
	Workers   map[string]WorkerStatus `json:"workers,omitempty"`
}

// Options configures a Coordinator.
type Options struct {
	// LeaseSize is the number of runs per lease (default 64). Smaller
	// leases steal and resume at finer grain; larger leases amortize
	// coordination. The journal pins each campaign's lease size at submit,
	// so resumed campaigns reshard identically.
	LeaseSize int
	// LeaseTTL bounds how long an issued lease may go uncompleted before
	// the work-stealing dispatcher reclaims it for reissue. 0 disables
	// reclamation (in-process shards cannot die independently).
	LeaseTTL time.Duration
	// LivenessWindow bounds how stale a shard's last contact may be before
	// Status reports it dead (default 15s).
	LivenessWindow time.Duration
	// JournalPath, when non-empty, makes the coordinator durable: accepted
	// campaigns and completed leases append to this JSONL file, and a new
	// coordinator constructed over the same path resumes with only
	// unfinished leases pending.
	JournalPath string
	// KeepObservations retains per-run observations for finished
	// campaigns' Result artifacts; leases tell workers to ship them
	// (Lease.Retain). Off, the coordinator stores only the O(1) merged
	// aggregate — the configuration for campaigns of millions of runs.
	KeepObservations bool
	// QuarantineAfter is the flap-detector threshold: a worker whose issued
	// leases expire this many times within QuarantineWindow is quarantined —
	// denied new leases until a cooldown lapses and a half-open probe lease
	// completes. 0 defaults to 3; negative disables the detector. The
	// detector uses recovery.Breaker, the partitions' circuit breaker, on
	// wall-clock durations: flapping shards cost latency (every expiry
	// re-runs a lease), so they are idled instead of fed.
	QuarantineAfter int
	// QuarantineWindow is the sliding window the expiries are counted over
	// (default 10m).
	QuarantineWindow time.Duration
	// QuarantineCooldown is the first quarantine duration; each failed
	// half-open probe doubles it, capped at QuarantineCooldownMax (defaults
	// 30s and 8× the cooldown).
	QuarantineCooldown    time.Duration
	QuarantineCooldownMax time.Duration
	// ArchiveRoot, when non-empty, durably stores the flight archives
	// shipped by workers completing leases of archiving campaigns:
	// campaign C's run r lands under <ArchiveRoot>/<C>/run-0000r/, and each
	// campaign keeps an index.json mapping runs to seeds and directories.
	// Files are stored before the completion is journaled, so a resume
	// re-stores deterministic duplicates rather than losing archives.
	// Shipped archives arriving with no ArchiveRoot are dropped.
	ArchiveRoot string
	// Clock supplies wall time for lease TTLs and shard liveness — never
	// simulation state. Nil defaults to the real clock; tests inject a
	// fake to exercise reclamation deterministically.
	Clock func() time.Time
}

// renewFraction divides the shorter of the lease TTL and the liveness
// window into the heartbeat interval every lease grants (renewEvery).
const renewFraction = 4

func (o Options) renewEvery() time.Duration {
	if o.LeaseTTL > 0 && o.LeaseTTL < o.LivenessWindow {
		return o.LeaseTTL / renewFraction
	}
	return o.LivenessWindow / renewFraction
}

func (o Options) withDefaults() Options {
	if o.LeaseSize <= 0 {
		o.LeaseSize = 64
	}
	if o.LivenessWindow <= 0 {
		o.LivenessWindow = 15 * time.Second
	}
	if o.QuarantineAfter == 0 {
		o.QuarantineAfter = 3
	}
	if o.QuarantineWindow <= 0 {
		o.QuarantineWindow = 10 * time.Minute
	}
	if o.QuarantineCooldown <= 0 {
		o.QuarantineCooldown = 30 * time.Second
	}
	if o.QuarantineCooldownMax <= 0 {
		o.QuarantineCooldownMax = 8 * o.QuarantineCooldown
	}
	if o.Clock == nil {
		o.Clock = wallclock
	}
	return o
}

// wallclock is the coordinator's single wall-time tap: lease deadlines,
// liveness windows and quarantine cooldowns read it through Options.Clock.
func wallclock() time.Time {
	//air:allow(wallclock): wall time feeds lease TTLs, shard liveness and quarantine cooldowns only — never campaign results; tests inject a fake via Options.Clock
	return time.Now()
}
