package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"air/internal/campaign"
	"air/internal/durable"
	"air/internal/obs"
	"air/internal/recovery"
	"air/internal/tick"
	"air/internal/timeline"
)

// leaseState tracks one lease through its lifecycle.
type leaseState int

const (
	leasePending leaseState = iota
	leaseIssued
	leaseDone
)

// lease is the coordinator-side record of one run-range lease.
type lease struct {
	start, end int
	state      leaseState
	worker     string
	// deadline is the reclamation instant of an issued lease (zero = never
	// reclaimed).
	deadline time.Time
	// partial holds the shard aggregate between completion and its in-order
	// merge, after which it is released (nil).
	partial *campaign.Aggregate
	// observations are retained only under Options.KeepObservations.
	observations []campaign.Observation
}

// campaignState is one accepted campaign.
type campaignState struct {
	id        string
	spec      campaign.Spec
	leaseSize int
	leases    []*lease
	// cursor is the lowest index that might still be pending (monotone;
	// acquire scans from here).
	cursor int
	// mergedThrough counts leases [0, mergedThrough) folded into merged.
	mergedThrough int
	merged        campaign.Aggregate
	runsDone      int
	pending       int
	issued        int
	done          int
	// archIndex catalogs the campaign's durably stored run archives
	// (Options.ArchiveRoot), mirrored to index.json and reloaded on resume.
	archIndex map[int]ArchiveIndexEntry
}

// ArchiveIndexEntry is one stored run archive in a campaign's index.json:
// the run's identity and where its archive directory sits relative to the
// campaign's archive root.
type ArchiveIndexEntry struct {
	Run      int    `json:"run"`
	Seed     uint64 `json:"seed"`
	Records  uint64 `json:"records"`
	Segments uint64 `json:"segments"`
	Bytes    uint64 `json:"bytes"`
	Dir      string `json:"dir"`
}

func (cs *campaignState) complete() bool { return cs.done == len(cs.leases) }

// workerInfo tracks one shard's coordinator contacts and its standing with
// the flap detector.
type workerInfo struct {
	firstSeen time.Time
	lastSeen  time.Time
	leases    int
	// retries is the shard's cumulative transport retry count, as last
	// reported by its heartbeats (monotone).
	retries int64
	// breaker is the flap detector over lease expiries; probe is its
	// half-open lease, whose completion re-admits and whose expiry reopens.
	breaker recovery.Breaker[time.Duration]
	probe   Lease
}

// Coordinator shards campaign run spaces into leases, dispatches them to
// worker shards with work-stealing reclamation, and folds the returned
// partial aggregates into deterministic merged results. Safe for concurrent
// use; implements Service (for in-process shards) and timeline.Source (for
// the telemetry server).
type Coordinator struct {
	mu    sync.Mutex
	opts  Options
	epoch time.Time // construction-time clock reading; breakers run on offsets from it
	//air:guard(mu)
	campaigns map[string]*campaignState
	//air:guard(mu)
	order []string
	//air:guard(mu)
	workers map[string]*workerInfo
	//air:guard(mu)
	journal *journal
	// metrics is the fleet-level registry: lease/shard/campaign events,
	// exported through the same /metrics page as the merged simulation
	// counters.
	//air:guard(mu)
	metrics obs.Metrics
	//air:guard(mu)
	seq int
}

// New creates a coordinator. With Options.JournalPath set, an existing
// journal is replayed first: journaled campaigns come back with their
// completed leases done and everything else pending, so only unfinished
// seeds re-run.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:      opts,
		epoch:     opts.Clock(),
		campaigns: map[string]*campaignState{},
		workers:   map[string]*workerInfo{},
	}
	if opts.JournalPath != "" {
		j, records, err := openJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
		for _, r := range records {
			if err := c.replay(r); err != nil {
				j.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// Close releases the journal handle. The coordinator stays queryable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}

// replay applies one journal record during New.
//
//air:locked(mu)
func (c *Coordinator) replay(r journalRecord) error {
	switch r.Op {
	case opSubmit:
		if r.Spec == nil {
			return fmt.Errorf("fleet: journal submit record for %q has no spec", r.ID)
		}
		if err := r.Spec.Validate(); err != nil {
			return fmt.Errorf("fleet: journal submit record for %q: %w", r.ID, err)
		}
		if err := c.addCampaign(r.ID, *r.Spec, r.LeaseSize); err != nil {
			return err
		}
	case opComplete:
		cs := c.campaigns[r.ID]
		if cs == nil {
			return fmt.Errorf("fleet: journal completes lease of unknown campaign %q", r.ID)
		}
		if err := c.checkCompletion(cs, r.Lease, r.Start, r.End, r.Aggregate, len(r.Observations)); err != nil {
			return fmt.Errorf("fleet: journal: %w", err)
		}
		partial, kept := c.form(r.Aggregate, r.Observations)
		c.finishLease(cs, r.Lease, partial, kept, "journal", false)
	default:
		return fmt.Errorf("fleet: unknown journal op %q", r.Op)
	}
	return nil
}

// Submit accepts a campaign spec, shards its run space into leases and
// returns the assigned campaign ID. The spec's function fields (clock,
// observation hook) stay live for in-process shards but are excluded from
// the journal and the HTTP spec — remote shards run with the defaults.
func (c *Coordinator) Submit(spec campaign.Spec) (string, error) {
	spec = spec.Defaulted()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := fmt.Sprintf("c%d", c.seq+1)
	if c.journal != nil {
		if err := c.journal.Append(journalRecord{
			Op: opSubmit, ID: id, Spec: &spec, LeaseSize: c.opts.LeaseSize,
		}); err != nil {
			return "", fmt.Errorf("fleet: journal append: %w", err)
		}
	}
	if err := c.addCampaign(id, spec, c.opts.LeaseSize); err != nil {
		return "", err
	}
	c.metrics.Observe(obs.Event{Kind: obs.KindCampaignSubmitted, Detail: id, Latency: tick.Ticks(spec.Runs)})
	return id, nil
}

// addCampaign registers a campaign under the caller-chosen ID (c.mu held or
// construction-time).
//
//air:locked(mu)
func (c *Coordinator) addCampaign(id string, spec campaign.Spec, leaseSize int) error {
	if leaseSize <= 0 {
		return fmt.Errorf("fleet: campaign %q has lease size %d", id, leaseSize)
	}
	if _, dup := c.campaigns[id]; dup {
		return fmt.Errorf("fleet: duplicate campaign id %q", id)
	}
	cs := &campaignState{id: id, spec: spec, leaseSize: leaseSize, merged: campaign.NewAggregate(),
		archIndex: map[int]ArchiveIndexEntry{}}
	if c.opts.ArchiveRoot != "" {
		if err := c.loadArchiveIndex(cs); err != nil {
			return err
		}
	}
	for start := 0; start < spec.Runs; start += leaseSize {
		end := start + leaseSize
		if end > spec.Runs {
			end = spec.Runs
		}
		cs.leases = append(cs.leases, &lease{start: start, end: end})
	}
	cs.pending = len(cs.leases)
	c.campaigns[id] = cs
	c.order = append(c.order, id)
	if n := numericSuffix(id); n > c.seq {
		c.seq = n
	}
	return nil
}

// numericSuffix parses the coordinator's own "c<N>" IDs back to N (0 for
// foreign IDs), keeping the sequence monotone across journal replays.
func numericSuffix(id string) int {
	if len(id) < 2 || id[0] != 'c' {
		return 0
	}
	n := 0
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// Acquire implements Service: it issues the first pending lease in
// submission order, or — when none is pending — steals the longest-expired
// issued lease from its quiet holder. Wait means unfinished leases are
// outstanding elsewhere (or the asking shard is quarantined); Drained means
// every campaign is complete.
func (c *Coordinator) Acquire(worker string) (Lease, AcquireState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.touch(worker, now)

	// Open shards are always admitted; a quarantined one only as the single
	// half-open probe once its cooldown lapsed.
	if b := &c.workers[worker].breaker; b.State() == recovery.BreakerClosed || b.ProbeDue(now.Sub(c.epoch)) {
		for _, id := range c.order {
			cs := c.campaigns[id]
			if idx, ok := c.nextPending(cs); ok {
				return c.issue(cs, idx, worker, now), Granted, nil
			}
		}
		// Work stealing: no pending lease anywhere — reclaim the most
		// overdue expired lease and reissue it to the asking shard. The
		// expiry is charged to the quiet holder's flap account.
		var victim *campaignState
		victimIdx := -1
		var oldest time.Time
		for _, id := range c.order {
			cs := c.campaigns[id]
			for idx, l := range cs.leases {
				if l.state != leaseIssued || l.deadline.IsZero() || now.Before(l.deadline) {
					continue
				}
				if victimIdx < 0 || l.deadline.Before(oldest) {
					victim, victimIdx, oldest = cs, idx, l.deadline
				}
			}
		}
		if victimIdx >= 0 {
			l := victim.leases[victimIdx]
			c.metrics.Observe(obs.Event{Kind: obs.KindLeaseReclaimed, Detail: victim.id, Process: l.worker, Latency: tick.Ticks(l.end - l.start)})
			c.recordExpiry(l.worker, c.grant(victim, victimIdx), now)
			victim.issued--
			victim.pending++
			l.state = leasePending
			l.worker = ""
			return c.issue(victim, victimIdx, worker, now), Granted, nil
		}
	}
	for _, cs := range c.campaigns {
		if !cs.complete() {
			return Lease{}, Wait, nil
		}
	}
	return Lease{}, Drained, nil
}

// recordExpiry charges one lease expiry to the shard that went quiet
// holding it, tripping its breaker past the threshold, and re-opens the
// breaker with a doubled cooldown when the expired lease was the half-open
// probe (c.mu held).
//
//air:locked(mu)
func (c *Coordinator) recordExpiry(worker string, l Lease, now time.Time) {
	wi := c.workers[worker]
	if wi == nil {
		return
	}
	at := now.Sub(c.epoch)
	switch wi.breaker.State() {
	case recovery.BreakerClosed:
		if wi.breaker.Fail(at) {
			c.metrics.Observe(obs.Event{Kind: obs.KindShardQuarantined, Process: worker, Detail: "flap threshold", Latency: tick.Ticks(wi.breaker.Cooldown().Milliseconds())})
		}
	case recovery.BreakerHalfOpen:
		if wi.probe == l {
			wi.breaker.ProbeFailed(at)
			c.metrics.Observe(obs.Event{Kind: obs.KindShardQuarantined, Process: worker, Detail: "probe expired", Latency: tick.Ticks(wi.breaker.Cooldown().Milliseconds())})
		}
	}
}

// nextPending advances the campaign's cursor to its first pending lease.
//
//air:locked(mu)
func (c *Coordinator) nextPending(cs *campaignState) (int, bool) {
	for cs.cursor < len(cs.leases) {
		if cs.leases[cs.cursor].state == leasePending {
			return cs.cursor, true
		}
		cs.cursor++
	}
	// Reclaimed leases sit behind the cursor; find them when the tail is
	// exhausted.
	if cs.pending > 0 {
		for idx, l := range cs.leases {
			if l.state == leasePending {
				return idx, true
			}
		}
	}
	return 0, false
}

// grant is lease idx of cs as handed out: its run range and this
// coordinator's terms.
func (c *Coordinator) grant(cs *campaignState, idx int) Lease {
	l := cs.leases[idx]
	return Lease{Campaign: cs.id, Index: idx, Start: l.start, End: l.end,
		Retain: c.opts.KeepObservations, RenewEvery: c.opts.renewEvery()}
}

// issue marks a lease issued to a worker and, for a quarantined shard
// emerging from its cooldown, makes it the half-open probe (c.mu held).
//
//air:locked(mu)
func (c *Coordinator) issue(cs *campaignState, idx int, worker string, now time.Time) Lease {
	l := cs.leases[idx]
	l.state = leaseIssued
	l.worker = worker
	l.deadline = time.Time{}
	if c.opts.LeaseTTL > 0 {
		l.deadline = now.Add(c.opts.LeaseTTL)
	}
	cs.pending--
	cs.issued++
	c.metrics.Observe(obs.Event{Kind: obs.KindLeaseIssued, Detail: cs.id, Process: worker, Latency: tick.Ticks(l.end - l.start)})
	issued := c.grant(cs, idx)
	if wi := c.workers[worker]; wi.breaker.State() == recovery.BreakerOpen {
		wi.breaker.Probe()
		wi.probe = issued
	}
	return issued
}

// Spec implements Service.
func (c *Coordinator) Spec(campaignID string) (campaign.Spec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.campaigns[campaignID]
	if cs == nil {
		return campaign.Spec{}, fmt.Errorf("fleet: unknown campaign %q", campaignID)
	}
	return cs.spec, nil
}

// Complete implements Service: it journals and merges one finished lease.
// Shard results arrive in any order; the merge applies them strictly in
// lease order, holding out-of-order partials until their predecessors
// land. Completions of already-completed leases (a stolen lease finished
// twice) are dropped — by determinism both copies are byte-identical.
func (c *Coordinator) Complete(worker string, l Lease, sh *campaign.Shard) error {
	if sh == nil {
		return fmt.Errorf("fleet: completion of lease %s/%d carries no shard result", l.Campaign, l.Index)
	}
	// Retained observations are folded before c.mu is taken.
	partial, kept := c.form(sh.Aggregate, sh.Observations)
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.touch(worker, now)
	cs := c.campaigns[l.Campaign]
	if cs == nil {
		return fmt.Errorf("fleet: completion for unknown campaign %q", l.Campaign)
	}
	if l.Index >= 0 && l.Index < len(cs.leases) && cs.leases[l.Index].state == leaseDone {
		return nil
	}
	if err := c.checkCompletion(cs, l.Index, sh.Start, sh.End, sh.Aggregate, len(sh.Observations)); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	// Store shipped archives before journaling the completion: a crash
	// between the two re-runs the lease on resume and re-stores byte-identical
	// files, whereas the reverse order could journal a completion whose
	// archives were lost. The bulk bytes never enter the journal.
	if len(sh.Archives) > 0 && c.opts.ArchiveRoot != "" {
		if err := c.storeArchives(cs, sh.Archives); err != nil {
			return err
		}
	}
	if c.journal != nil {
		rec := journalRecord{Op: opComplete, ID: cs.id, Lease: l.Index, Start: sh.Start, End: sh.End, Observations: kept}
		if !c.opts.KeepObservations {
			rec.Aggregate = partial
		}
		if err := c.journal.Append(rec); err != nil {
			return fmt.Errorf("fleet: journal append: %w", err)
		}
	}
	c.finishLease(cs, l.Index, partial, kept, worker, true)
	// A completed half-open probe closes the breaker: the shard held a
	// lease to the end again, so it is re-admitted with a clean flap
	// account.
	if wi := c.workers[worker]; wi != nil && wi.breaker.State() == recovery.BreakerHalfOpen && wi.probe == l {
		wi.breaker.Close()
		c.metrics.Observe(obs.Event{Kind: obs.KindShardReadmitted, Process: worker})
	}
	return nil
}

// checkCompletion rejects a completion of lease idx that the merge cannot
// take: an unknown lease, bounds other than the lease's, or a result
// lacking the form this coordinator reads (form) — one observation per run
// when retaining, else an aggregate with no null class. Complete runs it
// before anything is stored or journaled, and journal replay runs it on
// every completion record, so replay loads exactly what the live path
// accepts.
func (c *Coordinator) checkCompletion(cs *campaignState, idx, start, end int, agg *campaign.Aggregate, observations int) error {
	if idx < 0 || idx >= len(cs.leases) {
		return fmt.Errorf("completion for unknown lease %s/%d", cs.id, idx)
	}
	if ls := cs.leases[idx]; start != ls.start || end != ls.end {
		return fmt.Errorf("lease %s/%d completion bounds [%d,%d) mismatch lease [%d,%d)",
			cs.id, idx, start, end, ls.start, ls.end)
	}
	if c.opts.KeepObservations {
		if observations != end-start {
			return fmt.Errorf("lease %s/%d carries %d observations for %d runs", cs.id, idx, observations, end-start)
		}
		return nil
	}
	if agg == nil {
		return fmt.Errorf("lease %s/%d completion has no aggregate", cs.id, idx)
	}
	for _, classes := range []map[string]*campaign.ClassAgg{agg.ByScenario, agg.ByFaultKind} {
		for name, cl := range classes {
			if cl == nil {
				return fmt.Errorf("lease %s/%d aggregate has a null class %q", cs.id, idx, name)
			}
		}
	}
	return nil
}

// Heartbeat implements Service: it refreshes the shard's liveness, records
// its cumulative transport retry count, and — when the shard names its
// in-flight lease — pushes that lease's reclamation deadline out by a full
// LeaseTTL, so a live-but-slow shard is never mistaken for a dead one.
func (c *Coordinator) Heartbeat(worker string, l *Lease, retries int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.touch(worker, now)
	wi := c.workers[worker]
	if retries > wi.retries {
		wi.retries = retries
	}
	if l == nil {
		return nil
	}
	cs := c.campaigns[l.Campaign]
	if cs == nil {
		return fmt.Errorf("fleet: heartbeat for unknown campaign %q", l.Campaign)
	}
	if l.Index < 0 || l.Index >= len(cs.leases) {
		return fmt.Errorf("fleet: heartbeat for unknown lease %s/%d", l.Campaign, l.Index)
	}
	ls := cs.leases[l.Index]
	// Renew only a lease still issued to this shard and still under TTL
	// policy; a reclaimed or completed lease is left alone — the original
	// holder finds out when its Complete lands as an idempotent no-op.
	if ls.state == leaseIssued && ls.worker == worker && c.opts.LeaseTTL > 0 {
		ls.deadline = now.Add(c.opts.LeaseTTL)
		c.metrics.Observe(obs.Event{Kind: obs.KindLeaseRenewed, Detail: cs.id, Process: worker, Latency: tick.Ticks(ls.end - ls.start)})
	}
	return nil
}

// form reads a lease's result in the one form this coordinator takes,
// ignoring the other if a shard or journal record carries both: retaining,
// the observations, kept and folded here (their only fold); streaming, the
// shipped aggregate.
func (c *Coordinator) form(agg *campaign.Aggregate, observations []campaign.Observation) (*campaign.Aggregate, []campaign.Observation) {
	if !c.opts.KeepObservations {
		return agg, nil
	}
	folded := campaign.Fold(observations)
	return &folded, observations
}

// finishLease marks a lease done, advances the in-order merge frontier and
// emits the fleet events (c.mu held; live=false during journal replay).
//
//air:locked(mu)
func (c *Coordinator) finishLease(cs *campaignState, idx int, agg *campaign.Aggregate, observations []campaign.Observation, worker string, live bool) {
	l := cs.leases[idx]
	if l.state == leaseDone {
		return
	}
	if l.state == leaseIssued {
		cs.issued--
	} else {
		cs.pending--
	}
	l.state = leaseDone
	l.worker = worker
	l.partial = agg
	l.observations = observations
	cs.done++
	cs.runsDone += l.end - l.start
	if live {
		c.metrics.Observe(obs.Event{Kind: obs.KindLeaseCompleted, Detail: cs.id, Process: worker, Latency: tick.Ticks(l.end - l.start)})
		if wi := c.workers[worker]; wi != nil {
			wi.leases++
		}
	}
	// Advance the deterministic merge frontier: fold every completed lease
	// whose predecessors are all folded, releasing its partial.
	for cs.mergedThrough < len(cs.leases) && cs.leases[cs.mergedThrough].state == leaseDone {
		next := cs.leases[cs.mergedThrough]
		cs.merged.Merge(*next.partial)
		next.partial = nil
		cs.mergedThrough++
	}
	if cs.complete() && live {
		c.metrics.Observe(obs.Event{Kind: obs.KindCampaignDone, Detail: cs.id, Latency: tick.Ticks(cs.spec.Runs)})
	}
}

// campaignArchiveDir is campaign id's archive directory under the root.
func (c *Coordinator) campaignArchiveDir(id string) string {
	return filepath.Join(c.opts.ArchiveRoot, id)
}

// storeArchives writes shipped run archives into the durable store and
// refreshes the campaign's index.json (c.mu held).
//
//air:locked(mu)
func (c *Coordinator) storeArchives(cs *campaignState, archives []campaign.RunArchive) error {
	croot := c.campaignArchiveDir(cs.id)
	for _, a := range archives {
		dir := campaign.RunDir(croot, a.Run)
		if err := campaign.StoreArchive(dir, a); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		cs.archIndex[a.Run] = ArchiveIndexEntry{
			Run: a.Run, Seed: a.Seed, Records: a.Records,
			Segments: a.Segments, Bytes: a.Bytes,
			Dir: filepath.Base(dir),
		}
	}
	return c.writeArchiveIndex(cs)
}

// writeArchiveIndex atomically replaces the campaign's index.json with the
// run-sorted catalog of stored archives (c.mu held).
//
//air:locked(mu)
func (c *Coordinator) writeArchiveIndex(cs *campaignState) error {
	entries := make([]ArchiveIndexEntry, 0, len(cs.archIndex))
	for _, e := range cs.archIndex {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Run < entries[j].Run })
	data, err := json.MarshalIndent(entries, "", "  ")
	if err == nil {
		err = durable.WriteFile(filepath.Join(c.campaignArchiveDir(cs.id), "index.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("fleet: archive index: %w", err)
	}
	return nil
}

// loadArchiveIndex restores a campaign's archive catalog from index.json —
// the resume path; a missing index is an empty catalog.
func (c *Coordinator) loadArchiveIndex(cs *campaignState) error {
	data, err := os.ReadFile(filepath.Join(c.campaignArchiveDir(cs.id), "index.json"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: archive index: %w", err)
	}
	var entries []ArchiveIndexEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("fleet: archive index: %w", err)
	}
	for _, e := range entries {
		cs.archIndex[e.Run] = e
	}
	return nil
}

// ArchiveIndex returns a campaign's stored-archive catalog in run order.
func (c *Coordinator) ArchiveIndex(id string) ([]ArchiveIndexEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.campaigns[id]
	if cs == nil {
		return nil, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	entries := make([]ArchiveIndexEntry, 0, len(cs.archIndex))
	for _, e := range cs.archIndex {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Run < entries[j].Run })
	return entries, nil
}

// touch records a shard contact (c.mu held).
//
//air:locked(mu)
func (c *Coordinator) touch(worker string, now time.Time) {
	wi := c.workers[worker]
	if wi == nil {
		o := c.opts
		wi = &workerInfo{firstSeen: now, breaker: recovery.NewBreaker(o.QuarantineAfter, o.QuarantineWindow, o.QuarantineCooldown, o.QuarantineCooldownMax)}
		c.workers[worker] = wi
		c.metrics.Observe(obs.Event{Kind: obs.KindShardJoined, Process: worker})
	}
	wi.lastSeen = now
}

// Progress returns one campaign's status.
func (c *Coordinator) Progress(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.campaigns[id]
	if cs == nil {
		return Status{}, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	return c.statusOf(cs), nil
}

func (c *Coordinator) statusOf(cs *campaignState) Status {
	runsMerged := 0
	for i := 0; i < cs.mergedThrough; i++ {
		runsMerged += cs.leases[i].end - cs.leases[i].start
	}
	return Status{
		ID:         cs.id,
		Seed:       cs.spec.Seed,
		Runs:       cs.spec.Runs,
		MTFs:       cs.spec.MTFs,
		RunsDone:   cs.runsDone,
		RunsMerged: runsMerged,
		Leases: LeaseCounts{
			Total:   len(cs.leases),
			Pending: cs.pending,
			Issued:  cs.issued,
			Done:    cs.done,
		},
		Done: cs.complete(),
	}
}

// FleetStatus returns the coordinator-wide view: every campaign in
// submission order plus shard liveness.
func (c *Coordinator) FleetStatus() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	fs := FleetStatus{}
	for _, id := range c.order {
		fs.Campaigns = append(fs.Campaigns, c.statusOf(c.campaigns[id]))
	}
	if len(c.workers) > 0 {
		fs.Workers = make(map[string]WorkerStatus, len(c.workers))
		for name, wi := range c.workers {
			fs.Workers[name] = WorkerStatus{
				FirstSeenMillis: wi.firstSeen.UnixMilli(),
				LastSeenMillis:  wi.lastSeen.UnixMilli(),
				Leases:          wi.leases,
				Live:            now.Sub(wi.lastSeen) <= c.opts.LivenessWindow,
				BeatAgeMillis:   now.Sub(wi.lastSeen).Milliseconds(),
				Retries:         wi.retries,
				Expiries:        wi.breaker.Failures(),
				Quarantined:     wi.breaker.State() != recovery.BreakerClosed,
				Probing:         wi.breaker.State() == recovery.BreakerHalfOpen,
			}
		}
	}
	return fs
}

// Result assembles a completed campaign's artifact. The aggregate is the
// in-order merge of all lease partials — byte-identical to a single-process
// campaign.Run of the same spec. Observations are populated only under
// Options.KeepObservations (streamed campaigns keep O(1) state).
func (c *Coordinator) Result(id string) (*campaign.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.campaigns[id]
	if cs == nil {
		return nil, fmt.Errorf("fleet: unknown campaign %q", id)
	}
	if !cs.complete() {
		return nil, fmt.Errorf("fleet: campaign %q incomplete (%d/%d runs)", id, cs.runsDone, cs.spec.Runs)
	}
	res := &campaign.Result{
		Seed:      cs.spec.Seed,
		Runs:      cs.spec.Runs,
		MTFs:      cs.spec.MTFs,
		Aggregate: cs.merged,
	}
	for _, sc := range cs.spec.Matrix {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	if c.opts.KeepObservations {
		res.Observations = make([]campaign.Observation, 0, cs.spec.Runs)
		for _, l := range cs.leases {
			res.Observations = append(res.Observations, l.observations...)
		}
	}
	return res, nil
}

// Drained reports whether every campaign's every lease has completed.
func (c *Coordinator) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cs := range c.campaigns {
		if !cs.complete() {
			return false
		}
	}
	return true
}

// --- timeline.Source ---------------------------------------------------------

// Snapshot implements timeline.Source: the merged timeliness view across
// every campaign's merged prefix.
func (c *Coordinator) Snapshot() timeline.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s timeline.Snapshot
	for _, id := range c.order {
		s.Accumulate(&c.campaigns[id].merged.Timeline)
	}
	// Fold the durable store's gauges over every campaign's stored archives
	// so the fleet /metrics page reports archive growth.
	var arch timeline.ArchiveSnap
	have := false
	for _, id := range c.order {
		for _, e := range c.campaigns[id].archIndex {
			arch.Segments += e.Segments
			arch.Bytes += e.Bytes
			arch.Records += e.Records
			have = true
		}
	}
	if have {
		s.Archive = &arch
	}
	return s
}

// Registry implements timeline.Source: the fleet coordination counters
// (lease/shard/campaign events) plus every campaign's merged simulation
// metrics, on one page.
func (c *Coordinator) Registry() obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.metrics.Snapshot()
	for _, id := range c.order {
		s.Accumulate(&c.campaigns[id].merged.Metrics)
	}
	return s
}

// Flight implements timeline.Source. Post-mortem flight recording is a
// per-module notion; the fleet view is empty.
func (c *Coordinator) Flight() timeline.FlightDump {
	return timeline.FlightDump{Frames: []timeline.FlightFrame{}}
}
