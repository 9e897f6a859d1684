package fleet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"air/internal/campaign"
)

// LocalOptions configures RunLocal. Its shards call the coordinator
// directly, with no lease TTL and no transport for Chaos to fault.
type LocalOptions struct {
	// Shards is the number of concurrent in-process worker shards (default
	// runtime.GOMAXPROCS(0)). Each shard runs its leases with a single
	// simulation goroutine, so Shards is the campaign's total parallelism —
	// the fleet equivalent of campaign.Spec.Workers. Affects wall clock
	// only, never results.
	Shards int
	// LeaseSize overrides the runs-per-lease grain (default: enough leases
	// for every shard to steal work a few times over, capped at 64).
	LeaseSize int
	// JournalPath, when non-empty, checkpoints the campaign: an interrupted
	// run re-invoked with the same spec and journal resumes, re-running
	// only the leases that never completed.
	JournalPath string
}

func (o LocalOptions) withDefaults(runs int) LocalOptions {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.LeaseSize <= 0 {
		o.LeaseSize = runs / (o.Shards * 4)
		if o.LeaseSize < 1 {
			o.LeaseSize = 1
		}
		if o.LeaseSize > 64 {
			o.LeaseSize = 64
		}
	}
	return o
}

// RunLocal executes a campaign through the fleet coordinator with Shards
// in-process worker shards. The result is byte-identical to
// campaign.Run(spec) — same aggregate, same observation order — because the
// coordinator merges lease partials strictly in run order; only the
// parallelism topology differs. With a JournalPath, the run is resumable:
// a matching journaled campaign is adopted and only its unfinished leases
// execute (the spec's live OnObservation hook fires for re-run leases only,
// never for journal-replayed ones).
func RunLocal(spec campaign.Spec, opts LocalOptions) (*campaign.Result, error) {
	spec = spec.Defaulted()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(spec.Runs)
	c, err := New(Options{
		LeaseSize:        opts.LeaseSize,
		JournalPath:      opts.JournalPath,
		KeepObservations: true,
		// An archiving spec stores durably under its own requested root:
		// workers stage to temp directories and ship, exactly like remote
		// shards, so <ArchiveDir>/<campaignID>/run-NNNNN/ is the one layout.
		ArchiveRoot: spec.ArchiveDir,
		// In-process shards share one process: they cannot flap
		// independently.
		QuarantineAfter: -1,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	id, err := c.adopt(spec)
	if err != nil {
		return nil, err
	}
	start := spec.Clock()
	var wg sync.WaitGroup
	errs := make([]error, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Work(c, WorkerOptions{ID: fmt.Sprintf("local-%d", i), Workers: 1, Poll: time.Millisecond})
		}(i)
	}
	wg.Wait()
	elapsed := spec.Clock().Sub(start)
	for _, werr := range errs {
		if werr != nil {
			return nil, werr
		}
	}
	res, err := c.Result(id)
	if err != nil {
		return nil, err
	}
	res.Timing = &campaign.Timing{Workers: opts.Shards, Elapsed: elapsed, Ticks: res.Aggregate.Ticks}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Timing.TicksPerSecond = float64(res.Aggregate.Ticks) / sec
	}
	return res, nil
}

// adopt reuses the journal-replayed campaign matching spec, if any — the
// resume path — re-arming the live function fields the journal cannot
// carry. With no match it submits spec as a new campaign.
func (c *Coordinator) adopt(spec campaign.Spec) (string, error) {
	c.mu.Lock()
	for _, id := range c.order {
		cs := c.campaigns[id]
		if specEqual(cs.spec, spec) {
			cs.spec.OnObservation = spec.OnObservation
			cs.spec.Clock = spec.Clock
			c.mu.Unlock()
			return id, nil
		}
	}
	c.mu.Unlock()
	return c.Submit(spec)
}

// specEqual compares the result-determining portion of two specs: Workers
// (wall-clock only) and the non-serializable function fields are ignored.
func specEqual(a, b campaign.Spec) bool {
	a.Workers, b.Workers = 0, 0
	a.OnObservation, b.OnObservation = nil, nil
	a.Clock, b.Clock = nil, nil
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(aj) == string(bj)
}
