package fleet

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"air/internal/campaign"
)

// WorkerOptions configures one worker shard's lease loop. Its retry budgets
// are the constants below; per-request retries are the Client's. What a
// completion carries and how often a lease is renewed are the lease's terms
// (Lease.Retain, Lease.RenewEvery), set by the coordinator.
type WorkerOptions struct {
	// ID names the shard to the coordinator (liveness, lease attribution).
	// Empty defaults to "shard".
	ID string
	// Workers sizes the shard's local simulation pool per lease (defaults
	// to runtime.GOMAXPROCS(0); affects wall clock only, never results).
	Workers int
	// Poll caps the back-off between Acquire attempts while the
	// coordinator reports Wait: it starts at 1ms, doubles up to Poll, and a
	// grant resets it. Poll is also the base of the back-off after failed
	// calls (default 50ms).
	Poll time.Duration
	// MaxLeases bounds how many leases the shard executes before
	// returning (0 = until Drained). Tests use 1 to stage shard deaths.
	MaxLeases int
	// Retries supplies the cumulative transport retry count reported in
	// heartbeats (wire it to Client.Retries; nil reports 0).
	Retries func() int64
	// Stop, when non-nil, requests a graceful drain: once readable the
	// shard finishes its in-flight lease, reports it, and returns without
	// acquiring more. The daemon's SIGTERM handler closes it.
	Stop <-chan struct{}
}

const (
	// acquireRetries bounds consecutive Acquire (and Spec) failures
	// tolerated before the loop gives up. The budget resets on any success,
	// so it separates a dead coordinator from a transient blip.
	acquireRetries = 5
	// completeRetries is how many times a failed Complete is re-sent before
	// the lease is abandoned to TTL reclamation. Complete is idempotent
	// server-side, so retrying is always safe — and every retry that lands
	// saves a full re-run of finished work.
	completeRetries = 3
	// firstWait is the first back-off after a Wait, so a worker finds a
	// lease freed by another shard's completion within milliseconds.
	firstWait = time.Millisecond
)

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		o.ID = "shard"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Poll <= 0 {
		o.Poll = 50 * time.Millisecond
	}
	if o.Retries == nil {
		o.Retries = func() int64 { return 0 }
	}
	return o
}

// sleep is the package's single wall-sleep tap: Work's Poll back-off and
// retry pacing, the Client's retry backoff and the chaos transport's
// injected latency all go through it.
func sleep(d time.Duration) {
	//air:allow(wallclock): poll, backoff and injected-latency pacing is host-side protocol timing, never simulation state
	time.Sleep(d)
}

// drainRequested reports whether the Stop channel is readable.
func drainRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Work runs one shard's lease loop against a coordinator: acquire a lease,
// execute its run range with campaign.RunShard and report the result back
// in the form the lease asks for — the observations when the coordinator
// retains them, else their in-order fold, the partial aggregate; repeat
// until the coordinator is drained (or MaxLeases executed, or Stop requests
// a drain). Returns the number of leases completed.
//
// While the coordinator answers Wait, the loop re-polls with a back-off
// from 1ms doubling up to Poll. The loop is built to survive an unreliable
// coordinator path: Acquire failures are retried under a consecutive-failure budget with doubling
// back-off, a heartbeat goroutine renews the in-flight lease at the lease's
// RenewEvery so slow progress is never reclaimed as death, and Complete —
// idempotent server-side — is re-sent before any finished work is
// abandoned.
//
// Any number of Work loops — goroutines in one process or processes on one
// coordinator — compose into the same byte-identical campaign results; only
// wall-clock time changes.
func Work(svc Service, opts WorkerOptions) (int, error) {
	opts = opts.withDefaults()
	specs := map[string]campaign.Spec{}
	completed := 0
	failures := 0
	wait := min(firstWait, opts.Poll)
	for {
		if drainRequested(opts.Stop) {
			return completed, nil
		}
		l, state, err := svc.Acquire(opts.ID)
		if err != nil {
			failures++
			if failures > acquireRetries {
				return completed, fmt.Errorf("fleet: worker %s: acquire: %w", opts.ID, err)
			}
			sleep(backoffFor(opts.Poll, failures))
			continue
		}
		failures = 0
		switch state {
		case Drained:
			return completed, nil
		case Wait:
			sleep(wait)
			wait = min(2*wait, opts.Poll)
			continue
		}
		wait = min(firstWait, opts.Poll)
		spec, ok := specs[l.Campaign]
		if !ok {
			spec, err = fetchSpec(svc, opts, l.Campaign)
			if err != nil {
				return completed, fmt.Errorf("fleet: worker %s: spec %s: %w", opts.ID, l.Campaign, err)
			}
			spec.Workers = opts.Workers
			specs[l.Campaign] = spec
		}
		sh, err := runLease(svc, opts, spec, l)
		if err != nil {
			return completed, fmt.Errorf("fleet: worker %s: lease %s/%d: %w", opts.ID, l.Campaign, l.Index, err)
		}
		if err := completeLease(svc, opts, l, sh); err != nil {
			return completed, fmt.Errorf("fleet: worker %s: complete %s/%d: %w", opts.ID, l.Campaign, l.Index, err)
		}
		completed++
		if opts.MaxLeases > 0 && completed >= opts.MaxLeases {
			return completed, nil
		}
	}
}

// backoffFor doubles the base per consecutive failure, capped at 32×.
func backoffFor(base time.Duration, failures int) time.Duration {
	shift := failures - 1
	if shift > 5 {
		shift = 5
	}
	return base << shift
}

// fetchSpec retrieves a campaign spec under the same consecutive-failure
// budget as Acquire. The Client already retries each request; this loop
// carries the worker on when one Client budget runs out, as it does within
// a fraction of a second against a restarting coordinator.
func fetchSpec(svc Service, opts WorkerOptions, id string) (campaign.Spec, error) {
	var spec campaign.Spec
	var err error
	for attempt := 0; attempt <= acquireRetries; attempt++ {
		if attempt > 0 {
			sleep(backoffFor(opts.Poll, attempt))
		}
		if spec, err = svc.Spec(id); err == nil {
			return spec, nil
		}
	}
	return spec, err
}

// runLease executes the lease's run range while a heartbeat goroutine
// renews it, so the coordinator's TTL reclaims only shards that actually
// went quiet — never live-but-slow ones — and puts the result in the form
// the lease asks for (ship).
//
// An archiving spec is redirected to a worker-local temp directory — the
// coordinator-side ArchiveDir path means nothing on this machine — and the
// finished archives ship back inside the Shard for durable storage.
func runLease(svc Service, opts WorkerOptions, spec campaign.Spec, l Lease) (*campaign.Shard, error) {
	if spec.ArchiveDir != "" {
		tmp, err := os.MkdirTemp("", "air-fleet-archive-")
		if err != nil {
			return nil, fmt.Errorf("fleet: archive staging: %w", err)
		}
		defer os.RemoveAll(tmp)
		spec.ArchiveDir = tmp
	}
	done := make(chan struct{})
	beat := make(chan struct{})
	if l.RenewEvery > 0 {
		go func() {
			defer close(beat)
			//air:allow(wallclock): heartbeat cadence is host pacing, never simulation state; renewal semantics are tested against the coordinator's injected clock
			t := time.NewTicker(l.RenewEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					// Best-effort: a failed heartbeat costs nothing the
					// Complete retry path doesn't already absorb.
					_ = svc.Heartbeat(opts.ID, &l, opts.Retries())
				}
			}
		}()
	} else {
		close(beat)
	}
	sh, err := campaign.RunShard(spec, l.Start, l.End)
	close(done)
	<-beat
	if err == nil {
		err = campaign.CollectArchives(spec, sh)
	}
	if err == nil {
		ship(l, sh)
	}
	return sh, err
}

// ship leaves sh in the one form lease l asks for: its observations when
// the coordinator retains them, which it folds itself; otherwise their
// in-order fold alone, so a streamed completion stays O(1) in lease size.
func ship(l Lease, sh *campaign.Shard) {
	if l.Retain {
		return
	}
	agg := campaign.Fold(sh.Observations)
	sh.Aggregate, sh.Observations = &agg, nil
}

// completeLease reports a finished lease, re-sending on failure before the
// finished work is abandoned to TTL re-execution. A late duplicate —
// because an earlier send actually landed, or a thief finished the
// reclaimed lease first — is dropped idempotently by the coordinator.
func completeLease(svc Service, opts WorkerOptions, l Lease, sh *campaign.Shard) error {
	var err error
	for attempt := 0; attempt <= completeRetries; attempt++ {
		if attempt > 0 {
			sleep(backoffFor(opts.Poll, attempt))
		}
		if err = svc.Complete(opts.ID, l, sh); err == nil {
			return nil
		}
	}
	return err
}
