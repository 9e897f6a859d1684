package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"air/internal/campaign"
	airconfig "air/internal/config"
	"air/internal/fleet"
)

// fleetDoc is one fleet-http campaign document: the default matrix, every
// run from zero.
func fleetDoc(cfg config, seed uint64) *airconfig.Campaign {
	doc := airconfig.DefaultCampaign()
	doc.Runs, doc.MTFsPerRun, doc.Seed = cfg.size.fleetRuns, cfg.size.fleetMTFs, seed
	return doc
}

// runFleetHTTP serves whole campaigns through a coordinator on loopback
// HTTP, one fleet session per campaign with seeds seed, seed+1, …: set up
// the coordinator, its fsync'd journal and listener and submit the
// campaign; drain it with in-process fleet.Work loops that each hold one
// keep-alive connection; tear down. The coordinator keeps observations and
// the workers ship them (the CI smoke settings). Short from-zero runs make
// the per-run NewModule and Start dominate, plus HTTP, JSON, the journal
// and the in-order merge; nothing is forked. An op is one lease, from
// Acquire returning a grant to Complete returning.
func runFleetHTTP(cfg config, tr *tracer) (*outcome, error) {
	o := &outcome{}
	leases := &leaseLog{tr: tr}
	var first *campaign.Result
	var retries int64
	deadline := time.Now().Add(cfg.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		res, n, err := fleetSession(cfg, cfg.seed+uint64(i), leases, tr, o)
		if err != nil {
			return nil, err
		}
		retries += n
		if i == 0 {
			first = res
		}
	}
	o.ops = leases.ops
	o.attempted = len(o.ops)
	tr.sample("fleet.retries", float64(retries))
	tr.sample("fleet.acquires", float64(leases.acquires))
	tr.sample("fleet.granted", float64(leases.granted))
	o.check(retries == 0, 1, "%d client retries, want 0", retries)

	// The first campaign must be byte-identical to the in-process engine.
	spec, err := campaign.FromConfig(fleetDoc(cfg, cfg.seed))
	if err != nil {
		return nil, err
	}
	want, err := campaign.Run(spec)
	if err != nil {
		return nil, err
	}
	a, err := first.JSON()
	if err != nil {
		return nil, err
	}
	b, err := want.JSON()
	if err != nil {
		return nil, err
	}
	o.digest = digest(a)
	o.check(bytes.Equal(a, b), cfg.size.fleetRuns, "first campaign differs from campaign.Run of the same spec")
	if tr != nil {
		return o, replaySample(spec, first.Observations, false, cfg, tr, o)
	}
	return o, nil
}

// fleetSession runs one campaign through a fresh coordinator and returns
// its result and the clients' retry count. A fresh coordinator per campaign
// keeps the session's memory, and so peak RSS, independent of how many
// campaigns fit in the budget.
func fleetSession(cfg config, seed uint64, leases *leaseLog, tr *tracer, o *outcome) (*campaign.Result, int64, error) {
	sp := tr.start("fleet.setup", nil)
	rig, err := startFleet(cfg, leases, tr)
	if err != nil {
		return nil, 0, err
	}
	defer rig.close()
	id, err := rig.svcs[0].Submit(fleetDoc(cfg, seed))
	o.setup = append(o.setup, tr.end(sp))
	if err != nil {
		return nil, 0, err
	}
	sp = tr.start("fleet.campaign", nil)
	err = rig.drain()
	d := tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	res, err := rig.coord.Result(id)
	if err != nil {
		return nil, 0, err
	}
	o.tput = append(o.tput, float64(res.Aggregate.Ticks)/d.Seconds())
	o.check(res.Aggregate.Runs == cfg.size.fleetRuns, cfg.size.fleetRuns, "campaign %d merged %d runs, want %d", seed, res.Aggregate.Runs, cfg.size.fleetRuns)
	o.check(res.Aggregate.Degraded == 0, res.Aggregate.Degraded, "campaign %d: %d degraded runs", seed, res.Aggregate.Degraded)
	tr.sample("obs.events", float64(res.Aggregate.Metrics.Events))
	tr.sample("obs.ticks", float64(res.Aggregate.Ticks))
	var retries int64
	for _, s := range rig.svcs {
		retries += s.Retries()
	}
	return res, retries, nil
}

// fleetRig is a coordinator with its journal in a temporary directory,
// served on an ephemeral loopback port, and one client per worker.
type fleetRig struct {
	dir    string
	coord  *fleet.Coordinator
	srv    *http.Server
	served chan struct{}
	svcs   []*leaseClient
}

func startFleet(cfg config, leases *leaseLog, tr *tracer) (*fleetRig, error) {
	dir, err := os.MkdirTemp("", "bench-fleet-")
	if err != nil {
		return nil, err
	}
	c, err := fleet.New(fleet.Options{LeaseSize: cfg.size.fleetLease,
		JournalPath: filepath.Join(dir, "journal.jsonl"), KeepObservations: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	r := &fleetRig{dir: dir, coord: c, served: make(chan struct{}),
		srv: &http.Server{Handler: timeHandler(fleet.Handler(c), tr)}}
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	base := "http://" + ln.Addr().String()
	for k := 0; k < cfg.size.fleetWorkers; k++ {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		r.svcs = append(r.svcs, &leaseClient{
			Client:    &fleet.Client{Base: base, HTTP: &http.Client{Transport: t, Timeout: 30 * time.Second}},
			transport: t, log: leases, tr: tr})
	}
	return r, nil
}

func (r *fleetRig) close() {
	r.srv.Close()
	<-r.served
	for _, s := range r.svcs {
		s.transport.CloseIdleConnections()
	}
	r.coord.Close()
	os.RemoveAll(r.dir)
}

// drain runs one single-simulation fleet.Work loop per worker until the
// coordinator reports every campaign drained.
func (r *fleetRig) drain() error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.svcs))
	for k, s := range r.svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = fleet.Work(s, fleet.WorkerOptions{ID: fmt.Sprintf("w%d", k), Workers: 1, Retries: s.Retries})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// leaseClient is one worker's fleet.Service: its fleet.Client with every
// lease timed from Acquire returning a grant to Complete returning, split
// into the acquire round trip, the shard's execution and the complete round
// trip.
type leaseClient struct {
	*fleet.Client
	transport *http.Transport
	log       *leaseLog
	tr        *tracer
	sent      time.Time // the current lease's Acquire request
	granted   time.Time // its grant
}

func (c *leaseClient) Acquire(worker string) (fleet.Lease, fleet.AcquireState, error) {
	t0 := time.Now()
	l, st, err := c.Client.Acquire(worker)
	t1 := time.Now()
	c.log.acquire(t1.Sub(t0), err == nil && st == fleet.Granted)
	c.sent, c.granted = t0, t1
	return l, st, err
}

func (c *leaseClient) Complete(worker string, l fleet.Lease, sh *campaign.Shard) error {
	t0 := time.Now()
	err := c.Client.Complete(worker, l, sh)
	t1 := time.Now()
	c.log.complete(t1.Sub(c.granted), t0.Sub(c.granted), t1.Sub(t0))
	if c.tr != nil {
		op := c.tr.start("fleet.lease", nil)
		op.start = c.sent
		c.tr.record("fleet.acquire", &op, c.sent, c.granted)
		c.tr.record("campaign.shard", &op, c.granted, t0)
		c.tr.record("fleet.complete", &op, t0, t1)
		c.tr.endOp(op)
	}
	return err
}

// leaseLog gathers the lease timings of every worker.
type leaseLog struct {
	mu                sync.Mutex
	tr                *tracer
	ops               []time.Duration
	acquires, granted int
}

func (l *leaseLog) acquire(rtt time.Duration, granted bool) {
	l.tr.sampleMs("fleet.acquire_ms", rtt)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acquires++
	if granted {
		l.granted++
	}
}

func (l *leaseLog) complete(op, shard, rtt time.Duration) {
	l.tr.sampleMs("fleet.complete_ms", rtt)
	l.tr.sampleMs("campaign.shard_ms", shard)
	l.tr.sampleMs("fleet.lease_ms", op)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, op)
}

// timeHandler times the coordinator's side of the worker protocol in a
// traced run: request decode, merge and journal fsync.
func timeHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		switch r.URL.Path {
		case "/fleet/acquire":
			tr.sampleMs("fleet.server_acquire_ms", d)
		case "/fleet/complete":
			tr.sampleMs("fleet.server_complete_ms", d)
			tr.sample("fleet.complete_req_kb", float64(r.ContentLength)/1024)
		}
	})
}
