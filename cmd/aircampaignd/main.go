// Command aircampaignd is the long-running campaign fleet daemon: it shards
// campaign matrices of up to millions of (run, seed) cells across any number
// of worker shards — in-process goroutines, worker processes on the same
// host, or workers across a network — while guaranteeing the defining
// property of the campaign engine: the merged result is byte-identical to a
// single-process aircampaign run of the same matrix.
//
// Coordinator mode (default):
//
//	aircampaignd [-addr :9464] [-journal fleet.journal] [-lease n]
//	             [-lease-ttl d] [-liveness d] [-keep-observations]
//	             [-workers n] [-matrix file.json] [-archive-root dir]
//
// The daemon serves the fleet API (POST /campaigns submits a campaign
// matrix document, GET /campaigns/{id} reports progress, GET
// /campaigns/{id}/result returns the final artifact) alongside the standard
// telemetry endpoints: /metrics carries the merged simulation counters plus
// the air_fleet_* coordination gauges (lease ledgers, shard liveness),
// /timeline.json the merged timeliness view and /debug/pprof/ the daemon's
// own Go runtime profiles. Leases are dispatched pull-style — fast shards
// acquire more, and an issued lease uncompleted past -lease-ttl is
// reclaimed and reissued, so slow or dead shards only cost latency, never
// results. With -journal the fleet is durable: a restarted daemon replays
// the journal and re-runs only the leases that never completed. -workers N
// additionally runs N in-process worker shards, so a single daemon is also
// a complete execution fleet.
//
// -archive-root stores the flight archives that workers executing archiving
// campaigns (matrix documents with "archiveDir", or aircampaign -archive
// specs) ship inside their lease completions: campaign C's run r lands under
// <root>/<C>/run-0000r/ with a per-campaign index.json, GET
// /campaigns/{id}/archives lists the stored index, and the /archive/asof,
// /archive/range and /archive/diff endpoints answer bitemporal time-travel
// queries and run diffs over the stored history.
//
// The coordinator also runs the worker flap detector: a shard whose issued
// leases expire -quarantine-after times within -quarantine-window is
// quarantined — denied leases for a cooldown, then re-admitted through one
// half-open probe lease (complete it and the shard is back; expire it and
// the cooldown doubles).
//
// Worker mode:
//
//	aircampaignd -join http://coordinator:9464 [-id name] [-workers n]
//	             [-poll d] [-linger] [-max-leases n] [-timeout d] [-retries n]
//
// A worker process acquires leases from the coordinator over HTTP, executes
// them with its local simulation pool (-workers goroutines) and reports each
// lease's per-run observations (to a -keep-observations coordinator) or
// their partial aggregate, as the lease asks. Without -linger it exits once
// the coordinator drains; with it, it keeps polling for future campaigns.
//
// The worker's coordinator path is hardened: every request carries a
// -timeout deadline and is retried up to -retries times with seeded
// exponential back-off, in-flight leases are heartbeat-renewed at the
// interval each lease grants (a quarter of the shorter of -lease-ttl and
// -liveness), and an unreachable coordinator fails fast at startup instead
// of burning the retry budget in the lease loop. SIGTERM drains gracefully:
// the in-flight lease finishes and reports before the process exits 0.
//
// Chaos flags (-chaos-seed, -chaos-drop, -chaos-500, -chaos-dup,
// -chaos-latency, -chaos-latency-span) interpose a deterministic fault
// schedule on the worker's transport — the soak-test harness for all of the
// above. Campaign results are byte-identical with or without chaos.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"air/internal/archive"
	"air/internal/campaign"
	"air/internal/config"
	"air/internal/fleet"
	"air/internal/timeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aircampaignd:", err)
		os.Exit(1)
	}
}

// serveHook, when set (tests), is called with the live coordinator address
// and makes run return instead of blocking on signals — the seam the smoke
// tests probe through.
var serveHook func(kind, addr string)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aircampaignd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":9464", "coordinator: HTTP listen address for the fleet API and telemetry endpoints")
		journal   = fs.String("journal", "", "coordinator: lease journal path (CRC-framed records); set to make campaigns durable and resumable")
		leaseSize = fs.Int("lease", 64, "coordinator: runs per lease (the work-stealing and checkpoint grain)")
		leaseTTL  = fs.Duration("lease-ttl", 2*time.Minute, "coordinator: reclaim an issued lease after this long without completion (0 = never)")
		liveness  = fs.Duration("liveness", 15*time.Second, "coordinator: shard liveness window for /campaigns and /metrics")
		keepObs   = fs.Bool("keep-observations", false, "coordinator: retain per-run observations for /campaigns/{id}/result (memory grows with campaign size; leases ask workers to ship observations instead of aggregates)")
		matrix    = fs.String("matrix", "", "coordinator: campaign matrix JSON to submit at startup")
		archRoot  = fs.String("archive-root", "", "coordinator: durably store worker-shipped flight archives under this directory and serve /archive/* queries over them")
		workers   = fs.Int("workers", 0, "coordinator: in-process worker shards (0 = coordinate only); worker mode: simulation goroutines per lease")
		qAfter    = fs.Int("quarantine-after", 0, "coordinator: quarantine a shard after this many lease expiries within -quarantine-window (0 = default 3, -1 = disable)")
		qWindow   = fs.Duration("quarantine-window", 10*time.Minute, "coordinator: sliding window for the shard flap detector")
		qCooldown = fs.Duration("quarantine-cooldown", 30*time.Second, "coordinator: first quarantine duration; doubles per failed half-open probe")
		qMax      = fs.Duration("quarantine-cooldown-max", 0, "coordinator: quarantine cooldown ceiling (0 = 8x -quarantine-cooldown)")
		join      = fs.String("join", "", "worker mode: base URL of the coordinator to join (switches modes)")
		id        = fs.String("id", "", "worker mode: shard name (default shard-<pid>)")
		poll      = fs.Duration("poll", 500*time.Millisecond, "worker mode: cap of the acquire back-off while no lease is pending (it starts at 1ms)")
		linger    = fs.Bool("linger", false, "worker mode: keep polling after the coordinator drains instead of exiting")
		maxLeases = fs.Int("max-leases", 0, "worker mode: exit after completing this many leases (0 = run to drain)")
		timeout   = fs.Duration("timeout", 10*time.Second, "worker mode: per-request deadline on every coordinator call")
		retries   = fs.Int("retries", 4, "worker mode: attempts per coordinator call (retried with seeded exponential back-off)")
		chSeed    = fs.Uint64("chaos-seed", 0, "worker mode: seed the deterministic fault-injection schedule (0 = chaos off unless a -chaos-* rate is set)")
		chDrop    = fs.Float64("chaos-drop", 0, "worker mode: probability a request is lost before delivery")
		ch500     = fs.Float64("chaos-500", 0, "worker mode: probability of an injected 500 response")
		chDup     = fs.Float64("chaos-dup", 0, "worker mode: probability a request is delivered twice")
		chLat     = fs.Float64("chaos-latency", 0, "worker mode: probability of an injected transport delay")
		chSpan    = fs.Duration("chaos-latency-span", 10*time.Millisecond, "worker mode: injected delay upper bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join != "" {
		return runWorker(out, workerConfig{
			base: *join, id: *id, pool: *workers,
			poll: *poll, linger: *linger, maxLeases: *maxLeases,
			timeout: *timeout, retries: *retries,
			chaos: fleet.ChaosOptions{
				Seed: *chSeed, Drop: *chDrop, Inject500: *ch500,
				Duplicate: *chDup, Latency: *chLat, LatencySpan: *chSpan,
			},
		})
	}

	c, err := fleet.New(fleet.Options{
		LeaseSize:             *leaseSize,
		LeaseTTL:              *leaseTTL,
		LivenessWindow:        *liveness,
		JournalPath:           *journal,
		KeepObservations:      *keepObs,
		QuarantineAfter:       *qAfter,
		QuarantineWindow:      *qWindow,
		QuarantineCooldown:    *qCooldown,
		QuarantineCooldownMax: *qMax,
		ArchiveRoot:           *archRoot,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	if *matrix != "" {
		doc, err := config.LoadCampaign(*matrix)
		if err != nil {
			return err
		}
		spec, err := campaign.FromConfig(doc)
		if err != nil {
			return err
		}
		cid, err := c.Submit(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "submitted %s as campaign %s\n", *matrix, cid)
	}

	bound, shutdown, err := timeline.Serve(*addr, fleetMux(c, *archRoot))
	if err != nil {
		return err
	}
	defer shutdown()
	fmt.Fprintf(out, "aircampaignd coordinating on %s (lease %d runs, ttl %v)\n", bound, *leaseSize, *leaseTTL)

	stopShards := make(chan struct{})
	defer close(stopShards)
	for i := 0; i < *workers; i++ {
		shard := fmt.Sprintf("local-%d", i)
		go runShardLoop(c, shard, *poll, stopShards, os.Stderr)
	}
	if *workers > 0 {
		fmt.Fprintf(out, "  running %d in-process worker shards\n", *workers)
	}

	if serveHook != nil {
		serveHook("fleet", bound)
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(out, "aircampaignd: shutting down")
	return nil
}

// runShardLoop drives one in-process worker shard until stop closes or the
// worker errors out. Work returns on drain; a daemon shard lingers for the
// next campaign, re-polling every poll interval. The stop channel makes the
// shard goroutines join-able: the daemon closes it on shutdown and each
// shard exits at its next poll boundary instead of outliving the
// coordinator it serves.
func runShardLoop(svc fleet.Service, shard string, poll time.Duration, stop <-chan struct{}, errw io.Writer) {
	for {
		if _, err := fleet.Work(svc, fleet.WorkerOptions{ID: shard, Workers: 1, Poll: poll}); err != nil {
			fmt.Fprintf(errw, "aircampaignd: shard %s: %v\n", shard, err)
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(poll):
		}
	}
}

// fleetMux mounts the fleet API beside the telemetry endpoints, with
// /metrics extended by the air_fleet_* coordination gauges and — when an
// archive root is configured — the /archive/* bitemporal query endpoints
// over the stored fleet history.
func fleetMux(c *fleet.Coordinator, archiveRoot string) http.Handler {
	mux := http.NewServeMux()
	fh := fleet.Handler(c)
	mux.Handle("/campaigns", fh)
	mux.Handle("/campaigns/", fh)
	mux.Handle("/fleet/", fh)
	if archiveRoot != "" {
		mux.Handle("/archive/", archive.Handler(archiveRoot))
	}
	tl := timeline.Handler(c)
	mux.Handle("/timeline.json", tl)
	mux.Handle("/flight", tl)
	mux.Handle("/debug/pprof/", tl)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = timeline.WritePrometheus(w, c.Registry(), c.Snapshot())
		_ = fleet.WritePrometheus(w, c.FleetStatus())
	})
	return mux
}

// workerConfig carries worker mode's flag set.
type workerConfig struct {
	base, id          string
	pool              int
	poll              time.Duration
	linger            bool
	maxLeases         int
	timeout           time.Duration
	retries           int
	chaos             fleet.ChaosOptions
	stop              <-chan struct{} // tests override the SIGTERM channel
	skipSignalHandler bool
}

// chaosOn reports whether any fault class has a non-zero rate or a schedule
// seed was set explicitly.
func (wc workerConfig) chaosOn() bool {
	ch := wc.chaos
	return ch.Seed != 0 || ch.Drop > 0 || ch.Inject500 > 0 || ch.Duplicate > 0 || ch.Latency > 0
}

// runWorker is worker mode: one shard process joining a remote coordinator.
func runWorker(out io.Writer, wc workerConfig) error {
	if wc.id == "" {
		wc.id = fmt.Sprintf("shard-%d", os.Getpid())
	}
	if wc.pool <= 0 {
		wc.pool = runtime.GOMAXPROCS(0)
	}
	cl := &fleet.Client{
		Base:    wc.base,
		Timeout: wc.timeout,
		Retry:   fleet.RetryPolicy{Attempts: wc.retries},
	}
	if wc.chaosOn() {
		chaos := fleet.NewChaos(wc.chaos)
		cl.HTTP = &http.Client{Transport: chaos.Transport(nil), Timeout: wc.timeout}
		fmt.Fprintf(out, "%s: chaos schedule armed (seed %d)\n", wc.id, wc.chaos.Seed)
	}

	// Fail fast while nothing is in flight: a misconfigured or down
	// coordinator should cost one retry budget, not a lease loop that dies
	// deep in Acquire.
	if err := cl.Ping(); err != nil {
		return fmt.Errorf("coordinator %s unreachable: %w", wc.base, err)
	}

	// SIGTERM requests a graceful drain: finish and report the in-flight
	// lease, then exit 0. A second SIGTERM kills the process the usual way.
	stop := wc.stop
	if !wc.skipSignalHandler {
		ch := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		//air:allow(spawn): signal plumbing blocks on <-sig for the process lifetime; nothing can join it
		go func() {
			<-sig
			fmt.Fprintf(out, "%s: drain requested, finishing in-flight lease\n", wc.id)
			close(ch)
			signal.Stop(sig)
		}()
		stop = ch
	}

	total := 0
	for {
		n, err := fleet.Work(cl, fleet.WorkerOptions{
			ID:        wc.id,
			Workers:   wc.pool,
			Poll:      wc.poll,
			MaxLeases: wc.maxLeases,
			Retries:   cl.Retries,
			Stop:      stop,
		})
		total += n
		if err != nil {
			return err
		}
		if drained(stop) {
			fmt.Fprintf(out, "%s: drained after %d leases\n", wc.id, total)
			return nil
		}
		if wc.maxLeases > 0 && n >= wc.maxLeases {
			fmt.Fprintf(out, "%s: lease budget reached after %d leases\n", wc.id, total)
			return nil
		}
		if !wc.linger {
			fmt.Fprintf(out, "%s: coordinator drained after %d leases\n", wc.id, total)
			return nil
		}
		time.Sleep(wc.poll)
	}
}

// drained reports whether the stop channel has been closed.
func drained(stop <-chan struct{}) bool {
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
