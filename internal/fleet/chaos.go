package fleet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Chaos is the fleet's deterministic fault-injection harness: a seeded
// schedule of transport faults applied between workers and the
// coordinator. It wraps a worker's http.RoundTripper (Transport), so the
// faults hit the path a real worker takes — Client retries, the Handler,
// the JSON bodies — and injects the distributed-system fault classes the
// resilience layer must absorb:
//
//   - drop: the request is lost before delivery (connection reset); the
//     caller retries, and an Acquire that was actually granted on an
//     earlier schedule never existed.
//   - drop-response: the request is delivered but the reply is lost; the
//     caller retries a call that already happened — the duplicate-delivery
//     path Complete's idempotency exists for.
//   - 500: a synthetic internal error without delivery (an overloaded or
//     restarting coordinator).
//   - duplicate: the request is delivered twice (a retransmitting network);
//     the first reply is discarded.
//   - latency: a scheduled delay before delivery (a slow or congested
//     path); long enough delays push live workers past lease TTLs.
//
// Every decision comes from one seeded generator consumed in operation
// order, so a chaos run is reproducible: the same seed over the same
// operation sequence injects the same faults. The acceptance bar is the
// repo's signature invariant — a campaign run under any chaos schedule
// produces a byte-identical Aggregate to the clean run; chaos only ever
// costs wall-clock time.
//
// Worker crash-mid-lease and coordinator restart are process-level faults
// scripted outside this layer (kill the worker, reopen the journal): see
// the chaos equivalence tests and the CI chaos soak.
type Chaos struct {
	mu   sync.Mutex
	opts ChaosOptions
	//air:guard(mu)
	rng *rand.Rand
	//air:guard(mu)
	stats ChaosStats
}

// ChaosOptions scripts a Chaos schedule. The class probabilities are
// evaluated per operation in a fixed draw order; at most one delivery
// fault fires per operation, while latency composes with any of them.
type ChaosOptions struct {
	// Seed drives the whole schedule (default 1).
	Seed uint64
	// Drop is the probability the request is lost before delivery.
	Drop float64
	// DropResponse is the probability the reply is lost after delivery.
	DropResponse float64
	// Inject500 is the probability of a synthetic 500 without delivery.
	Inject500 float64
	// Duplicate is the probability the request is delivered twice.
	Duplicate float64
	// Latency is the probability of an injected delay; LatencySpan is the
	// delay's upper bound (default 10ms), scaled by the schedule.
	Latency     float64
	LatencySpan time.Duration
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.LatencySpan <= 0 {
		o.LatencySpan = 10 * time.Millisecond
	}
	return o
}

// ChaosStats counts the faults a schedule has injected so far.
type ChaosStats struct {
	Ops           int64 `json:"ops"`
	Drops         int64 `json:"drops"`
	ResponseDrops int64 `json:"responseDrops"`
	Injected500s  int64 `json:"injected500s"`
	Duplicates    int64 `json:"duplicates"`
	Delays        int64 `json:"delays"`
}

// Faults is the total number of injected faults of every class.
func (s ChaosStats) Faults() int64 {
	return s.Drops + s.ResponseDrops + s.Injected500s + s.Duplicates + s.Delays
}

// NewChaos builds a chaos harness over a seeded schedule.
func NewChaos(opts ChaosOptions) *Chaos {
	opts = opts.withDefaults()
	return &Chaos{
		opts: opts,
		rng:  rand.New(rand.NewSource(int64(opts.Seed))),
	}
}

// ErrInjected is the root of every chaos-injected transport failure, so
// tests and logs can tell scheduled faults from real ones.
var ErrInjected = errors.New("chaos: injected connection reset")

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// chaosClass is the delivery fate of one operation.
type chaosClass int

const (
	chaosNone chaosClass = iota
	chaosDrop
	chaosDropResponse
	chaos500
	chaosDuplicate
)

type chaosDecision struct {
	class chaosClass
	delay time.Duration
}

// next consumes one decision from the schedule. The generator is drawn a
// fixed three times per operation regardless of outcome, so the schedule
// is a pure function of (seed, operation index).
func (c *Chaos) next() chaosDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Ops++
	uClass := c.rng.Float64()
	uLat := c.rng.Float64()
	uSpan := c.rng.Float64()
	var d chaosDecision
	if uLat < c.opts.Latency {
		d.delay = time.Duration(uSpan * float64(c.opts.LatencySpan))
		c.stats.Delays++
	}
	o := c.opts
	switch {
	case uClass < o.Drop:
		d.class = chaosDrop
		c.stats.Drops++
	case uClass < o.Drop+o.DropResponse:
		d.class = chaosDropResponse
		c.stats.ResponseDrops++
	case uClass < o.Drop+o.DropResponse+o.Inject500:
		d.class = chaos500
		c.stats.Injected500s++
	case uClass < o.Drop+o.DropResponse+o.Inject500+o.Duplicate:
		d.class = chaosDuplicate
		c.stats.Duplicates++
	}
	return d
}

// Transport wraps an http.RoundTripper (nil = http.DefaultTransport) with
// the chaos schedule. Hand it to a fleet.Client via HTTP:
//
//	cl := &fleet.Client{Base: url, HTTP: &http.Client{Transport: chaos.Transport(nil), Timeout: 2 * time.Second}}
func (c *Chaos) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &chaosTransport{c: c, base: base}
}

type chaosTransport struct {
	c    *Chaos
	base http.RoundTripper
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.c.next()
	if d.delay > 0 {
		sleep(d.delay)
	}
	if (d.class == chaosDrop || d.class == chaos500) && req.Body != nil {
		req.Body.Close() // never delivered, but a RoundTripper always closes the body
	}
	switch d.class {
	case chaosDrop:
		return nil, fmt.Errorf("%w (request lost)", ErrInjected)
	case chaos500:
		return &http.Response{
			Status:     "500 Internal Server Error",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"text/plain"}},
			Body:    io.NopCloser(strings.NewReader("chaos: injected server error")),
			Request: req,
		}, nil
	case chaosDropResponse:
		res, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return nil, fmt.Errorf("%w (response lost)", ErrInjected)
	case chaosDuplicate:
		// Clone before the first delivery consumes the body. A request
		// whose body cannot be replayed is delivered once.
		req2, cerr := cloneRequest(req)
		if cerr != nil {
			return t.base.RoundTrip(req)
		}
		res, err := t.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return t.base.RoundTrip(req2)
	default:
		return t.base.RoundTrip(req)
	}
}

// cloneRequest duplicates an outgoing request, replaying its body through
// GetBody (set by http.NewRequest for byte-reader bodies).
func cloneRequest(req *http.Request) (*http.Request, error) {
	r2 := req.Clone(req.Context())
	if req.Body == nil {
		return r2, nil
	}
	if req.GetBody == nil {
		return nil, errors.New("chaos: request body cannot be replayed")
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	r2.Body = body
	return r2, nil
}
