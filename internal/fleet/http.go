package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"air/internal/campaign"
	"air/internal/config"
	"air/internal/wire"
)

// API paths. The campaign surface is operator-facing; the /fleet surface is
// the worker-shard protocol (Client speaks it, Handler serves it).
const (
	pathCampaigns = "/campaigns"
	pathAcquire   = "/fleet/acquire"
	pathComplete  = "/fleet/complete"
	pathHeartbeat = "/fleet/heartbeat"
)

// submitResponse is POST /campaigns's body.
type submitResponse struct {
	ID string `json:"id"`
}

// acquireRequest is POST /fleet/acquire's body.
type acquireRequest struct {
	Worker string `json:"worker"`
}

// acquireResponse is its reply: State is "granted" (Lease set), "wait" or
// "drained".
type acquireResponse struct {
	State string `json:"state"`
	Lease *Lease `json:"lease,omitempty"`
}

// completeRequest is POST /fleet/complete's body. It crosses the wire in
// one hand-written form, appendCompleteRequest's, which is the bytes
// encoding/json writes for it.
type completeRequest struct {
	Worker string          `json:"worker"`
	Lease  Lease           `json:"lease"`
	Shard  *campaign.Shard `json:"shard"`
}

// encodeComplete is a completion's body as Client.Complete sends it, in a
// buffer sized for its observations up front.
func encodeComplete(worker string, l Lease, sh *campaign.Shard) ([]byte, error) {
	size := 512
	if sh != nil {
		size += observationSizeHint * len(sh.Observations)
	}
	return appendCompleteRequest(make([]byte, 0, size), &completeRequest{Worker: worker, Lease: l, Shard: sh})
}

// observationSizeHint is about what one retained run of the default
// matrix encodes to.
const observationSizeHint = 4 << 10

// appendCompleteRequest appends r as encoding/json writes it.
func appendCompleteRequest(dst []byte, r *completeRequest) ([]byte, error) {
	e := wire.NewEncoder(dst)
	e.Raw(`{"worker":`)
	e.Str(r.Worker)
	e.Raw(`,"lease":`)
	appendLease(e, &r.Lease)
	e.Raw(`,"shard":`)
	if r.Shard == nil {
		e.Raw("null")
	} else {
		campaign.AppendShard(e, r.Shard)
	}
	e.Raw("}")
	return e.Bytes()
}

// parseCompleteRequest reads one body as appendCompleteRequest writes it,
// any member of which may be left out, and refuses every other form.
func parseCompleteRequest(b []byte) (completeRequest, error) {
	var r completeRequest
	p := wire.NewParser(b)
	p.Object()
	if p.Field(`"worker":`) {
		r.Worker = p.Str()
	}
	if p.Field(`"lease":`) {
		parseLease(&p, &r.Lease)
	}
	if p.Field(`"shard":`) && !p.Null() {
		r.Shard = &campaign.Shard{}
		campaign.ParseShard(&p, r.Shard)
	}
	p.End()
	if err := p.Finish(); err != nil {
		return completeRequest{}, err
	}
	return r, nil
}

// heartbeatRequest is POST /fleet/heartbeat's body. Lease, when set, asks
// for that lease's reclamation deadline to be renewed.
type heartbeatRequest struct {
	Worker  string `json:"worker"`
	Lease   *Lease `json:"lease,omitempty"`
	Retries int64  `json:"retries,omitempty"`
}

// Handler serves the coordinator's HTTP API:
//
//	POST /campaigns              submit a campaign matrix document (config.Campaign JSON)
//	GET  /campaigns              fleet-wide progress and shard liveness
//	GET  /campaigns/{id}         one campaign's progress
//	GET  /campaigns/{id}/spec    the executable spec (worker shards fetch this)
//	GET  /campaigns/{id}/result  the final Result JSON (409 until complete)
//	GET  /campaigns/{id}/archives  the stored flight-archive index (run → seed → dir)
//	POST /fleet/acquire          worker shard asks for a lease
//	POST /fleet/complete         worker shard reports a finished lease
//	POST /fleet/heartbeat        worker shard renews its liveness and in-flight lease
//
// Mount it alongside the telemetry handlers (the coordinator implements
// timeline.Source, so /metrics, /timeline.json and /flight come from
// timeline.Handler over the same Coordinator).
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var doc config.Campaign
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<22)).Decode(&doc); err != nil {
			http.Error(w, "bad campaign document: "+err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := campaign.FromConfig(&doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := c.Submit(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusCreated, submitResponse{ID: id})
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.FleetStatus())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Progress(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /campaigns/{id}/spec", func(w http.ResponseWriter, r *http.Request) {
		spec, err := c.Spec(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, spec)
	})
	mux.HandleFunc("GET /campaigns/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.Result(r.PathValue("id"))
		if err != nil {
			code := http.StatusConflict
			if _, perr := c.Progress(r.PathValue("id")); perr != nil {
				code = http.StatusNotFound
			}
			http.Error(w, err.Error(), code)
			return
		}
		data, err := res.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("GET /campaigns/{id}/archives", func(w http.ResponseWriter, r *http.Request) {
		entries, err := c.ArchiveIndex(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("POST /fleet/acquire", func(w http.ResponseWriter, r *http.Request) {
		var req acquireRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, "bad acquire request: "+err.Error(), http.StatusBadRequest)
			return
		}
		l, state, err := c.Acquire(req.Worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := acquireResponse{State: state.String()}
		if state == Granted {
			resp.Lease = &l
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r, 1<<30)
		if err != nil {
			http.Error(w, "bad complete request: "+err.Error(), http.StatusBadRequest)
			return
		}
		req, err := parseCompleteRequest(body)
		if err != nil {
			http.Error(w, "bad complete request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.Complete(req.Worker, req.Lease, req.Shard); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, "bad heartbeat request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.Heartbeat(req.Worker, req.Lease, req.Retries); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// readBody reads a request body of at most limit bytes into one buffer,
// sized from the Content-Length when the request declares one.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= limit {
		body := make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(io.LimitReader(r.Body, limit))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

// RetryPolicy bounds the Client's transparent retries: every request gets
// at most Attempts tries, separated by exponential backoff with seeded
// jitter. Retrying is safe by protocol design — Acquire at worst orphans a
// lease the TTL reclaims, Complete and Heartbeat are idempotent
// server-side, Spec and Submit are read-or-replayable — so the client
// retries transport failures and 5xx responses blindly.
type RetryPolicy struct {
	// Attempts is the total number of tries per request (default 4; 1
	// disables retrying).
	Attempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax (defaults 50ms and 2s). The actual
	// delay is jittered uniformly over [Backoff/2, Backoff) of the doubled
	// value so a fleet of workers never retries in lockstep.
	Backoff    time.Duration
	BackoffMax time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	return p
}

// Client implements Service over the Handler's /fleet protocol: a worker
// process joins a remote coordinator with
//
//	n, err := fleet.Work(&fleet.Client{Base: "http://coord:9464"}, opts)
//
// The zero-value-plus-Base client is production-ready: every request
// carries a timeout (a hung coordinator can never wedge a worker), and
// transient failures — connection resets, timeouts, 5xx — are retried under
// Retry's budget with seeded-jitter exponential backoff.
type Client struct {
	// Base is the coordinator's base URL (no trailing slash).
	Base string
	// HTTP is the underlying client. Nil builds one with Timeout applied;
	// a caller-supplied client is used as-is (set its Timeout yourself).
	HTTP *http.Client
	// Timeout bounds each request attempt when HTTP is nil (default 10s).
	Timeout time.Duration
	// Retry bounds the transparent retries (zero value = defaults).
	Retry RetryPolicy

	mu sync.Mutex
	// rng draws the backoff jitter; seeded with 1 on first retry.
	//air:guard(mu)
	rng     *rand.Rand
	retries atomic.Int64
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	to := cl.Timeout
	if to <= 0 {
		to = 10 * time.Second
	}
	// The zero Transport shares http.DefaultTransport's connection pool, so
	// building a Client per call costs nothing.
	return &http.Client{Timeout: to}
}

// backoff computes the jittered delay before the retry-th retry (1-based).
func (cl *Client) backoff(p RetryPolicy, retry int) time.Duration {
	d := p.Backoff << (retry - 1)
	if d > p.BackoffMax || d <= 0 {
		d = p.BackoffMax
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.rng == nil {
		cl.rng = rand.New(rand.NewSource(1))
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + cl.rng.Int63n(half))
}

// Retries returns the cumulative number of request retries this client has
// performed — the figure workers report in heartbeats and the coordinator
// exports as air_fleet_retries_total.
func (cl *Client) Retries() int64 { return cl.retries.Load() }

// Acquire implements Service.
func (cl *Client) Acquire(worker string) (Lease, AcquireState, error) {
	var resp acquireResponse
	if err := cl.post(pathAcquire, acquireRequest{Worker: worker}, &resp); err != nil {
		return Lease{}, Wait, err
	}
	switch resp.State {
	case "granted":
		if resp.Lease == nil {
			return Lease{}, Wait, fmt.Errorf("fleet: coordinator granted no lease")
		}
		return *resp.Lease, Granted, nil
	case "wait":
		return Lease{}, Wait, nil
	case "drained":
		return Lease{}, Drained, nil
	}
	return Lease{}, Wait, fmt.Errorf("fleet: unknown acquire state %q", resp.State)
}

// Spec implements Service.
func (cl *Client) Spec(campaignID string) (campaign.Spec, error) {
	var spec campaign.Spec
	err := cl.do(pathCampaigns+"/"+campaignID+"/spec", nil, &spec)
	return spec, err
}

// Complete implements Service.
func (cl *Client) Complete(worker string, l Lease, sh *campaign.Shard) error {
	body, err := encodeComplete(worker, l, sh)
	if err != nil {
		return err
	}
	return cl.do(pathComplete, body, nil)
}

// Heartbeat implements Service.
func (cl *Client) Heartbeat(worker string, l *Lease, retries int64) error {
	return cl.post(pathHeartbeat, heartbeatRequest{Worker: worker, Lease: l, Retries: retries}, nil)
}

// Ping probes the coordinator's fleet surface once per retry budget —
// worker processes call it at startup to distinguish "coordinator
// unreachable" (fail fast, exit non-zero) from mid-run transient errors
// (retried in place).
func (cl *Client) Ping() error {
	return cl.do(pathCampaigns, nil, nil)
}

// Submit ships a campaign matrix document and returns its campaign ID —
// the programmatic face of POST /campaigns.
func (cl *Client) Submit(doc *config.Campaign) (string, error) {
	var resp submitResponse
	if err := cl.post(pathCampaigns, doc, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// post sends body as JSON and decodes the reply into out (nil = discard).
func (cl *Client) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return cl.do(path, data, out)
}

// do performs one logical request — POST when data is non-nil, GET
// otherwise — under the retry budget. Each attempt rebuilds the request
// from data, so a half-sent body never poisons the next try.
func (cl *Client) do(path string, data []byte, out any) error {
	p := cl.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if attempt > 1 {
			cl.retries.Add(1)
			sleep(cl.backoff(p, attempt-1))
		}
		err := cl.once(path, data, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("fleet: %s: retry budget exhausted after %d attempts: %w", path, p.Attempts, lastErr)
}

// once is a single request attempt.
func (cl *Client) once(path string, data []byte, out any) error {
	var res *http.Response
	var err error
	if data != nil {
		res, err = cl.http().Post(cl.Base+path, "application/json", bytes.NewReader(data))
	} else {
		res, err = cl.http().Get(cl.Base + path)
	}
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode < 200 || res.StatusCode > 299 {
		return httpError(res)
	}
	if out == nil {
		io.Copy(io.Discard, res.Body)
		return nil
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: decode %s: %w", path, err)
	}
	return nil
}

// statusError is a non-2xx coordinator reply, carrying the code so the
// retry loop can separate transient 5xx from definitive 4xx.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("fleet: coordinator %d: %s", e.code, e.msg)
}

func httpError(res *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(res.Body, 1<<12))
	return &statusError{code: res.StatusCode, msg: string(bytes.TrimSpace(msg))}
}

// retryable separates transient failures (network errors, timeouts, 5xx,
// 429) from definitive ones (4xx protocol errors, decode failures).
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	var ue *url.Error
	return errors.As(err, &ue)
}
