package timeline

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"air/internal/obs"
)

// Source is what the telemetry server reads: a Timeline, or any aggregating
// stand-in (cmd/aircampaign serves the merged view of a whole campaign
// through one).
type Source interface {
	// Snapshot returns the derived timeliness state.
	Snapshot() Snapshot
	// Registry returns the metrics-registry snapshot backing /metrics.
	Registry() obs.Snapshot
	// Flight returns the flight-data-recorder post-mortem dump.
	Flight() FlightDump
}

// Handler returns the telemetry endpoint set:
//
//	/metrics        Prometheus text exposition (0.0.4)
//	/timeline.json  full derived snapshot as JSON (cmd/airmon's feed)
//	/flight         flight-data-recorder post-mortem JSON
//	/debug/pprof/   Go runtime profiles
//
// All handlers read through the Source on each request; a Timeline source is
// internally synchronized, so serving concurrently with the simulation is
// safe. The mux is returned so a command can mount more endpoints on the
// same server (the flight archive's /archive/ queries).
func Handler(src Source) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, src.Registry(), src.Snapshot())
	})
	mux.HandleFunc("/timeline.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src.Snapshot())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src.Flight())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve starts an HTTP server for h on addr (":0" picks a free port) and
// returns the bound address plus a shutdown function. The server runs on a
// background goroutine; the simulation loop never blocks on it. Every
// command serves its endpoints through it: Handler's telemetry set, with
// the archive queries or the fleet API mounted beside it.
func Serve(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	//air:allow(goroutine): the telemetry HTTP server lives off the tick domain by design
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
