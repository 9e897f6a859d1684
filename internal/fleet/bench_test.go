package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"air/internal/campaign"
)

// BenchmarkFleetThroughput measures the cost of fleet coordination: the
// same 8-run mixed-fault campaign BenchmarkCampaignThroughput runs through
// the raw engine, executed here through the coordinator with two in-process
// shards — lease dispatch, the coordinator's fold of the retained
// observations and the in-order merge included (no journal, no HTTP). The
// ratio to BenchmarkCampaignThroughput/workers=2 is the coordination tax;
// CI gates that ratio within one run.
func BenchmarkFleetThroughput(b *testing.B) {
	var ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunLocal(campaign.Spec{Runs: 8, Seed: 17, MTFs: 3},
			LocalOptions{Shards: 2, LeaseSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.Aggregate.Ticks
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
	}
}

// BenchmarkComplete measures one lease completion without the network, at
// lease sizes 2 (fleet-http's) and 64 (the default), retaining and
// streaming: the worker puts a finished shard in the form its lease asks
// for (folding it when the coordinator streams) and encodes the request as
// Client.Complete does; Handler decodes it, and the coordinator folds
// retained observations and merges. No journal, so no fsync. The
// coordinator and its Handler are built outside the timer.
func BenchmarkComplete(b *testing.B) {
	for _, retain := range []bool{true, false} {
		for _, size := range []int{2, 64} {
			b.Run(fmt.Sprintf("retain=%v/lease=%d", retain, size), func(b *testing.B) {
				spec := campaign.Spec{Runs: size, Seed: 17, MTFs: 3}
				ran, err := campaign.RunShard(spec, 0, size)
				if err != nil {
					b.Fatal(err)
				}
				reqBytes := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c, err := New(Options{LeaseSize: size, KeepObservations: retain})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.Submit(spec); err != nil {
						b.Fatal(err)
					}
					h := Handler(c)
					l, _, _ := c.Acquire("w")
					sh := &campaign.Shard{Start: ran.Start, End: ran.End, Observations: ran.Observations}
					b.StartTimer()
					ship(l, sh)
					body, err := encodeComplete("w", l, sh)
					if err != nil {
						b.Fatal(err)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathComplete, bytes.NewReader(body)))
					if rec.Code != http.StatusNoContent {
						b.Fatalf("complete = %d: %s", rec.Code, rec.Body)
					}
					reqBytes = len(body)
				}
				b.ReportMetric(float64(reqBytes)/1024, "req_KB")
			})
		}
	}
}
