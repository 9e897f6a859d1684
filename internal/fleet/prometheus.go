package fleet

import (
	"fmt"
	"io"
	"sort"

	"air/internal/timeline"
)

// WritePrometheus renders the fleet coordination state — campaign progress,
// lease ledgers, shard liveness — in the Prometheus text exposition format,
// through internal/timeline's hand-written, library-free printer. It is
// meant to be appended to the same /metrics page timeline.WritePrometheus
// produces over the coordinator (cmd/aircampaignd does exactly that), so
// one scrape covers the merged simulation counters and the fleet that
// computed them. Output is deterministic: campaigns render in submission
// order, workers sorted by name.
func WritePrometheus(w io.Writer, fs FleetStatus) error {
	p := timeline.NewPromWriter(w)

	p.Metric("air_fleet_campaign_runs", "gauge", "Total runs in the campaign's matrix.")
	for _, st := range fs.Campaigns {
		p.Float("air_fleet_campaign_runs", campaignLabel(st), float64(st.Runs))
	}
	p.Metric("air_fleet_campaign_runs_done", "gauge", "Runs whose lease has completed.")
	for _, st := range fs.Campaigns {
		p.Float("air_fleet_campaign_runs_done", campaignLabel(st), float64(st.RunsDone))
	}
	p.Metric("air_fleet_campaign_runs_merged", "gauge", "Runs folded into the in-order merge prefix.")
	for _, st := range fs.Campaigns {
		p.Float("air_fleet_campaign_runs_merged", campaignLabel(st), float64(st.RunsMerged))
	}
	p.Metric("air_fleet_campaign_complete", "gauge", "1 once every lease of the campaign has completed.")
	for _, st := range fs.Campaigns {
		v := 0.0
		if st.Done {
			v = 1
		}
		p.Float("air_fleet_campaign_complete", campaignLabel(st), v)
	}
	p.Metric("air_fleet_leases", "gauge", "Campaign leases by state.")
	for _, st := range fs.Campaigns {
		for _, s := range []struct {
			state string
			n     int
		}{
			{"pending", st.Leases.Pending},
			{"issued", st.Leases.Issued},
			{"done", st.Leases.Done},
		} {
			p.Float("air_fleet_leases", fmt.Sprintf(`campaign=%q,state=%q`, st.ID, s.state), float64(s.n))
		}
	}

	workers := make([]string, 0, len(fs.Workers))
	for name := range fs.Workers { //air:allow(maprange): collected into a slice and sorted below
		workers = append(workers, name)
	}
	sort.Strings(workers)
	p.Metric("air_fleet_worker_live", "gauge", "1 while the shard has contacted the coordinator within the liveness window.")
	for _, name := range workers {
		v := 0.0
		if fs.Workers[name].Live {
			v = 1
		}
		p.Float("air_fleet_worker_live", fmt.Sprintf(`worker=%q`, name), v)
	}
	p.Metric("air_fleet_worker_leases_total", "counter", "Leases completed by the shard.")
	for _, name := range workers {
		p.Float("air_fleet_worker_leases_total", fmt.Sprintf(`worker=%q`, name), float64(fs.Workers[name].Leases))
	}
	p.Metric("air_fleet_worker_beat_age_millis", "gauge", "Milliseconds since the shard's last coordinator contact (heartbeat liveness age).")
	for _, name := range workers {
		p.Float("air_fleet_worker_beat_age_millis", fmt.Sprintf(`worker=%q`, name), float64(fs.Workers[name].BeatAgeMillis))
	}
	p.Metric("air_fleet_retries_total", "counter", "Transport retries the shard's client has spent, as last reported by its heartbeats.")
	for _, name := range workers {
		p.Float("air_fleet_retries_total", fmt.Sprintf(`worker=%q`, name), float64(fs.Workers[name].Retries))
	}
	p.Metric("air_fleet_worker_quarantined", "gauge", "1 while the shard is quarantined by the flap detector (0.5 while half-open probing).")
	quarantined := 0
	for _, name := range workers {
		w := fs.Workers[name]
		v := 0.0
		switch {
		case w.Probing:
			v = 0.5
		case w.Quarantined:
			v = 1
		}
		if w.Quarantined {
			quarantined++
		}
		p.Float("air_fleet_worker_quarantined", fmt.Sprintf(`worker=%q`, name), v)
	}
	p.Metric("air_fleet_quarantined_workers", "gauge", "Shards currently quarantined fleet-wide.")
	p.Float("air_fleet_quarantined_workers", "", float64(quarantined))
	return p.Err()
}

func campaignLabel(st Status) string { return fmt.Sprintf(`campaign=%q`, st.ID) }
