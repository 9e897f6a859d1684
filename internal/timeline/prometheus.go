package timeline

import (
	"fmt"
	"io"
	"sort"

	"air/internal/obs"
)

// WritePrometheus renders the analyzer state in the Prometheus text
// exposition format (version 0.0.4), hand-written with fmt — no client
// library. Output is deterministic: kind names and series labels are sorted,
// and snapshots are already sorted by key, so a fixed simulation produces a
// byte-identical page (golden-file tested).
func WritePrometheus(w io.Writer, reg obs.Snapshot, s Snapshot) error {
	p := NewPromWriter(w)

	p.Metric("air_ticks_total", "counter", "Simulation ticks analyzed.")
	p.Series("air_ticks_total", "", s.Ticks)

	p.Metric("air_events_total", "counter", "Events observed on the observability spine, by kind.")
	kinds := make([]string, 0, len(reg.Counts))
	for k := range reg.Counts { //air:allow(maprange): collected into a slice and sorted below
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		p.Series("air_events_total", fmt.Sprintf(`kind=%q`, k), reg.Counts[k])
	}

	p.histSnapshot("air_detection_latency_ticks",
		"Deadline-miss detection latency (PAL Algorithm 3).", reg.DetectionLatency)
	p.histSnapshot("air_window_gap_ticks",
		"Ticks a partition spent off the processor before each window activation.", reg.WindowGap)

	p.Metric("air_partition_windows_total", "counter", "Partition windows activated.")
	for _, pt := range s.Partitions {
		p.Series("air_partition_windows_total", partLabels(pt), pt.Windows)
	}
	p.Metric("air_partition_supplied_ticks_total", "counter", "Processor ticks supplied to the partition.")
	for _, pt := range s.Partitions {
		p.Series("air_partition_supplied_ticks_total", partLabels(pt), pt.Supplied)
	}
	p.Metric("air_partition_utilization", "gauge", "Supplied ticks / elapsed ticks.")
	for _, pt := range s.Partitions {
		p.Float("air_partition_utilization", partLabels(pt), pt.Utilization)
	}
	p.Metric("air_partition_cycle_ticks", "gauge", "Contracted activation cycle η (eq. (19)); 0 when uncontracted.")
	for _, pt := range s.Partitions {
		p.Series("air_partition_cycle_ticks", partLabels(pt), pt.CycleTicks)
	}
	p.Metric("air_partition_budget_ticks", "gauge", "Contracted budget d per cycle (eq. (19)).")
	for _, pt := range s.Partitions {
		p.Series("air_partition_budget_ticks", partLabels(pt), pt.BudgetTicks)
	}
	p.Metric("air_partition_budget_shortfalls_total", "counter",
		"Activation cycles whose supplied time fell below the contracted budget (model violations).")
	for _, pt := range s.Partitions {
		p.Series("air_partition_budget_shortfalls_total", partLabels(pt), pt.Shortfalls)
	}

	p.Metric("air_process_releases_total", "counter", "Process activations released.")
	for _, pr := range s.Processes {
		p.Series("air_process_releases_total", procLabels(pr), pr.Releases)
	}
	p.Metric("air_process_completions_total", "counter", "Process activations completed.")
	for _, pr := range s.Processes {
		p.Series("air_process_completions_total", procLabels(pr), pr.Completions)
	}
	p.Metric("air_response_ticks", "summary", "Process response time (completion − nominal release).")
	for _, pr := range s.Processes {
		p.quantiles("air_response_ticks", procLabels(pr), pr.Response)
	}
	p.Metric("air_jitter_ticks", "summary", "Successive-response-time jitter.")
	for _, pr := range s.Processes {
		p.quantiles("air_jitter_ticks", procLabels(pr), pr.Jitter)
	}
	p.Metric("air_slack_ticks_min", "gauge", "Worst observed completion slack (deadline − completion).")
	for _, pr := range s.Processes {
		p.Series("air_slack_ticks_min", procLabels(pr), pr.Slack.Min)
	}

	p.Metric("air_deadline_misses_total", "counter", "Deadline misses detected by the PAL.")
	p.Series("air_deadline_misses_total", "", s.DeadlineMisses)
	p.Metric("air_early_warnings_total", "counter",
		"Slack-watermark early warnings raised ahead of any PAL/HM detection.")
	p.Series("air_early_warnings_total", "", s.EarlyWarnings)
	p.Metric("air_early_warning_lead_ticks", "summary",
		"Lead time from early warning to PAL deadline-miss detection.")
	p.quantiles("air_early_warning_lead_ticks", "", s.EarlyWarningLead)
	p.Metric("air_model_violations_total", "counter",
		"Live checks of the scheduling model (eqs. (14)-(24)) that failed.")
	p.Series("air_model_violations_total", "", s.ModelViolations)

	// Flight-archive durable-storage gauges: always present (zeros when no
	// sink is attached) so the scrape schema does not depend on wiring.
	var arch ArchiveSnap
	if s.Archive != nil {
		arch = *s.Archive
	}
	p.Metric("air_archive_segments", "gauge", "Flight-archive segment files (sealed plus active).")
	p.Series("air_archive_segments", "", arch.Segments)
	p.Metric("air_archive_bytes_total", "counter", "Frame bytes appended to the flight archive.")
	p.Series("air_archive_bytes_total", "", arch.Bytes)
	p.Metric("air_archive_records_total", "counter", "Spine events appended to the flight archive.")
	p.Series("air_archive_records_total", "", arch.Records)

	return p.Err()
}

// PromWriter writes the Prometheus text exposition format (0.0.4) through
// straight-line calls: the first write error is latched, later calls do
// nothing, and Err reports it. internal/fleet renders its coordination
// gauges with it, so both halves of a /metrics page share one printer.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter over w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Metric writes a metric family's HELP and TYPE lines.
func (p *PromWriter) Metric(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Series writes one integer sample; labels is the rendered label list
// without braces ("" for none).
func (p *PromWriter) Series(name, labels string, v uint64) {
	if labels == "" {
		p.printf("%s %d\n", name, v)
		return
	}
	p.printf("%s{%s} %d\n", name, labels, v)
}

// Float writes one sample in %g form.
func (p *PromWriter) Float(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %g\n", name, v)
		return
	}
	p.printf("%s{%s} %g\n", name, labels, v)
}

// quantiles renders a timeline histogram as a Prometheus summary: p50/p99
// estimated from the log2 buckets, max exact, plus _sum and _count.
func (p *PromWriter) quantiles(name, labels string, h HistSnap) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	p.printf("%s{%s%squantile=\"0.5\"} %d\n", name, labels, sep, h.Quantile(0.5))
	p.printf("%s{%s%squantile=\"0.99\"} %d\n", name, labels, sep, h.Quantile(0.99))
	p.printf("%s{%s%squantile=\"1\"} %d\n", name, labels, sep, h.Max)
	p.Series(name+"_sum", labels, h.Sum)
	p.Series(name+"_count", labels, h.Count)
}

// histSnapshot renders an obs registry histogram as _count/_sum/_max.
func (p *PromWriter) histSnapshot(name, help string, h obs.HistSnapshot) {
	p.Metric(name, "summary", help)
	p.Series(name+"_count", "", h.Count)
	p.Series(name+"_sum", "", h.Sum)
	p.Series(name+"_max", "", h.Max)
}

func partLabels(pt PartSnap) string {
	return fmt.Sprintf(`core="%d",partition=%q`, pt.Core, pt.Partition)
}

func procLabels(pr ProcSnap) string {
	return fmt.Sprintf(`core="%d",partition=%q,process=%q`, pr.Core, pr.Partition, pr.Process)
}
