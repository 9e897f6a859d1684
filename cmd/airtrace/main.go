// Command airtrace reads a JSON-lines module trace (produced by the
// library's trace export) or a bitemporal flight archive (produced by
// airsim/aircampaign -archive) and prints a summary, a filtered listing, or
// a time-travel scrub. Together with airsim's -trace-out and -archive flags
// it closes the tooling loop: run → export → inspect → rewind.
//
// Usage:
//
//	airtrace [-kind KIND] [-partition P] [-since T] [-until T]
//	         [-summary|-metrics|-export] file.jsonl
//	airtrace -archive dir [same flags]
//	airtrace -archive dir -scrub 10
//	airsim -mtfs 10 -fault -trace-out run.jsonl && airtrace -summary run.jsonl
//
// -since/-until bound valid time (simulation ticks) with the same inclusive
// predicate the archive's range queries use. -export re-emits the selected
// events as trace JSONL, so a slice of an archive pipes back into any tool
// that reads traces — including airtrace itself.
//
// -scrub N steps backwards through the last N distinct event ticks of an
// archive, reconstructing the as-of module state at each stop (schedule in
// force, degraded flag, health-monitoring table, quarantined partitions) —
// the forensic rewind for "when did this run start going wrong?".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"air/internal/archive"
	"air/internal/model"
	"air/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airtrace", flag.ContinueOnError)
	var (
		kind       = fs.String("kind", "", "only events of this kind (e.g. DEADLINE_MISS)")
		partition  = fs.String("partition", "", "only events of this partition")
		since      = fs.Int64("since", 0, "only events at tick >= this")
		until      = fs.Int64("until", -1, "only events at tick <= this (-1 = unbounded)")
		summary    = fs.Bool("summary", false, "print per-kind and per-partition counts only")
		metrics    = fs.Bool("metrics", false, "replay the events through a metrics registry and print the snapshot JSON")
		export     = fs.Bool("export", false, "re-emit the selected events as trace JSONL")
		archiveDir = fs.String("archive", "", "read events from a flight archive directory instead of a trace file")
		scrub      = fs.Int("scrub", 0, "with -archive: step backwards through the last N distinct event ticks, printing the as-of state at each")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The selected events stream, in order, into the one consumer the flags
	// pick, so no selection is held in memory. kind and partition narrow
	// here; the tick window is the same inclusive predicate the archive
	// reader seeks by, so a JSONL trace and an archive slice select alike.
	consume, finish := selection(out, *export, *metrics, *summary)
	selected := func(e obs.Event) {
		if (*kind == "" || e.Kind.String() == *kind) &&
			(*partition == "" || e.Partition == model.PartitionName(*partition)) &&
			archive.InTickRange(int64(e.Time), *since, *until) {
			consume(e)
		}
	}
	switch {
	case *archiveDir != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: airtrace -archive dir [flags] (no trace file)")
		}
		rd, err := archive.OpenReader(*archiveDir)
		if err != nil {
			return err
		}
		if *scrub > 0 {
			return runScrub(out, rd, *scrub, *since, *until)
		}
		err = rd.Scan(archive.Query{SinceTick: *since, UntilTick: *until}, func(_ uint64, e obs.Event) error {
			selected(e)
			return nil
		})
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		if *scrub > 0 {
			return fmt.Errorf("airtrace: -scrub needs -archive (as-of states are an archive query)")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.ScanEvents(f, selected); err != nil {
			return fmt.Errorf("parse trace: %w", err)
		}
	default:
		return fmt.Errorf("usage: airtrace [flags] trace.jsonl (or -archive dir)")
	}
	return finish()
}

// selection returns the consumer of the selected events for the chosen
// output — trace JSONL, a metrics snapshot, per-kind and per-partition
// counts, or one line per event — and the call that ends that output.
func selection(out io.Writer, export, metrics, summary bool) (consume func(obs.Event), finish func() error) {
	switch {
	case export:
		sink := obs.NewJSONLSink(out)
		return sink.Emit, sink.Flush
	case metrics:
		var m obs.Metrics
		return m.Observe, func() error {
			data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
			if err == nil {
				_, err = fmt.Fprintf(out, "%s\n", data)
			}
			return err
		}
	case summary:
		byKind, byPartition := map[string]int{}, map[string]int{}
		var n int
		var first, last obs.Event
		count := func(e obs.Event) {
			if n == 0 {
				first = e
			}
			n++
			last = e
			byKind[e.Kind.String()]++
			if e.Partition != "" {
				byPartition[string(e.Partition)]++
			}
		}
		report := func() error {
			fmt.Fprintf(out, "%d events", n)
			if n > 0 {
				fmt.Fprintf(out, " spanning t=[%d, %d]", first.Time, last.Time)
			}
			fmt.Fprintln(out)
			fmt.Fprintln(out, "by kind:")
			for _, k := range sortedKeys(byKind) {
				fmt.Fprintf(out, "  %-22s %6d\n", k, byKind[k])
			}
			fmt.Fprintln(out, "by partition:")
			for _, p := range sortedKeys(byPartition) {
				fmt.Fprintf(out, "  %-22s %6d\n", p, byPartition[p])
			}
			return nil
		}
		return count, report
	}
	return func(e obs.Event) { fmt.Fprintln(out, e) }, func() error { return nil }
}

// runScrub steps backwards through the archive's last n distinct event ticks
// (within the -since/-until window), printing the as-of reconstruction at
// each stop — newest first, so the first line is "now" and each following
// line rewinds one event tick.
func runScrub(out io.Writer, rd *archive.Reader, n int, since, until int64) error {
	var ticks []int64
	err := rd.Scan(archive.Query{SinceTick: since, UntilTick: until}, func(_ uint64, e obs.Event) error {
		if t := int64(e.Time); len(ticks) == 0 || ticks[len(ticks)-1] != t {
			ticks = append(ticks, t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(ticks) == 0 {
		return fmt.Errorf("airtrace: no events in the selected window")
	}
	if n > len(ticks) {
		n = len(ticks)
	}
	fmt.Fprintf(out, "scrubbing %d ticks backwards from t=%d (%d records total)\n",
		n, ticks[len(ticks)-1], rd.Records())
	for i := len(ticks) - 1; i >= len(ticks)-n; i-- {
		st, err := rd.AsOf(ticks[i], 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, scrubLine(st))
	}
	return nil
}

// scrubLine renders one as-of stop as a fixed-order single line.
func scrubLine(st archive.State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8d events=%-6d", st.AsOfTick, st.Events)
	sched := st.Schedule
	if sched == "" {
		sched = "-"
	}
	fmt.Fprintf(&b, " schedule=%-10s degraded=%-5v hm=%d", sched, st.Degraded, len(st.HM))
	if len(st.Quarantined) > 0 {
		fmt.Fprintf(&b, " quarantined=%s", strings.Join(st.Quarantined, ","))
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
