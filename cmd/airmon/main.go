// Command airmon is a live terminal monitor for a running simulation: it
// attaches to the telemetry endpoint of an airsim or aircampaign started
// with -telemetry and renders the online timeliness analyzer's view — per-
// partition utilization bars with budget accounting, per-process response
// quantiles and slack watermarks, early warnings and live scheduling-model
// verdicts.
//
// Usage:
//
//	airmon [-addr host:port] [-interval d] [-n count]
//	airmon -archive dir [-n count]
//
// -n bounds the number of frames rendered (0 = until interrupted). Each
// frame is one GET of /timeline.json; airmon never perturbs the simulation
// beyond serving that request.
//
// -archive replays a recorded flight archive (airsim/aircampaign -archive)
// instead of polling a live endpoint: the stored spine events stream through
// a fresh timeliness analyzer, rendering -n evenly spaced frames across the
// recorded tick span (default 1 — the final state). The last frame shows
// exactly what a live airmon would have shown at the end of the run; earlier
// frames are the same view rewound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"air/internal/archive"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/timeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airmon:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airmon", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:9653", "telemetry address of a running airsim/aircampaign (-telemetry)")
		interval   = fs.Duration("interval", time.Second, "refresh interval between frames")
		frames     = fs.Int("n", 0, "frames to render before exiting (0 = until interrupted; with -archive, evenly spaced replay frames)")
		archiveDir = fs.String("archive", "", "replay a recorded flight archive instead of polling a live endpoint")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archiveDir != "" {
		return replayArchive(out, *archiveDir, *frames)
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + "/timeline.json"

	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetch(url)
		if err != nil {
			return err
		}
		render(out, *addr, snap)
	}
	return nil
}

// replayArchive streams a flight archive's spine events through a fresh
// timeliness analyzer, rendering n evenly spaced frames across the recorded
// tick span (n <= 1 renders only the final state), all in one scan: the
// span comes from the segment catalog. The analyzer is the same one live
// telemetry runs, so each frame is what airmon would have shown at that tick.
func replayArchive(out io.Writer, dir string, n int) error {
	rd, err := archive.OpenReader(dir)
	if err != nil {
		return err
	}
	segs := rd.Segments()
	if len(segs) == 0 {
		return fmt.Errorf("archive %s holds no events", dir)
	}
	if n < 1 {
		n = 1
	}
	first, last := segs[0].MinTick, segs[len(segs)-1].MaxTick
	// Frame i covers valid time up to an even slice of the span; the final
	// frame lands exactly on the last recorded tick. flush renders every
	// frame whose cut lies before upTo.
	cut := func(i int) int64 { return first + (last-first)*int64(i)/int64(n) }
	tl := timeline.New(timeline.Options{System: model.Fig8System()})
	frame := 1
	flush := func(upTo int64) {
		for ; frame <= n && cut(frame) < upTo; frame++ {
			render(out, fmt.Sprintf("replay %s @t<=%d", dir, cut(frame)), tl.Snapshot())
		}
	}
	err = rd.Scan(archive.Query{UntilTick: -1}, func(_ uint64, e obs.Event) error {
		flush(int64(e.Time))
		tl.Emit(e)
		return nil
	})
	if err != nil {
		return err
	}
	flush(math.MaxInt64)
	return nil
}

func fetch(url string) (timeline.Snapshot, error) {
	var snap timeline.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

// render prints one monitor frame.
func render(out io.Writer, addr string, s timeline.Snapshot) {
	fmt.Fprintf(out, "airmon %s — t=%d", addr, s.Ticks)
	if s.Schedule != "" {
		fmt.Fprintf(out, ", schedule %s", s.Schedule)
	}
	fmt.Fprintln(out)

	if len(s.Partitions) > 0 {
		fmt.Fprintln(out, "  partition  utilization            windows  supplied  budget/cycle  shortfalls")
		for _, p := range s.Partitions {
			budget := "-"
			if p.CycleTicks > 0 {
				budget = fmt.Sprintf("%d/%d", p.BudgetTicks, p.CycleTicks)
			}
			fmt.Fprintf(out, "  %-9s  %s %5.1f%%  %7d  %8d  %12s  %10d\n",
				p.Partition, bar(p.Utilization, 20), 100*p.Utilization,
				p.Windows, p.Supplied, budget, p.Shortfalls)
		}
	}

	if len(s.Processes) > 0 {
		fmt.Fprintln(out, "  process                        rel  done  miss  warn    p50    p99    max  worst-slack")
		for _, p := range s.Processes {
			slack := "-"
			if p.Slack.Count > 0 {
				slack = fmt.Sprintf("%d", p.Slack.Min)
			}
			fmt.Fprintf(out, "  %-28s %5d %5d %5d %5d  %5d  %5d  %5d  %11s\n",
				p.Partition+"/"+p.Process, p.Releases, p.Completions, p.Misses, p.Warnings,
				p.Response.Quantile(0.5), p.Response.Quantile(0.99), p.Response.Max, slack)
		}
	}

	fmt.Fprintf(out, "  deadline misses %d, early warnings %d, model violations %d\n\n",
		s.DeadlineMisses, s.EarlyWarnings, s.ModelViolations)
}

// bar renders a fixed-width utilization bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat("-", width-n) + "]"
}
