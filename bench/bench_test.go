package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes run every workload, untraced and traced, in a few seconds.
var tinySizes = sizes{
	setups:            2,
	missionCheckpoint: 10,
	forkRuns:          16, forkMTFs: 4, forkPrefixMTFs: 2, forkWarmupRuns: 2, forkWorkers: 2,
	fleetRuns: 8, fleetMTFs: 2, fleetLease: 2, fleetWorkers: 2,
	archiveMTFs: 40, phaseLo: 20, phaseHi: 30,
	replays: 4,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of ../BENCHMARK.json the program must honour.
type benchmarkFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced: every declared metric must be emitted with its declared unit,
// every oracle must pass, and the traced run must reproduce the untraced
// digest.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, f.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, budget: 200 * time.Millisecond, size: tinySizes}
			var plain, traced bytes.Buffer
			s, err := measure(w, cfg, false, "", pins{}, &plain)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("untraced run: %+v\n%s", s, plain.String())
			}
			for _, d := range f.EndToEnd {
				if m, ok := s.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			if len(s.Metrics) != len(f.EndToEnd) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json declares %d", len(s.Metrics), len(f.EndToEnd))
			}

			dir := t.TempDir()
			s, err = measure(w, cfg, true, dir, pins{}, &traced)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Correct || s.Failed != 0 {
				t.Fatalf("traced run: %+v\n%s", s, traced.String())
			}
			for _, d := range f.PerLayer {
				if m, ok := s.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", d.Name, m, d.Unit)
				}
			}
			if len(s.Metrics) != len(f.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json declares %d", len(s.Metrics), len(f.PerLayer))
			}
			if a, b := digestLine(plain.String()), digestLine(traced.String()); a == "" || a != b {
				t.Errorf("traced digest %q, untraced %q", b, a)
			}
			if _, err := os.Stat(filepath.Join(dir, w.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func digestLine(out string) string {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "digest "); ok {
			return d
		}
	}
	return ""
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4, 2, 3}, 1.5, 3, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
