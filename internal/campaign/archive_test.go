package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"air/internal/archive"
	"air/internal/model"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/workload"
)

// TestCampaignArchiveRunDiff is the divergence-localization acceptance
// check: two fork-prefix campaigns that differ only in the injected fault
// share a byte-identical prefix, and Diff over their run archives pinpoints
// the first post-fork tick the fault variant diverged — verified against an
// independent linear comparison of the two streams.
func TestCampaignArchiveRunDiff(t *testing.T) {
	baseDir, faultDir := t.TempDir(), t.TempDir()
	spec := Spec{
		Runs: 1, Workers: 1, Seed: 42, MTFs: 3,
		ForkPrefix: true, PrefixMTFs: 1,
		Matrix:     []Scenario{{Name: "baseline"}},
		ArchiveDir: baseDir,
	}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.Matrix = []Scenario{{Name: "overrun", Faults: []FaultRange{{
		Kind: workload.FaultDeadlineOverrun,
	}}}}
	spec.ArchiveDir = faultDir
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}

	ra, err := archive.OpenReader(RunDir(baseDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := archive.OpenReader(RunDir(faultDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := archive.Diff(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Diverged {
		t.Fatal("fault variant did not diverge from the baseline")
	}

	// Independent reference: linear first-difference over both full streams.
	stream := func(r *archive.Reader) []obs.Event {
		var events []obs.Event
		err := r.Scan(archive.Query{UntilTick: -1}, func(_ uint64, e obs.Event) error {
			events = append(events, e)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	ea, eb := stream(ra), stream(rb)
	refSeq, refTick := uint64(0), int64(-1)
	for i := 0; i < len(ea) || i < len(eb); i++ {
		if i < len(ea) && i < len(eb) && ea[i] == eb[i] {
			continue
		}
		refSeq = uint64(i + 1)
		switch {
		case i >= len(ea):
			refTick = int64(eb[i].Time)
		case i >= len(eb):
			refTick = int64(ea[i].Time)
		default:
			refTick = int64(min(ea[i].Time, eb[i].Time))
		}
		break
	}
	if d.Seq != refSeq || d.Tick != refTick {
		t.Fatalf("Diff localized (seq %d, tick %d); reference says (seq %d, tick %d)",
			d.Seq, d.Tick, refSeq, refTick)
	}

	// The fault activates at the fork point, so the archives must agree on
	// the whole shared prefix and split no earlier than the fork tick.
	forkTick := int64(tick.Ticks(spec.PrefixMTFs)*model.Fig8System().Schedules[0].MTF) - 1
	if d.Tick < forkTick {
		t.Fatalf("divergence tick %d precedes the fork point %d: prefix not shared", d.Tick, forkTick)
	}
}

func min(a, b tick.Ticks) tick.Ticks {
	if a < b {
		return a
	}
	return b
}

// TestCampaignArchiveTransparent: attaching archives changes nothing about
// campaign results — the serialized result is byte-identical with and
// without ArchiveDir, and every run leaves a readable archive behind.
func TestCampaignArchiveTransparent(t *testing.T) {
	spec := Spec{Runs: 3, Workers: 2, Seed: 7, MTFs: 2}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec.ArchiveDir = dir
	archived, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := archived.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("archiving changed the campaign result")
	}
	for run := 0; run < spec.Runs; run++ {
		rd, err := archive.OpenReader(RunDir(dir, run))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rd.Records() == 0 {
			t.Fatalf("run %d archived no events", run)
		}
	}
	if _, err := os.Stat(RunDir(dir, spec.Runs)); !os.IsNotExist(err) {
		t.Fatal("archive has more run directories than runs")
	}
}

// Regression: StoreArchive used os.WriteFile, which cannot fsync — the
// shipped-archive store is crash-recoverable state, and a crash shortly
// after a store could surface truncated files on resume. durable.WriteFile
// syncs a temporary file and renames it over the old one; this locks in the
// observable half: re-storing over a longer existing file leaves exactly
// the new bytes.
func TestStoreArchiveOverwriteTruncates(t *testing.T) {
	dir := t.TempDir()
	long := RunArchive{Run: 3, Files: []ArchiveFile{{Name: "manifest.json", Data: []byte("a longer first version of the manifest")}}}
	if err := StoreArchive(dir, long); err != nil {
		t.Fatal(err)
	}
	short := RunArchive{Run: 3, Files: []ArchiveFile{{Name: "manifest.json", Data: []byte("short")}}}
	if err := StoreArchive(dir, short); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "short" {
		t.Fatalf("re-stored file = %q, want %q", got, "short")
	}
}
