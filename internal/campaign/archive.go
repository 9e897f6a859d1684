package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"air/internal/archive"
	"air/internal/durable"
)

// RunArchive is one run's flight archive packaged for shipment from a fleet
// worker to the coordinator: the run's identity plus every on-disk archive
// file, small enough to ride the existing Shard JSON paths (Data
// base64-encodes through encoding/json).
type RunArchive struct {
	Run      int           `json:"run"`
	Seed     uint64        `json:"seed"`
	Records  uint64        `json:"records"`
	Segments uint64        `json:"segments"`
	Bytes    uint64        `json:"bytes"`
	Files    []ArchiveFile `json:"files"`
}

// ArchiveFile is one archive file by name (segment or manifest) with its
// full contents.
type ArchiveFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// CollectArchives packages the shard's per-run archives from
// spec.ArchiveDir into sh.Archives, ready to ship with Complete. It must
// run after RunShard has closed the runs' sinks. Runs that archived nothing
// (degraded before any event) are skipped.
func CollectArchives(spec Spec, sh *Shard) error {
	if spec.ArchiveDir == "" {
		return nil
	}
	for run := sh.Start; run < sh.End; run++ {
		dir := RunDir(spec.ArchiveDir, run)
		rd, err := archive.OpenReader(dir)
		if err != nil {
			return fmt.Errorf("campaign: collect run %d: %w", run, err)
		}
		if rd.Records() == 0 {
			continue
		}
		ra := RunArchive{Run: run, Seed: runSeed(spec.Seed, run), Records: rd.Records()}
		for _, seg := range rd.Segments() {
			ra.Segments++
			ra.Bytes += uint64(seg.Bytes)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("campaign: collect run %d: %w", run, err)
		}
		for _, ent := range entries {
			if !ent.Type().IsRegular() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				return fmt.Errorf("campaign: collect run %d: %w", run, err)
			}
			ra.Files = append(ra.Files, ArchiveFile{Name: ent.Name(), Data: data})
		}
		sort.Slice(ra.Files, func(i, j int) bool { return ra.Files[i].Name < ra.Files[j].Name })
		sh.Archives = append(sh.Archives, ra)
	}
	return nil
}

// StoreArchive writes a shipped run archive into dir — the coordinator's
// durable store. File names are validated against path escapes; each file is
// replaced atomically (re-stored runs are deterministic duplicates).
func StoreArchive(dir string, a RunArchive) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: store run %d: %w", a.Run, err)
	}
	for _, f := range a.Files {
		if f.Name == "" || f.Name != filepath.Base(f.Name) {
			return fmt.Errorf("campaign: store run %d: archive file name %q escapes its directory", a.Run, f.Name)
		}
		if err := durable.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return fmt.Errorf("campaign: store run %d: %w", a.Run, err)
		}
	}
	return nil
}
