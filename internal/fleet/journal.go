package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"air/internal/campaign"
)

// Journal ops.
const (
	opSubmit   = "submit"
	opComplete = "complete"
)

// journalRecord is one JSONL line of the coordinator's durable state. Two
// record kinds exist: a campaign acceptance (op=submit, carrying the full
// executable spec and the lease size the run space was sharded with) and a
// lease completion (op=complete, carrying the lease's partial aggregate and
// — under observation retention — its observations). Issued-but-unfinished
// leases are deliberately not journaled: on replay they are simply pending
// again, which is exactly the resume semantics wanted.
type journalRecord struct {
	Op           string                 `json:"op"`
	ID           string                 `json:"id"`
	Spec         *campaign.Spec         `json:"spec,omitempty"`
	LeaseSize    int                    `json:"leaseSize,omitempty"`
	Lease        int                    `json:"lease,omitempty"`
	Start        int                    `json:"start,omitempty"`
	End          int                    `json:"end,omitempty"`
	Aggregate    *campaign.Aggregate    `json:"aggregate,omitempty"`
	Observations []campaign.Observation `json:"observations,omitempty"`
}

// journal is an append-only JSONL file, synced per record so a completed
// lease survives a coordinator kill at any instant.
type journal struct {
	f *os.File
}

// openJournal opens (creating if absent) the journal at path and returns
// the replayable records already in it. A torn final line — the signature
// of a kill mid-append — is tolerated and dropped; every complete line must
// parse.
func openJournal(path string) (*journal, []journalRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: journal: %w", err)
	}
	var records []journalRecord
	var validBytes int64
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A torn trailing line has no newline; anything already
			// journaled with one parsed above.
			break
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fleet: journal read: %w", err)
		}
		var rec journalRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fleet: journal line %d corrupt: %w", len(records)+1, uerr)
		}
		records = append(records, rec)
		validBytes += int64(len(line))
	}
	// Drop the torn tail (if any) so the next append starts a clean line.
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: journal truncate: %w", err)
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: journal seek: %w", err)
	}
	return &journal{f: f}, records, nil
}

// append writes one record and syncs it to stable storage.
func (j *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: journal encode: %w", err)
	}
	//air:allow(durable): append IS the journal's framing encoder — one JSONL record, fsynced below
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("fleet: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fleet: journal sync: %w", err)
	}
	return nil
}

func (j *journal) close() error { return j.f.Close() }
