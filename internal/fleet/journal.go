package fleet

import (
	"encoding/json"
	"fmt"

	"air/internal/campaign"
	"air/internal/durable"
)

// Journal ops.
const (
	opSubmit   = "submit"
	opComplete = "complete"
)

// journalRecord is one record of the coordinator's durable state, the JSON
// payload of one durable.Log frame. Two record kinds exist: a campaign
// acceptance (op=submit, carrying the full executable spec and the lease
// size the run space was sharded with) and a lease completion
// (op=complete, carrying the lease's result as shipped: its observations
// under retention, else their aggregate). Issued-but-unfinished leases are
// deliberately not journaled: on replay they are simply pending again,
// which is exactly the resume semantics wanted.
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

// openJournal opens (creating if absent) the journal at path and returns
// the records already in it, under the durable recovery rule: a torn final
// record is dropped, and a corrupt one is an error.
func openJournal(path string) (*durable.Log, []journalRecord, error) {
	var records []journalRecord
	j, err := durable.OpenLog(path, func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: journal: %w", err)
	}
	return j, records, nil
}
