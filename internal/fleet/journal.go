package fleet

import (
	"fmt"

	"air/internal/campaign"
	"air/internal/durable"
	"air/internal/wire"
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

// journal is the coordinator's durable.Log, whose records are
// journalRecords in their one wire form.
type journal struct {
	log *durable.Log
	buf []byte // the record being encoded, reused
}

// Append encodes r and appends it durably.
func (j *journal) Append(r journalRecord) error {
	payload, err := appendJournalRecord(j.buf[:0], &r)
	if err != nil {
		return err
	}
	j.buf = payload
	return j.log.Append(payload)
}

// Close closes the journal file.
func (j *journal) Close() error { return j.log.Close() }

// openJournal opens (creating if absent) the journal at path and returns
// the records already in it, under the durable recovery rule: a torn final
// record is dropped, and a corrupt one — a frame that fails its check, or
// a payload parseJournalRecord refuses — is an error naming its byte
// offset.
func openJournal(path string) (*journal, []journalRecord, error) {
	var records []journalRecord
	l, err := durable.OpenLog(path, func(payload []byte) error {
		rec, err := parseJournalRecord(payload)
		if err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: journal: %w", err)
	}
	return &journal{log: l}, records, nil
}

// appendJournalRecord appends r as encoding/json writes it. Observations go
// through campaign.AppendObservation; the submitted spec and a streamed
// aggregate keep encoding/json.
func appendJournalRecord(dst []byte, r *journalRecord) ([]byte, error) {
	e := wire.NewEncoder(dst)
	e.Raw(`{"op":`)
	e.Str(r.Op)
	e.Raw(`,"id":`)
	e.Str(r.ID)
	if r.Spec != nil {
		e.Raw(`,"spec":`)
		e.Marshal(r.Spec)
	}
	e.OmitemptyInt(`,"leaseSize":`, int64(r.LeaseSize))
	e.OmitemptyInt(`,"lease":`, int64(r.Lease))
	e.OmitemptyInt(`,"start":`, int64(r.Start))
	e.OmitemptyInt(`,"end":`, int64(r.End))
	if r.Aggregate != nil {
		e.Raw(`,"aggregate":`)
		e.Marshal(r.Aggregate)
	}
	if len(r.Observations) > 0 {
		e.Raw(`,"observations":`)
		wire.AppendArray(e, r.Observations, campaign.AppendObservation)
	}
	e.Raw("}")
	return e.Bytes()
}

// parseJournalRecord reads one record as appendJournalRecord writes it, any
// member of which may be left out: the form of every journal this
// repository has written, encoding/json's included, since the journaled
// types have only gained fields.
func parseJournalRecord(b []byte) (journalRecord, error) {
	var r journalRecord
	p := wire.NewParser(b)
	p.Object()
	if p.Field(`"op":`) {
		r.Op = p.Str()
	}
	if p.Field(`"id":`) {
		r.ID = p.Str()
	}
	if p.Field(`"spec":`) {
		p.Omitempty(p.Null())
		r.Spec = &campaign.Spec{}
		p.Unmarshal(r.Spec)
	}
	if p.Field(`"leaseSize":`) {
		r.LeaseSize = p.NonzeroInt()
	}
	if p.Field(`"lease":`) {
		r.Lease = p.NonzeroInt()
	}
	if p.Field(`"start":`) {
		r.Start = p.NonzeroInt()
	}
	if p.Field(`"end":`) {
		r.End = p.NonzeroInt()
	}
	if p.Field(`"aggregate":`) {
		p.Omitempty(p.Null())
		r.Aggregate = &campaign.Aggregate{}
		p.Unmarshal(r.Aggregate)
	}
	if p.Field(`"observations":`) {
		r.Observations = wire.ParseArray(&p, campaign.ParseObservation)
		p.Omitempty(len(r.Observations) == 0)
	}
	p.End()
	if err := p.Finish(); err != nil {
		return journalRecord{}, fmt.Errorf("record: %w", err)
	}
	return r, nil
}
