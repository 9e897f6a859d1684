package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"air/internal/campaign"
	"air/internal/durable"
)

// TestCodecMatchesJSON: a completion body and a journal record, in every
// form the coordinator writes or reads, encode to json.Marshal's bytes and
// decode to what json.Unmarshal reads from them.
func TestCodecMatchesJSON(t *testing.T) {
	spec := testSpec(4).Defaulted()
	sh, err := campaign.RunShard(spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := campaign.Fold(sh.Observations)
	lease := Lease{Campaign: "c1", Index: 3, Start: 0, End: 4, Retain: true, RenewEvery: 250 * time.Millisecond}
	for _, req := range []completeRequest{
		{Worker: "w<1>", Lease: lease, Shard: &campaign.Shard{Start: 0, End: 4, Observations: sh.Observations}},
		{Worker: "w", Lease: Lease{Campaign: "c2"}, Shard: &campaign.Shard{Start: 0, End: 4, Aggregate: &agg}},
		{Worker: "w", Lease: lease, Shard: &campaign.Shard{Start: 0, End: 4, Archives: []campaign.RunArchive{
			{Run: 1, Seed: 2, Files: []campaign.ArchiveFile{{Name: "MANIFEST.json", Data: []byte("{}\n")}}}}}},
		{Worker: "w"},
	} {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendCompleteRequest(nil, &req)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendCompleteRequest = %.300s, %v\nencoding/json writes %.300s", got, err, want)
		}
		back, err := parseCompleteRequest(got)
		if err != nil {
			t.Fatalf("parseCompleteRequest: %v", err)
		}
		var ref completeRequest
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("parseCompleteRequest read\n%+v\nwant\n%+v", back, ref)
		}
	}
	for _, rec := range []journalRecord{
		{Op: opSubmit, ID: "c1", Spec: &spec, LeaseSize: 2},
		{Op: opComplete, ID: "c1", Lease: 1, Start: 2, End: 4, Observations: sh.Observations[2:]},
		{Op: opComplete, ID: "c1", Start: 0, End: 2, Aggregate: &agg},
		{Op: opComplete, ID: "c1", Lease: 1, Start: 2, End: 4, Aggregate: &agg, Observations: sh.Observations[2:]},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJournalRecord(nil, &rec)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendJournalRecord = %.300s, %v\nencoding/json writes %.300s", got, err, want)
		}
		back, err := parseJournalRecord(got)
		if err != nil {
			t.Fatalf("parseJournalRecord: %v", err)
		}
		var ref journalRecord
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("parseJournalRecord read\n%+v\nwant\n%+v", back, ref)
		}
	}
}

// TestCompleteRequestRejectsOtherForms pins the decoder's contract: each
// body is a completion to encoding/json, and the handler's reflective
// decoder accepted it, but it is not in the form Client.Complete writes, so
// the handler answers 400 and the lease stays pending.
func TestCompleteRequestRejectsOtherForms(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"whitespace", strings.Replace(completeObservations, `"run":0`, `"run": 0`, 1)},
		{"trailing newline", completeObservations + "\n"},
		{"key order", `{"lease":{"campaign":"c1","index":0,"retain":true},"worker":"w","shard":{"start":0,"end":1,"observations":[{"run":0}]}}`},
		{"unknown key", strings.Replace(completeObservations, `"ticks":1300,`, `"ticks":1300,"extra":1,`, 1)},
		{"duplicate key", strings.Replace(completeObservations, `"ticks":1300,`, `"ticks":1300,"ticks":1300,`, 1)},
		{"case-folded key", strings.Replace(completeObservations, `"ticks":1300`, `"Ticks":1300`, 1)},
		{"unsorted map keys", strings.Replace(completeObservations, `"hmByLevel":{"PROCESS":1}`, `"hmByLevel":{"PROCESS":1,"MODULE":1}`, 1)},
		{"omitempty zero", strings.Replace(completeObservations, `"ticks":1300,`, `"ticks":1300,"halted":false,`, 1)},
		{"omitempty null", strings.Replace(completeObservations, `"ticks":1300,`, `"ticks":1300,"error":null,`, 1)},
		{"non-canonical integer", strings.Replace(completeObservations, `"run":0`, `"run":-0`, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref completeRequest
			if err := json.Unmarshal([]byte(tc.body), &ref); err != nil {
				t.Fatalf("encoding/json rejects the body: %v", err)
			}
			if _, err := parseCompleteRequest([]byte(tc.body)); err == nil {
				t.Fatal("parseCompleteRequest accepted it")
			}
			c, err := New(Options{KeepObservations: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Submit(testSpec(1)); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			Handler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathComplete, strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("POST %s = %d (%s), want 400", pathComplete, rec.Code, rec.Body)
			}
			if st, _ := c.Progress("c1"); st.Leases.Done != 0 {
				t.Fatalf("the refused completion was applied: %+v", st.Leases)
			}
		})
	}
}

// FuzzCompleteRequest feeds arbitrary bodies to the completion decoder:
// whatever it accepts, encoding/json accepts too and decodes to a
// deep-equal request, nil and empty maps and slices included.
func FuzzCompleteRequest(f *testing.F) {
	f.Add([]byte(completeObservations))
	f.Add([]byte(completeTwoObservations))
	f.Add([]byte(completeAggregate))
	f.Add([]byte(`{"worker":"w","lease":{"campaign":"c1","index":0,"renewEvery":5},"shard":null}`))
	f.Add([]byte(`{"worker":"w\ud800","shard":{"observations":[{"faults":[],"hmByCode":{},"timeline":{"partitions":null}}]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseCompleteRequest(body)
		if err != nil {
			return
		}
		var ref completeRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("parseCompleteRequest accepted %q; encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("parseCompleteRequest(%q):\n got %+v\nwant %+v", body, got, ref)
		}
	})
}

// TestReplayJSONWrittenJournal replays a journal whose records
// encoding/json wrote, as every coordinator did before completions had
// their own codec: a retaining and a streaming coordinator reach the
// result of a fresh run.
func TestReplayJSONWrittenJournal(t *testing.T) {
	spec := testSpec(6).Defaulted()
	want, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		l, err := durable.OpenLog(path, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		write := func(rec journalRecord) {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		write(journalRecord{Op: opSubmit, ID: "c1", Spec: &spec, LeaseSize: 2})
		for lease := 0; lease < 3; lease++ {
			sh, err := campaign.RunShard(spec, 2*lease, 2*lease+2)
			if err != nil {
				t.Fatal(err)
			}
			rec := journalRecord{Op: opComplete, ID: "c1", Lease: lease, Start: sh.Start, End: sh.End, Observations: sh.Observations}
			if !retain {
				agg := campaign.Fold(sh.Observations)
				rec.Aggregate, rec.Observations = &agg, nil
			}
			write(rec)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{LeaseSize: 2, JournalPath: path, KeepObservations: retain})
		if err != nil {
			t.Fatalf("retain=%v: %v", retain, err)
		}
		got, err := c.Result("c1")
		c.Close()
		if err != nil {
			t.Fatalf("retain=%v: %v", retain, err)
		}
		ref := *want
		if !retain {
			ref.Observations = nil
		}
		if !bytes.Equal(resultJSON(t, got), resultJSON(t, &ref)) {
			t.Fatalf("retain=%v: replayed result differs from a fresh run", retain)
		}
	}
}
