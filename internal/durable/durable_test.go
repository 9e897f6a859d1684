package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frame returns payload as one whole frame.
func frame(payload string) string {
	f := append(Begin(nil), payload+"\n"...)
	Seal(f)
	return string(f)
}

// TestWalkRecoveryRule pins the recovery rule: a torn final line is
// dropped, and a complete line failing the frame check or the payload
// decoder is an ErrCorrupt error naming its byte offset.
func TestWalkRecoveryRule(t *testing.T) {
	long := `"` + strings.Repeat("x", 10<<10) + `"`
	a, b := frame(`{"a":1}`), frame(`{"b":2}`)
	decodeErr := errors.New("payload rejected")
	cases := []struct {
		name    string
		data    string
		reject  string // payload the decoder refuses
		want    []string
		valid   int
		corrupt int // byte offset of the corrupt line, or -1
	}{
		{"empty file", "", "", nil, 0, -1},
		{"whole frames", a + b, "", []string{`{"a":1}`, `{"b":2}`}, len(a + b), -1},
		{"torn unterminated tail", a + b[:len(b)-3], "", []string{`{"a":1}`}, len(a), -1},
		{"torn tail of a header", a + "0000", "", []string{`{"a":1}`}, len(a), -1},
		{"bad complete final line", a + "deadbeef " + `{"b":2}` + "\n", "", []string{`{"a":1}`}, len(a), len(a)},
		{"unframed complete line", a + `{"b":2}` + "\n" + b, "", []string{`{"a":1}`}, len(a), len(a)},
		{"empty complete line", "\n" + a, "", nil, 0, 0},
		{"corrupt line before valid frames", frame(`{"a":1}`)[1:] + a + b, "", nil, 0, 0},
		{"line longer than the read buffer", a + frame(long) + b, "", []string{`{"a":1}`, long, `{"b":2}`}, len(a + frame(long) + b), -1},
		{"payload decoder error", a + b + a, `{"b":2}`, []string{`{"a":1}`}, len(a), len(a)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			var offsets []int64
			valid, err := Walk(strings.NewReader(tc.data), func(payload []byte, offset int64) error {
				if string(payload) == tc.reject {
					return decodeErr
				}
				got = append(got, string(payload))
				offsets = append(offsets, offset)
				return nil
			})
			if tc.corrupt < 0 {
				if err != nil {
					t.Fatalf("Walk: %v", err)
				}
			} else {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Walk = %v, want ErrCorrupt", err)
				}
				if want := fmt.Sprintf("byte offset %d:", tc.corrupt); !strings.Contains(err.Error(), want) {
					t.Fatalf("Walk error %q does not name %q", err, want)
				}
				if tc.reject != "" && !errors.Is(err, decodeErr) {
					t.Fatalf("Walk error %q does not wrap the decoder's", err)
				}
			}
			if valid != int64(tc.valid) {
				t.Fatalf("valid prefix = %d, want %d", valid, tc.valid)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("payloads = %q, want %q", got, tc.want)
			}
			var off int64
			for i, p := range got {
				if offsets[i] != off {
					t.Fatalf("payload %d at offset %d, want %d", i, offsets[i], off)
				}
				off += int64(len(frame(p)))
			}
		})
	}
}

// TestPayloadRejectsEveryCut: no proper prefix of a frame line passes the
// frame check.
func TestPayloadRejectsEveryCut(t *testing.T) {
	line := frame(`{"t":240,"kind":"HM_REPORT"}`)
	line = line[:len(line)-1]
	if p, err := Payload([]byte(line)); err != nil || string(p) != `{"t":240,"kind":"HM_REPORT"}` {
		t.Fatalf("Payload(whole frame) = %q, %v", p, err)
	}
	for cut := 0; cut < len(line); cut++ {
		if _, err := Payload([]byte(line[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrCorrupt", cut, len(line), err)
		}
	}
}

type rec struct {
	Op   string `json:"op"`
	Seed uint64 `json:"seed,omitempty"`
	Note string `json:"note,omitempty"`
}

func openRecs(t *testing.T, path string) (*Log, []rec) {
	t.Helper()
	var got []rec
	l, err := OpenLog(path, func(payload []byte) error {
		var r rec
		err := json.Unmarshal(payload, &r)
		got = append(got, r)
		return err
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l, got
}

// appendRec appends r's json.Marshal bytes as one record.
func appendRec(t *testing.T, l *Log, r rec) {
	t.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
}

// TestLogAppendAndRecover: appended payloads land in frames as they stand,
// a reopening log replays them, truncates a torn append and keeps appending
// after it.
func TestLogAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, got := openRecs(t, path)
	if len(got) != 0 {
		t.Fatalf("new log replayed %v", got)
	}
	want := []rec{{Op: "submit", Seed: 7}, {Op: "complete", Note: "<&> " + strings.Repeat("y", 5000)}}
	for _, r := range want {
		appendRec(t, l, r)
	}
	if err := l.Append([]byte("{\n}")); err == nil {
		t.Fatal("Append of a payload holding a newline succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes []byte
	for _, r := range want {
		payload, _ := json.Marshal(r)
		wantBytes = append(wantBytes, frame(string(payload))...)
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("log bytes = %q, want %q", data, wantBytes)
	}

	// A kill mid-append leaves a torn tail; reopening drops and truncates it.
	torn := append(data, frame(`{"op":"complete"}`)[:12]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got = openRecs(t, path)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	appendRec(t, l, rec{Op: "submit", Seed: 8})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got = openRecs(t, path)
	l.Close()
	if want = append(want, rec{Op: "submit", Seed: 8}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after torn-tail recovery replayed %v, want %v", got, want)
	}
}

// TestOpenLogRejectsCorruption: a complete record that fails its frame
// check, such as a record of the old bare-JSONL journal form, fails the
// open instead of being replayed or truncated away.
func TestOpenLogRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	old := `{"op":"submit","seed":7}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(path, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "byte offset 0:") {
		t.Fatalf("OpenLog over a bare JSON line = %v, want ErrCorrupt at byte offset 0", err)
	}
	if data, _ := os.ReadFile(path); string(data) != old {
		t.Fatalf("failed open rewrote the log: %q", data)
	}
}

// TestWriteFileReplacesAtomically: the new bytes replace the old ones
// exactly and no temporary file stays behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	for _, data := range []string{"a longer first version", "short"} {
		if err := WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the published file", len(entries))
	}
}
