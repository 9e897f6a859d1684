package archive_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"air/internal/archive"
	"air/internal/obs"
)

// FuzzHandlerQuery sends one raw query string to each /archive/* endpoint
// over a root holding two small archived runs, a and b. Nothing may panic,
// every status is 200, 400 or 404, and a 200 asof body is AsOf on a
// freshly opened reader with the same parameters — and on a long-lived
// reader of the run, which resumes from checkpoints earlier inputs left.
func FuzzHandlerQuery(f *testing.F) {
	root := f.TempDir()
	base := genEvents(1200)
	variant := append([]obs.Event(nil), base[:700]...)
	variant = append(variant, genEvents(300)...)
	writeArchive(f, filepath.Join(root, "a"), base, archive.Options{SegmentRecords: 500})
	writeArchive(f, filepath.Join(root, "b"), variant, archive.Options{SegmentRecords: 500})
	warm := map[string]*archive.Reader{}
	for _, run := range []string{"a", "b"} {
		r, err := archive.OpenReader(filepath.Join(root, run))
		if err != nil {
			f.Fatal(err)
		}
		warm[filepath.Join(root, run)] = r
	}
	h := archive.Handler(root)

	f.Add("run=a&tick=-1")
	f.Add("run=../a")
	f.Add("run=a&seq=-1")
	f.Add("a=a&b=b")
	f.Add("run=a&kind=HM_REPORT,NOPE&limit=0")
	f.Add("run=b&tick=600&seq=900")
	f.Fuzz(func(t *testing.T, query string) {
		for _, endpoint := range []string{"asof", "range", "diff"} {
			req, err := http.NewRequest(http.MethodGet, "http://archive/archive/"+endpoint, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("GET /archive/%s?%s = %d: %s", endpoint, query, rec.Code, rec.Body)
			}
			if endpoint != "asof" || rec.Code != http.StatusOK {
				continue
			}
			form, _ := url.ParseQuery(query)
			dir := root
			if run := form.Get("run"); run != "" {
				dir = filepath.Join(root, filepath.Clean(run))
			}
			tick, seq := int64(-1), uint64(0)
			if s := form.Get("tick"); s != "" {
				tick, _ = strconv.ParseInt(s, 10, 64)
			}
			if s := form.Get("seq"); s != "" {
				seq, _ = strconv.ParseUint(s, 10, 64)
			}
			r, err := archive.OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.AsOf(tick, seq)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("GET /archive/asof?%s body differs from AsOf(%d, %d) on a fresh reader:\n got %s\nwant %s",
					query, tick, seq, rec.Body, want.Bytes())
			}
			got, err := warm[dir].AsOf(tick, seq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, st) {
				t.Fatalf("AsOf(%d, %d) on a long-lived reader = %+v, fresh %+v", tick, seq, got, st)
			}
		}
	})
}
