package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"air/internal/durable"
)

// FuzzParseCatalog pins the catalog parsers to encoding/json, as
// FuzzParseRecord pins the record decoder: whatever parseManifest (isIndex
// false) or parseIndex (isIndex true) accepts, encoding/json accepts as
// well and decodes to a deep-equal value, nil and empty segments included.
// The catalog of a small archive seeds it, and must parse.
func FuzzParseCatalog(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{SegmentRecords: 2, IndexEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	for range 2 {
		for _, e := range frameSeeds {
			s.Emit(e)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	if err := checkCatalog(dir); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	frame, err := os.ReadFile(filepath.Join(dir, indexName(2)))
	if err != nil {
		f.Fatal(err)
	}
	index, err := durable.Payload(bytes.TrimSuffix(frame, []byte("\n")))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(false, manifest)
	f.Add(false, []byte(`{"version":1,"records":0,"segments":null}`))
	f.Add(false, []byte(`{"version":1,"records":0,"segments":[]}`))
	f.Add(false, []byte(`{"version":1,"records":1,"segments":[{"name":"seg\u002d000001.jsonl","records":1,"seqStart":1,"minTick":-5,"maxTick":0,"bytes":9}]}`))
	f.Add(true, index)
	f.Fuzz(func(t *testing.T, isIndex bool, data []byte) {
		var err error
		if isIndex {
			if got, perr := parseIndex(data); perr == nil {
				err = agreesWithJSON(data, got)
			}
		} else if got, perr := parseManifest(data); perr == nil {
			err = agreesWithJSON(data, got)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// checkCatalog reports an error unless the catalog files of the archive in
// dir parse to what encoding/json reads from them: the manifest, and the
// index file of each segment it lists that has one.
func checkCatalog(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return err
	}
	m, err := parseManifest(data)
	if err == nil {
		err = agreesWithJSON(data, m)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", manifestName, err)
	}
	for i := range m.Segments {
		name := indexName(i + 1)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue // written before index files
		}
		var payload []byte
		if err == nil {
			payload, err = durable.Payload(bytes.TrimSuffix(data, []byte("\n")))
		}
		var index []IndexEntry
		if err == nil {
			index, err = parseIndex(payload)
		}
		if err == nil {
			err = agreesWithJSON(payload, index)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// agreesWithJSON reports an error unless encoding/json decodes data to a
// value deep-equal to got.
func agreesWithJSON[T any](data []byte, got T) error {
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parsed %q; encoding/json rejects it: %w", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("parsed %q as\n%+v\nencoding/json decodes\n%+v", data, got, want)
	}
	return nil
}
