package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// floatEdges sit on both sides of encoding/json's exponent cut-offs (1e-6
// and 1e21) and at the ends of the float64 range.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1.0 / 3, 123456789,
	1e-6, 9.999999999999999e-7, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 9.999999999999999e20, math.Nextafter(1e21, 0), 1e21, 1.5e21, 1e22, 1e100,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, -1e-7, -1e21,
}

// FuzzAppendFloat checks the float writer against encoding/json, and the
// Parser's number reader against it in return.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatEdges {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, err := json.Marshal(v)
		var e Encoder
		e.Float(v)
		got, gotErr := e.Bytes()
		if (err != nil) != (gotErr != nil) {
			t.Fatalf("Float(%v): error %v, encoding/json's %v", v, gotErr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Float(%v) = %s, encoding/json writes %s", v, got, want)
		}
		p := NewParser(got)
		back := p.Float64()
		if err := p.Finish(); err != nil || back != v || math.Signbit(back) != math.Signbit(v) {
			t.Fatalf("Float64(%s) = %v, %v; want %v", got, back, err, v)
		}
	})
}

// FuzzString checks the string writer against encoding/json on any bytes,
// and the Parser's string reader on any quoted input: what it accepts,
// encoding/json accepts and decodes to the same string.
func FuzzString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `"q" \ /`, "<&>", "\b\f\n\r\t\x00\x01\x1f\x7f",
		"  ", "é 漢", "\xff\xfe", "\xed\xa0\x80", "\xf4\x90\x80\x80",
		`\ud800`, `\udc00\ud800A`, `\u12G4`, `\'`, `é😀`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		for _, doc := range [][]byte{want, []byte(`"` + s + `"`)} {
			p := NewParser(doc)
			got := p.Str()
			err := p.Finish()
			var ref string
			refErr := json.Unmarshal(doc, &ref)
			if err == nil && (refErr != nil || got != ref) {
				t.Fatalf("Str(%q) = %q; encoding/json: %q, %v", doc, got, ref, refErr)
			}
			if err != nil && refErr == nil {
				t.Fatalf("Str(%q) refused a string encoding/json reads: %v", doc, err)
			}
		}
	})
}

// TestParserRejectsOtherForms: each refused document is a valid value of
// struct{A int; B []uint64; M map[string]int} with omitempty A and B to
// encoding/json, but not in the form the writers produce.
func TestParserRejectsOtherForms(t *testing.T) {
	parse := func(doc string) error {
		p := NewParser([]byte(doc))
		p.Object()
		if p.Field(`"a":`) {
			p.NonzeroInt()
		}
		if p.Field(`"b":`) {
			p.NonemptyUints()
		}
		if p.Field(`"m":`) {
			p.IntMap()
		}
		p.End()
		return p.Finish()
	}
	for _, doc := range []string{`{"a":1,"b":[2,3],"m":{"x":1,"y":2}}`, `{"b":[2]}`, `{}`, `{"m":null}`, `{"m":{}}`} {
		if err := parse(doc); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
	}
	for _, tc := range []struct{ name, doc string }{
		{"whitespace", `{"a": 1}`},
		{"key order", `{"b":[2],"a":1}`},
		{"unknown key", `{"a":1,"c":2}`},
		{"duplicate key", `{"a":1,"a":2}`},
		{"case-folded key", `{"A":1}`},
		{"omitempty zero", `{"a":0}`},
		{"omitempty empty array", `{"b":[]}`},
		{"omitempty null", `{"b":null}`},
		{"map keys unsorted", `{"m":{"y":1,"x":2}}`},
		{"map key repeated", `{"m":{"x":1,"x":2}}`},
		{"leading zero", `{"a":01}`},
		{"float for an int", `{"a":1.0}`},
		{"trailing comma", `{"b":[2,]}`},
		{"trailing bytes", `{"a":1}{}`},
		{"leading comma", `{,"a":1}`},
	} {
		if err := parse(tc.doc); err == nil {
			t.Errorf("%s: %s accepted", tc.name, tc.doc)
		}
	}
}

// TestUnmarshalValueIsCompact: a value left to encoding/json is cut out
// whole, nested brackets and strings included, and refused with
// whitespace outside its strings.
func TestUnmarshalValueIsCompact(t *testing.T) {
	type doc struct {
		V map[string][]string `json:"v"`
		N int                 `json:"n"`
	}
	in := `{"v":{"a,]}":["[{\"","x y"],"b":[]},"n":3}`
	var want doc
	if err := json.Unmarshal([]byte(in), &want); err != nil {
		t.Fatal(err)
	}
	p := NewParser([]byte(in))
	var got doc
	p.Object()
	if p.Field(`"v":`) {
		p.Unmarshal(&got.V)
	}
	if p.Field(`"n":`) {
		got.N = p.Int()
	}
	p.End()
	if err := p.Finish(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, %v; want %+v", got, err, want)
	}
	p = NewParser([]byte(`{"v":{"a": []}}`))
	p.Object()
	p.Field(`"v":`)
	p.Unmarshal(&got.V)
	if p.Finish() == nil {
		t.Fatal("a value with whitespace was accepted")
	}
}
