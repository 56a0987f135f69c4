package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// probe exercises every Decoder method: scalars of each kind, a
// pointer to an object, and a slice of objects.
type probe struct {
	S    string   `json:"s"`
	I    int      `json:"i"`
	I64  int64    `json:"i64"`
	B    bool     `json:"b"`
	P    *point   `json:"p"`
	List []point  `json:"list"`
	Strs []string `json:"strs"`
}

type point struct {
	X    int    `json:"x"`
	Name string `json:"name"`
}

func decodeProbe(d *Decoder, p *probe) error {
	return d.Object(func(key []byte) error {
		switch Field(key, "s", "i", "i64", "b", "p", "list", "strs") {
		case 0:
			return d.String(&p.S)
		case 1:
			return d.Int(&p.I)
		case 2:
			return d.Int64(&p.I64)
		case 3:
			return d.Bool(&p.B)
		case 4:
			if d.Null() {
				p.P = nil
				return nil
			}
			if p.P == nil {
				p.P = new(point)
			}
			return decodePoint(d, p.P)
		case 5:
			return Slice(d, &p.List, func(q *point) error { return decodePoint(d, q) })
		case 6:
			return Slice(d, &p.Strs, d.String)
		}
		return UnknownField(key)
	})
}

func decodePoint(d *Decoder, q *point) error {
	return d.Object(func(key []byte) error {
		switch Field(key, "x", "name") {
		case 0:
			return d.Int(&q.X)
		case 1:
			return d.String(&q.Name)
		}
		return UnknownField(key)
	})
}

// differential decodes data with the Decoder and with encoding/json
// and fails unless both accept or both reject it, with DeepEqual
// values on acceptance.
func differential(t *testing.T, data []byte) {
	t.Helper()
	var got probe
	err := decodeProbe(NewDecoder(data), &got)
	var want probe
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	refErr := dec.Decode(&want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: decoder error %v, encoding/json error %v", data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, encoding/json decoded %+v", data, got, want)
	}
}

var differentialSeeds = []string{
	`{"s":"x","i":1,"i64":-2,"b":true,"p":{"x":3},"list":[{"x":1},{"name":"n"}],"strs":["a","b"]}`,
	`{"S":"x","I":1,"I64":2,"B":false,"P":null,"LIST":[],"Strs":null}`,
	"{\"\u017f\":\"long s\",\"i\u212a\":0}",
	`{"\u0073":"esc","\u0069":7}`,
	`{"list":[{"x":1,"name":"a"},{"x":2}],"list":[{"name":"b"}],"list":[{},{}]}`,
	`{"list":[{"x":1}],"list":[],"list":[{}]}`,
	`{"p":{"x":1},"p":{"name":"n"}}`,
	`{"p":{"x":1},"p":null,"p":{}}`,
	`{"p":5}`, `{"p":[]}`, `{"list":{}}`, `{"list":[null]}`, `{"strs":[null,"a",1]}`,
	`null`, `[null]`, `[]`, `{}`, `""`, `1`, `true`, ``, `   `, `nul`, `nullx`, `{}x`, `{} {`,
	`{"i":1.0}`, `{"i":1e0}`, `{"i":-0}`, `{"i":01}`, `{"i":-}`, `{"i":1.}`, `{"i":1e}`, `{"i":1e+}`,
	`{"i":9223372036854775807}`, `{"i":9223372036854775808}`, `{"i":-9223372036854775808}`,
	`{"i":-9223372036854775809}`, `{"i64":99999999999999999999}`, `{"i":null,"i":2,"i":null}`,
	`{"i":"1"}`, `{"s":1}`, `{"b":"true"}`, `{"b":tru}`, `{"b":truex}`, `{"b":1}`,
	"{\"s\":\"\xff\xc3(\xed\xa0\x80\"}", "{\"s\":\"a\tb\"}", "{\"s\":\"a\x7fb\"}",
	`{"s":"\ud83d\ude00\ud800\u0041\udc00\ud800"}`, `{"s":"\ud800\u00"}`, `{"s":"\ud800\uzzzz"}`,
	`{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"\b\f\n\r\t\/\\\""}`, `{"s":"\'"}`,
	`{"unknown":1}`, `{"s":"x",}`, `{"s" "x"}`, `{"s":"x" "i":1}`, `{,}`, `{"list":[1,]}`,
	`{"list":[{"x":1} {"x":2}]}`, `{"s":"x"`, `{"s":"x`, `{"s":"x\`,
	"\ufeff{}", "{\"s\"\n:\r\"x\"\t}",
}

// FuzzDecoder holds every Decoder method to encoding/json on a probe
// type; the seeds run as a plain test.
func FuzzDecoder(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(differential)
}

func TestDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		data := []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
		err := NewDecoder(data).Skip()
		var v any
		refErr := json.Unmarshal(data, &v)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("depth %d: decoder error %v, encoding/json error %v", depth, err, refErr)
		}
	}
}

func TestIsolated(t *testing.T) {
	for _, tc := range []struct {
		src         string
		failed, bad bool
	}{
		{`[{"x":1},{"y":2},{"x":"s"},{"x":3}]`, true, false},
		{`[{"x":1},{"y":2},{"x":3} {}]`, true, true},
		{`[{"y":{"deep":[1,2,{"z":null}]}},{"x":3}]`, true, false},
		{`[{"y":{"deep":[1,2,{"z":nul}]}},{"x":3}]`, true, true},
		{`[{"x":1},{"x":2}]`, false, false},
	} {
		d := NewDecoder([]byte(tc.src))
		var got []point
		var failures int
		err := Slice(d, &got, func(q *point) error {
			failed, err := d.Isolated(func() error { return decodePoint(d, q) })
			if failed != nil {
				failures++
			}
			return err
		})
		var syn *SyntaxError
		if bad := errors.As(err, &syn); bad != tc.bad || (err != nil && !bad) {
			t.Fatalf("%s: err %v, want syntax error %v", tc.src, err, tc.bad)
		}
		if (failures > 0) != tc.failed {
			t.Fatalf("%s: %d isolated failures, want some: %v", tc.src, failures, tc.failed)
		}
		if !tc.bad && len(got) == 0 {
			t.Fatalf("%s: decoded nothing", tc.src)
		}
	}
}

func TestReadAll(t *testing.T) {
	for _, hint := range []int{-1, 0, 3, 11, 100} {
		got, err := ReadAll(strings.NewReader("hello world"), hint)
		if err != nil || string(got) != "hello world" {
			t.Fatalf("hint %d: %q, %v", hint, got, err)
		}
	}
}
