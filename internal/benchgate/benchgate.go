// Package benchgate owns the one copy of the bench-report code that
// cmd/fpgabench and cmd/fpgaload share: the environment stamp, the
// schema-checked JSON read and write, and the exact diff that gates a
// run against a committed baseline.
//
// A report entry holds only exact fields: values that depend on the
// instance and the engine, never on timing (answers, node and
// propagation counts, decision and operation counts). The entry's
// struct is the gate's declaration: Diff compares every field, so a
// field added to an entry is gated without a line elsewhere. Timing is
// judged end to end by cmd/fpgaperf, not here.
package benchgate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"
)

// Env stamps the machine a report was recorded on. It is informational:
// exact fields are the same on every machine, so Diff never reads it.
type Env struct {
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Stamp collects the environment fingerprint for a report.
func Stamp() Env {
	return Env{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		CPU:        cpuModel(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel extracts the CPU model name from /proc/cpuinfo, falling back
// to the architecture string on other platforms.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, after, ok := strings.Cut(line, ":"); ok {
					return strings.TrimSpace(after)
				}
			}
		}
	}
	return runtime.GOARCH
}

// Report is the on-disk shape of every bench report. E is a struct of
// exact fields keyed by a string field called Name.
type Report[E any] struct {
	// Schema names the format; Read refuses any other, so a stale
	// committed baseline fails loudly instead of diffing garbage.
	Schema    string `json:"schema"`
	Generated string `json:"generated"`
	Env       Env    `json:"env"`
	// Runs is how many times each case ran; every repetition must give
	// the same entry.
	Runs int `json:"runs,omitempty"`
	// Quick marks a run over a subset of the suite: baseline entries
	// missing from it are not regressions.
	Quick   bool `json:"quick,omitempty"`
	Entries []E  `json:"entries"`
}

// New starts a report of the given schema, dated now and stamped with
// this machine's environment.
func New[E any](schema string) Report[E] {
	return Report[E]{Schema: schema, Generated: time.Now().UTC().Format(time.RFC3339), Env: Stamp()}
}

// Write marshals a report as indented JSON to path, or to stdout for "-".
func Write(v any, path string) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Read loads the report at path into v. The report must carry the given
// schema and no field v does not declare: a timing field in a baseline
// is an error, not something silently ignored.
func Read(path, schema string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if head.Schema != schema {
		return fmt.Errorf("%s: schema %q, want %q", path, head.Schema, schema)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Diff compares a run against a baseline and returns one message per
// entry that regressed. Entries match by Name and must agree on every
// field. An entry only in the run is new and has nothing to compare
// with; a baseline entry missing from the run is a regression unless
// the run is Quick.
func Diff[E any](base, cur *Report[E]) []string {
	baseByName := make(map[string]E, len(base.Entries))
	for _, b := range base.Entries {
		baseByName[name(b)] = b
	}
	var msgs []string
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		n := name(e)
		b, ok := baseByName[n]
		if !ok {
			continue
		}
		seen[n] = true
		if d := fieldDiffs(b, e); len(d) > 0 {
			msgs = append(msgs, fmt.Sprintf("%s: %s", n, strings.Join(d, "; ")))
		}
	}
	if !cur.Quick {
		for _, b := range base.Entries {
			if n := name(b); !seen[n] {
				msgs = append(msgs, fmt.Sprintf("%s: in the baseline but not in this run", n))
			}
		}
	}
	return msgs
}

// name returns an entry's Name field.
func name(e any) string {
	return reflect.ValueOf(e).FieldByName("Name").String()
}

// fieldDiffs lists every field, by its JSON name, on which two entries
// differ.
func fieldDiffs(base, cur any) []string {
	bv, cv := reflect.ValueOf(base), reflect.ValueOf(cur)
	t := bv.Type()
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if !bv.Field(i).Equal(cv.Field(i)) {
			tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			out = append(out, fmt.Sprintf("%s %v, baseline %v", tag, cv.Field(i), bv.Field(i)))
		}
	}
	return out
}
