package model

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fpga3d/internal/wire"
)

// ReadInstance reads r to EOF, decodes the Instance in its first JSON
// value and validates it. The decoding accepts exactly what
// encoding/json accepts for an Instance with unknown fields
// disallowed (see DecodeInstance).
func ReadInstance(r io.Reader) (*Instance, error) {
	hint := 0
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len()
	}
	data, err := wire.ReadAll(r, hint)
	in := new(Instance)
	if err == nil {
		err = DecodeInstance(wire.NewDecoder(data), in)
	}
	if err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// DecodeInstance decodes the instance object at d's cursor into in,
// for a caller that reads an instance inside a larger JSON body. As
// with encoding/json, null leaves in unchanged and a repeated key
// decodes into the value already there.
func DecodeInstance(d *wire.Decoder, in *Instance) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "name", "tasks", "prec") {
		case 0:
			return d.String(&in.Name)
		case 1:
			return wire.Slice(d, &in.Tasks, func(t *Task) error { return decodeTask(d, t) })
		case 2:
			return wire.Slice(d, &in.Prec, func(a *Arc) error { return decodeArc(d, a) })
		}
		return wire.UnknownField(key)
	})
}

func decodeTask(d *wire.Decoder, t *Task) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "name", "w", "h", "dur") {
		case 0:
			return d.String(&t.Name)
		case 1:
			return d.Int(&t.W)
		case 2:
			return d.Int(&t.H)
		case 3:
			return d.Int(&t.Dur)
		}
		return wire.UnknownField(key)
	})
}

func decodeArc(d *wire.Decoder, a *Arc) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "from", "to") {
		case 0:
			return d.Int(&a.From)
		case 1:
			return d.Int(&a.To)
		}
		return wire.UnknownField(key)
	})
}

// DecodeContainer decodes a container object {w, h, t} at d's cursor
// into c, with the null and repeated-key behavior of DecodeInstance.
func DecodeContainer(d *wire.Decoder, c *Container) error {
	return d.Object(func(key []byte) error {
		switch wire.Field(key, "w", "h", "t") {
		case 0:
			return d.Int(&c.W)
		case 1:
			return d.Int(&c.H)
		case 2:
			return d.Int(&c.T)
		}
		return wire.UnknownField(key)
	})
}

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadInstance(f)
}

// WriteInstance encodes the instance as indented JSON.
func WriteInstance(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}
