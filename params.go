package logan

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// param is one pipeline parameter: a row of the table behind
// OverlapConfig, MapConfig or IndexOptions (their Params methods), bound
// to one field of one configuration value. The rows are the only
// declaration of a parameter's wire name, default, bounds and meaning;
// the Default*Config constructors, the range half of Validate, the
// query-string, JSON and flag decoders of the binaries, the cluster Spec
// header and the tables in docs/SERVING.md are derived from them.
//
// A bound param is a flag.Value: String prints the field, Set parses
// into it.
type param struct {
	name string  // wire name: query key, JSON field, Spec header field
	doc  string  // one line, shown in flag usage and the docs
	def  float64 // what an absent parameter resolves to
	zero zeroRule
	// min and max bound an explicit value, inclusive; openMax excludes
	// max itself.
	min, max float64
	openMax  bool
	// server rows are resource controls of whoever runs the pipeline: a
	// struct field and a Spec header field, never a request parameter.
	server bool

	ptr any // the bound field: *int, *int32 or *float64
}

// zeroRule says what an explicit 0 means for a row: a value like any
// other (zeroValue); a value in a struct and on a flag, but the default in
// the query, JSON and Spec header forms, which never told 0 from absent
// (zeroAbsentOnWire); or the default everywhere, a struct built by hand
// included (zeroAbsent).
type zeroRule uint8

const (
	zeroValue zeroRule = iota
	zeroAbsentOnWire
	zeroAbsent
)

// typ names the bound field's type: "int", "int32" or "float64".
func (p param) typ() string { return fmt.Sprintf("%T", p.ptr)[1:] }

// interval renders the accepted range of an explicit value: "[0, 1)".
func (p param) interval() string {
	end := "]"
	if p.openMax {
		end = ")"
	}
	return "[" + formatNumber(p.min) + ", " + formatNumber(p.max) + end
}

// formatNumber prints integral values without an exponent and anything
// else in the shortest form that round-trips.
func formatNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p param) load() float64 {
	switch f := p.ptr.(type) {
	case *int:
		return float64(*f)
	case *int32:
		return float64(*f)
	case *float64:
		return *f
	}
	return 0 // the unbound zero param package flag compares defaults with
}

func (p param) store(v float64) {
	switch f := p.ptr.(type) {
	case *int:
		*f = int(v)
	case *int32:
		*f = int32(v)
	case *float64:
		*f = v
	}
}

// check is the range rule every entrance shares: a zeroAbsent row's 0
// stands for its default, anything else must be a number in bounds.
func (p param) check(v float64) error {
	if v == 0 && p.zero == zeroAbsent {
		return nil
	}
	if math.IsNaN(v) || v < p.min || v > p.max || p.openMax && v == p.max {
		return fmt.Errorf("%s=%s outside %s", p.name, formatNumber(v), p.interval())
	}
	return nil
}

// String prints the bound field's current value.
func (p param) String() string { return formatNumber(p.load()) }

// Set is the flag spelling: the value is taken as written.
func (p param) Set(value string) error { return p.set(value, false) }

// set parses value at the field's width — an int32 row rejects what does
// not fit 32 bits instead of wrapping — reads a wire form's 0 as the
// default unless 0 is a value of the row, checks the result against the
// row's bounds and stores it.
func (p param) set(value string, wire bool) error {
	var v float64
	var err error
	if _, float := p.ptr.(*float64); float {
		v, err = strconv.ParseFloat(value, 64)
	} else {
		bits := strconv.IntSize
		if _, narrow := p.ptr.(*int32); narrow {
			bits = 32
		}
		var n int64
		n, err = strconv.ParseInt(value, 10, bits)
		v = float64(n)
	}
	if err != nil {
		return fmt.Errorf("%s=%q: not a valid %s", p.name, value, p.typ())
	}
	if v == 0 && wire && p.zero != zeroValue {
		v = p.def
	}
	if err := p.check(v); err != nil {
		return err
	}
	p.store(v)
	return nil
}

// Params is one parameter table bound to one configuration value, in
// wire order.
type Params []param

// Set is the one text setter behind a request parameter, query key or
// JSON config field alike. A name that is not a request parameter of the
// table is an error listing the ones that are.
func (ps Params) Set(name, value string) error {
	var names []string
	for _, p := range ps {
		if p.server {
			continue
		}
		if p.name == name {
			return p.set(value, true)
		}
		names = append(names, p.name)
	}
	return fmt.Errorf("unknown parameter %q (valid: %s)", name, strings.Join(names, ", "))
}

// defaults writes every row's default into its field.
func (ps Params) defaults() {
	for _, p := range ps {
		p.store(p.def)
	}
}

// resolve applies "0 selects the default" to a struct built by hand —
// once, at the top of a run; the layers below read resolved values.
func (ps Params) resolve() {
	for _, p := range ps {
		if p.zero == zeroAbsent && p.load() == 0 {
			p.store(p.def)
		}
	}
}

// check is the range half of Validate.
func (ps Params) check() error {
	for _, p := range ps {
		if err := p.check(p.load()); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the table as one JSON object, a field per row in
// wire order: the config object of a cluster Spec header.
func (ps Params) MarshalJSON() ([]byte, error) {
	fields := make([]string, len(ps))
	for i, p := range ps {
		fields[i] = strconv.Quote(p.name) + ":" + p.String()
	}
	return []byte("{" + strings.Join(fields, ",") + "}"), nil
}

// UnmarshalJSON reads a Spec header's config object back: every row the
// object names goes through the row's setter, so the bounds hold for
// bytes read from disk as for a request. Absent and null fields keep
// their value, and a field no row knows is skipped — a record written by
// a binary with a different table stays decodable.
func (ps Params) UnmarshalJSON(data []byte) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	for _, p := range ps {
		if raw, ok := obj[p.name]; ok && string(raw) != "null" {
			if err := p.set(string(raw), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flags registers the rows names lists (wire name → flag name) on fs:
// default the field's current value, usage the row's doc plus what 0
// stands for while the field still holds it. A binary says which rows it
// exposes and under what name, never what they mean.
func (ps Params) Flags(fs *flag.FlagSet, names map[string]string) {
	for _, p := range ps {
		if name, ok := names[p.name]; ok {
			usage := p.doc
			if p.zero == zeroAbsent && p.load() == 0 {
				usage += " (0 = " + formatNumber(p.def) + ")"
			}
			fs.Var(p, name, usage)
		}
	}
}

// Markdown renders the table's request parameters as docs/SERVING.md
// carries them: name, type, default, range, meaning.
func (ps Params) Markdown() string {
	var b strings.Builder
	b.WriteString("| Name | Type | Default | Range | Meaning |\n| --- | --- | --- | --- | --- |\n")
	for _, p := range ps {
		if p.server {
			continue
		}
		zero := ""
		if p.zero != zeroValue {
			zero = "; `0` = default"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | `%s`%s | %s |\n", p.name, p.typ(), formatNumber(p.def), p.interval(), zero, p.doc)
	}
	return b.String()
}
