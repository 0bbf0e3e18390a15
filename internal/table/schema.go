// Package table implements typed relational tables over the paged storage
// layer: schemas, binary tuple encoding, and chained heap files. Besides the
// usual scalar types it has a first-class float-vector column type, which is
// how feature vectors and tensor blocks live inside relations — the
// representation the paper's relation-centric architecture is built on.
//
// Panic policy: bytes read back from disk are untrusted input. Decode,
// DecodeInto, and the heap accessors validate every length and offset they
// read from a record — truncated fields, overflowing varint lengths, and
// corrupt slot directories come back as errors, never panics. Panics are
// reserved for programmer errors (a tuple that does not match its schema at
// encode time is also an error, but misuse of buffers sized by the caller
// panics as in package storage).
package table

import "fmt"

// ColType enumerates column types.
type ColType uint8

// Column types.
const (
	Int64 ColType = iota + 1
	Float64
	Text
	FloatVec // variable-length []float32, used for features and tensor blocks
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "INT"
	case Float64:
		return "DOUBLE"
	case Text:
		return "TEXT"
	case FloatVec:
		return "VECTOR"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column is one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns. Schemas are immutable after
// construction and safe for concurrent use.
type Schema struct {
	Cols []Column
}

// NewSchema returns a schema over the given columns, rejecting duplicate or
// empty names.
func NewSchema(cols ...Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		if c.Type < Int64 || c.Type > FloatVec {
			return nil, fmt.Errorf("table: column %q has invalid type %d", c.Name, c.Type)
		}
		seen[c.Name] = true
	}
	return &Schema{Cols: cols}, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1. Schemas are
// narrow, so a linear scan beats a map and keeps lookups race-free.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Project returns a schema of the named columns in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.ColIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("table: unknown column %q", n)
		}
		cols = append(cols, s.Cols[i])
	}
	return NewSchema(cols...)
}

// Append returns s's columns followed by c, refusing a name s already has.
func (s *Schema) Append(c Column) (*Schema, error) {
	// A full slice expression makes append copy: s is shared.
	n := len(s.Cols)
	return NewSchema(append(s.Cols[:n:n], c)...)
}

// Concat returns the schema of s's columns followed by o's. Name collisions
// are disambiguated with a suffix, as join outputs need.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	taken := make(map[string]bool, len(cols))
	for _, c := range cols {
		taken[c.Name] = true
	}
	for _, c := range o.Cols {
		name := c.Name
		for i := 2; taken[name]; i++ {
			name = fmt.Sprintf("%s_%d", c.Name, i)
		}
		taken[name] = true
		cols = append(cols, Column{Name: name, Type: c.Type})
	}
	return &Schema{Cols: cols}
}
