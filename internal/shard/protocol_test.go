package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"tensorbase/internal/engine"
	"tensorbase/internal/table"
)

func fuzzSchema() *table.Schema {
	s, err := table.NewSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "amount", Type: table.Float64},
		table.Column{Name: "note", Type: table.Text},
		table.Column{Name: "f", Type: table.FloatVec},
	)
	if err != nil {
		panic(err)
	}
	return s
}

// FuzzShardDecode sends arbitrary bytes (a payload after its kind byte) to
// every shard decoder. None may panic. Each recoder decodes and re-encodes;
// an accepted input's re-encoding must decode again to the same bytes.
// Input bytes themselves need not match: uvarints accept non-minimal forms.
func FuzzShardDecode(f *testing.F) {
	schema := fuzzSchema()
	recoders := map[string]func([]byte) ([]byte, error){
		"schema": func(b []byte) ([]byte, error) {
			s, _, err := decodeSchema(b)
			if err != nil {
				return nil, err
			}
			return encodeSchema(nil, s), nil
		},
		"rows": func(b []byte) ([]byte, error) {
			rows, err := decodeRowsFrame(schema, b)
			if err != nil {
				return nil, err
			}
			enc, err := encodeRowsFrame(schema, rows)
			if err != nil {
				panic(fmt.Sprintf("re-encoding decoded rows: %v", err))
			}
			return enc[1:], nil
		},
		"done": func(b []byte) ([]byte, error) {
			rows, committed, err := decodeDone(b)
			if err != nil {
				return nil, err
			}
			return encodeDone(rows, committed)[1:], nil
		},
	}

	rows, err := encodeRowsFrame(schema, []table.Tuple{
		{table.IntVal(7), table.FloatVal(2.25), table.TextVal("ok"), table.VecVal([]float32{1, -2, 3.5})},
		{table.IntVal(-1), table.FloatVal(math.NaN()), table.TextVal(""), table.VecVal(nil)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeSchema(nil, schema))
	f.Add(rows[1:])
	f.Add(encodeDone(12, 56)[1:])
	f.Add(encodeErr(fmt.Errorf("%w: shard-2 down", ErrUnavailable))[1:])
	f.Add(encodeErr(engine.ErrLag)[1:])
	f.Add([]byte{})
	// Edges of the remaining decoders: an empty rows frame, a row count
	// past rowsPerFrame, a row whose record is cut short, extreme done
	// values, and a generic error's text.
	empty, err := encodeRowsFrame(schema, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty[1:])
	f.Add(binary.AppendUvarint(nil, rowsPerFrame+1))
	f.Add(rows[1 : len(rows)-3])
	f.Add(encodeDone(-1, math.MaxUint64)[1:])
	f.Add(encodeErr(errors.New(`catalog: no table "nope"`))[1:])

	f.Fuzz(func(t *testing.T, in []byte) {
		for name, recode := range recoders {
			canon, err := recode(in)
			if err != nil {
				continue
			}
			again, err := recode(canon)
			if err != nil {
				t.Fatalf("%s: re-encoded value does not decode: %v", name, err)
			}
			if !bytes.Equal(again, canon) {
				t.Fatalf("%s: round trip changed the value:\n%x\n%x", name, canon, again)
			}
		}

		// An error frame always decodes. What survives the wire is the
		// retriability class, plus the exact text of a generic error: the
		// classed ones gain their sentinel's prefix on every decode.
		e := decodeErr(in)
		enc := encodeErr(e)
		e2 := decodeErr(enc[1:])
		if enc2 := encodeErr(e2); enc2[1] != enc[1] {
			t.Fatalf("err: class %d became %d", enc[1], enc2[1])
		}
		if enc[1] == errGeneric && e2.Error() != e.Error() {
			t.Fatalf("err: generic text %q became %q", e.Error(), e2.Error())
		}
	})
}
