package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tensorbase/internal/engine"
	"tensorbase/internal/table"
)

// wrappingNearest is a 20-byte nearest request body — floor, empty table,
// empty column, k=0, dim=1<<62 — and wrappingDists a distances body with
// n=1<<61. 4*dim and 8*n both wrap to zero, matching the empty tails.
func wrappingNearest() []byte {
	b := binary.LittleEndian.AppendUint64(nil, 0)
	b = append(b, 0, 0, 0)
	return binary.AppendUvarint(b, 1<<62)
}

func wrappingDists() []byte { return binary.AppendUvarint(nil, 1<<61) }

// TestDecodeRejectsWrappingLengths is the regression for length checks
// that multiplied an attacker-chosen count: the wrapped product passed, the
// decoder's make() panicked, and the whole shard server exited with it.
func TestDecodeRejectsWrappingLengths(t *testing.T) {
	nearest := wrappingNearest()
	if len(nearest) != 20 {
		t.Fatalf("nearest body is %d bytes, want 20", len(nearest))
	}
	if _, _, _, _, _, err := decodeNearestReq(nearest); err == nil {
		t.Fatal("nearest request with dim 1<<62 and no vector decoded cleanly")
	}
	if _, err := decodeDistsFrame(wrappingDists()); err == nil {
		t.Fatal("distances frame with n 1<<61 and no payload decoded cleanly")
	}
}

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
		"dists": func(b []byte) ([]byte, error) {
			d, err := decodeDistsFrame(b)
			if err != nil {
				return nil, err
			}
			return encodeDistsFrame(d)[1:], nil
		},
		"done": func(b []byte) ([]byte, error) {
			rows, committed, err := decodeDone(b)
			if err != nil {
				return nil, err
			}
			return encodeDone(rows, committed)[1:], nil
		},
		"nearest": func(b []byte) ([]byte, error) {
			tbl, col, query, k, floor, err := decodeNearestReq(b)
			if err != nil {
				return nil, err
			}
			return encodeNearestReq(tbl, col, query, k, floor)[1:], nil
		},
		"vindex": func(b []byte) ([]byte, error) {
			tbl, col, err := decodeVIndexReq(b)
			if err != nil {
				return nil, err
			}
			return encodeVIndexReq(tbl, col)[1:], nil
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
	f.Add(encodeDistsFrame([]float64{0.5, math.Inf(1), 3})[1:])
	f.Add(encodeDone(12, 56)[1:])
	f.Add(encodeErr(fmt.Errorf("%w: shard-2 down", ErrUnavailable))[1:])
	f.Add(encodeErr(engine.ErrLag)[1:])
	f.Add(encodeNearestReq("tx", "f", []float32{0.25, -1}, 5, 9)[1:])
	f.Add(encodeVIndexReq("tx", "f")[1:])
	f.Add(wrappingNearest())
	f.Add(wrappingDists())
	f.Add([]byte{})

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
