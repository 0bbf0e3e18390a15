package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/shard"
	"tensorbase/internal/table"
)

// boxed is the reply as the reflection encoder was handed it: every value
// boxed in an any, vectors as []float32.
func boxed(r *response) queryResponse {
	q := queryResponse{Session: r.Session, Seq: r.Seq, Node: r.Node, RowsAffected: r.RowsAffected, Error: r.Error}
	if r.Schema == nil {
		return q
	}
	for _, c := range r.Schema.Cols {
		q.Columns = append(q.Columns, c.Name)
	}
	q.Rows = make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch v.Type {
			case table.Int64:
				out[j] = v.Int
			case table.Float64:
				out[j] = v.Float
			case table.Text:
				out[j] = v.Str
			case table.FloatVec:
				out[j] = v.Vec
			default:
				out[j] = v.String()
			}
		}
		q.Rows[i] = out
	}
	return q
}

// sameAsEncodingJSON fails unless appendResponse writes what json.Marshal
// writes for the boxed reply, or fails with the error json.Marshal returns.
func sameAsEncodingJSON(t testing.TB, what string, r *response) {
	t.Helper()
	want, werr := json.Marshal(boxed(r))
	got, gerr := appendResponse(nil, r)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: error %v, encoding/json says %v", what, gerr, werr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// encodeSeed builds the matrix table: id INT (the shard key), amount DOUBLE,
// who TEXT, f VECTOR.
func encodeSeed(rows int) []string {
	people := []string{"alice", "bob & <carol>", "dave \"d\" \\ e"}
	var b strings.Builder
	b.WriteString("INSERT INTO tx VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %g, '%s', [%g, %d, %g, %d])",
			i, float64(i)*0.37+1e-7, people[i%len(people)], float64(i)/3, 2*i%7, 1e22*float64(i), 3+i%5)
	}
	return []string{"CREATE TABLE tx (id INT, amount DOUBLE, who TEXT, f VECTOR)", b.String()}
}

// encodeMatrix is the statement matrix the golden test encodes: scans,
// filters, ordering, limits, global and grouped aggregates, PREDICT, CTEs,
// point reads and empty results.
var encodeMatrix = []string{
	"SELECT id, amount, who FROM tx ORDER BY id",
	"SELECT * FROM tx ORDER BY id",
	"SELECT id, amount FROM tx WHERE amount > 3 ORDER BY id DESC",
	"SELECT id, amount FROM tx ORDER BY amount LIMIT 5",
	"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM tx",
	"SELECT who, COUNT(*), SUM(amount), AVG(amount) FROM tx GROUP BY who ORDER BY who",
	"SELECT id, PREDICT(m4, f) FROM tx ORDER BY id",
	"SELECT id, PREDICT(m4, f) FROM tx WHERE id = 7",
	"WITH big AS (SELECT id, amount FROM tx WHERE amount >= 2) SELECT COUNT(*), SUM(amount) FROM big",
	"SELECT id FROM tx WHERE id = 999",
	"SELECT id FROM tx ORDER BY id LIMIT 0",
	"SELECT COUNT(*) FROM tx WHERE id < 0",
}

// The encoder writes encoding/json's bytes for every statement of the
// matrix, on a single node and through a 2-shard scatter-gather cluster.
func TestEncoderMatchesEncodingJSONOnTheMatrix(t *testing.T) {
	const rows = 24
	model, err := nn.NewModel("m4", []int{1, 4}, nn.NewLinear(rand.New(rand.NewSource(7)), 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(filepath.Join(t.TempDir(), "single"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, err := shard.NewLocalCluster(t.TempDir(), 2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	sess := cl.NewSession()
	single := func(q string) (*engine.Result, error) { return db.Query(q) }
	scatter := func(q string) (*engine.Result, error) { return cl.Exec(context.Background(), q, sess) }
	for _, node := range []struct {
		name string
		exec func(string) (*engine.Result, error)
		load func(*nn.Model, float64) error
	}{{"", single, db.LoadModel}, {"cluster", scatter, cl.LoadModel}} {
		for i, q := range encodeSeed(rows) {
			res, err := node.exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q[:20], err)
			}
			sameAsEncodingJSON(t, fmt.Sprintf("%s seed %d", node.name, i),
				&response{Session: "s", Seq: int64(i + 1), Node: node.name, Schema: res.Schema, Rows: res.Rows, RowsAffected: res.RowsAffected})
		}
		if err := node.load(model, 0.9); err != nil {
			t.Fatal(err)
		}
		for i, q := range encodeMatrix {
			res, err := node.exec(q)
			if err != nil {
				t.Fatalf("%s %s: %v", node.name, q, err)
			}
			sameAsEncodingJSON(t, node.name+" "+q,
				&response{Session: "s", Seq: int64(i + 3), Node: node.name, Schema: res.Schema, Rows: res.Rows, RowsAffected: res.RowsAffected})
		}
	}
}

// The encoder writes encoding/json's bytes on the values where a
// hand-written encoder would part from it: the 'e' switch at 1e-6 and 1e21
// in each value's own precision, the e-07 → e-7 trim, signed zeros,
// subnormals, the extremes, HTML-sensitive and control characters, the
// line and paragraph separators, invalid UTF-8, nil and empty vectors, a
// value of no known type, and empty replies; and it fails on ±Inf and NaN
// with encoding/json's error.
func TestEncoderMatchesEncodingJSONOnEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{
		0, negZero, 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-10, 1e20, 1e21, 9.99999e20, 1e22,
		-1e21, 123456789.125, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-100, 1e100, 3.0000000000000004,
	}
	f32s := []float32{
		0, float32(negZero), 1e-6, 9.99999e-7, 1e-7, 1e21, 9.9999e20, 1e-45, 1.17549435e-38,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 0.1, 16777217, 3.4e-20,
	}
	strs := []string{
		"", "plain", "<script>&amp;</script>", "quote \" backslash \\ slash /",
		"\x00\x01\x07\b\f\n\r\t\x1f\x7f", "line\u2028para\u2029end", "bad \xff\xfe utf8 \xc3", "日本語 ✓ 😀",
		"\xed\xa0\x80 surrogate", "\u00e9\u0301",
	}
	schema := func(n int) *table.Schema {
		cols := make([]table.Column, n)
		for i := range cols {
			cols[i] = table.Column{Name: fmt.Sprintf("c%d<&>", i), Type: table.Int64}
		}
		return &table.Schema{Cols: cols}
	}
	var rows []table.Tuple
	for _, f := range floats {
		rows = append(rows, table.Tuple{table.FloatVal(f), table.FloatVal(-f)})
	}
	for _, f := range f32s {
		rows = append(rows, table.Tuple{table.VecVal([]float32{f, -f}), table.IntVal(math.MinInt64)})
	}
	for _, s := range strs {
		rows = append(rows, table.Tuple{table.TextVal(s), table.IntVal(math.MaxInt64)})
	}
	rows = append(rows,
		table.Tuple{table.VecVal(nil), table.VecVal([]float32{})},
		table.Tuple{{}, table.IntVal(0)}, // a value of no known type
		table.Tuple{},
		nil,
	)
	for i, row := range rows {
		sameAsEncodingJSON(t, fmt.Sprintf("row %d %v", i, row), &response{Session: "s", Schema: schema(len(row)), Rows: []table.Tuple{row}})
	}
	sameAsEncodingJSON(t, "all rows", &response{Session: "s", Seq: 9, Node: "replica-1", Schema: schema(2), Rows: rows, RowsAffected: 3})

	for i, s := range strs {
		sameAsEncodingJSON(t, fmt.Sprintf("session/node/error %d", i), &response{Session: s, Node: s, Error: s})
	}
	for _, r := range []*response{
		{},
		{Session: "s", Seq: 1},
		{Session: "s", Schema: schema(0)},
		{Session: "s", Schema: schema(2)},
		{Session: "s", Schema: schema(1), Rows: []table.Tuple{}},
		{Session: "s", Rows: rows},                            // no schema: no columns, no rows
		{Session: "s", Seq: -4, RowsAffected: -1, Error: "x"}, // negatives are not empty
	} {
		sameAsEncodingJSON(t, fmt.Sprintf("%+v", *r), r)
	}

	for _, bad := range []table.Value{
		table.FloatVal(math.Inf(1)), table.FloatVal(math.Inf(-1)), table.FloatVal(math.NaN()),
		table.VecVal([]float32{1, float32(math.Inf(1))}), table.VecVal([]float32{float32(math.NaN())}),
	} {
		r := &response{Session: "s", Schema: schema(2), Rows: []table.Tuple{{table.IntVal(1), table.FloatVal(2)}, {table.TextVal("a"), bad}}}
		sameAsEncodingJSON(t, fmt.Sprintf("non-finite %v", bad), r)
		if _, err := appendResponse(nil, r); err == nil {
			t.Fatalf("%v encoded", bad)
		}
	}
}

// Encoding a result into a grown buffer allocates a constant number of
// times, whatever the row count.
func TestEncoderAllocationsDoNotGrowWithRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := &table.Schema{Cols: []table.Column{{Name: "id", Type: table.Int64}, {Name: "prediction", Type: table.FloatVec}}}
	result := func(n int) *response {
		rows := make([]table.Tuple, n)
		for i := range rows {
			rows[i] = table.Tuple{table.IntVal(int64(i)), table.VecVal([]float32{rng.Float32(), rng.Float32()})}
		}
		return &response{Session: "0123456789abcdef", Seq: 7, Schema: schema, Rows: rows}
	}
	allocs := func(r *response) float64 {
		buf, _ := appendResponse(nil, r)
		return testing.AllocsPerRun(20, func() { buf, _ = appendResponse(buf[:0], r) })
	}
	one, many := allocs(result(1)), allocs(result(2048))
	if many != one {
		t.Fatalf("encoding 2048 rows allocated %v times, 1 row %v", many, one)
	}
}

// FuzzEncodeResult checks the encoder against encoding/json on arbitrary
// strings, float64s, float32 bit patterns and integers.
func FuzzEncodeResult(f *testing.F) {
	f.Add("s", "text", 1.5, uint32(0x3f800000), int64(7))
	f.Add("<&>", "\u2028\xff", 1e-7, uint32(0x7f800000), int64(-1))
	f.Add("", "", math.Inf(1), uint32(0x00000001), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, session, s string, f64 float64, f32 uint32, i int64) {
		v := math.Float32frombits(f32)
		sameAsEncodingJSON(t, "fuzz", &response{
			Session: session, Seq: i, Node: s, Error: s, RowsAffected: i,
			Schema: &table.Schema{Cols: []table.Column{{Name: s, Type: table.Int64}}},
			Rows: []table.Tuple{
				{table.IntVal(i), table.FloatVal(f64), table.TextVal(s), table.VecVal([]float32{v, -v, float32(f64)})},
				{table.TextVal(session)},
			},
		})
	})
}
