package exec

import (
	"testing"

	"tensorbase/internal/table"
)

func mergeSchema(t *testing.T, cols ...table.Column) *table.Schema {
	t.Helper()
	s, err := table.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func intTuple(vs ...int64) table.Tuple {
	out := make(table.Tuple, len(vs))
	for i, v := range vs {
		out[i] = table.IntVal(v)
	}
	return out
}

func TestConcat(t *testing.T) {
	s := mergeSchema(t, table.Column{Name: "a", Type: table.Int64})
	c, err := NewConcat(
		NewMemScan(s, []table.Tuple{intTuple(1), intTuple(2)}),
		NewMemScan(s, nil),
		NewMemScan(s, []table.Tuple{intTuple(3)}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Int != 1 || rows[2][0].Int != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Mismatched schemas are rejected.
	other := mergeSchema(t, table.Column{Name: "b", Type: table.Int64})
	if _, err := NewConcat(NewMemScan(s, nil), NewMemScan(other, nil)); err == nil {
		t.Fatal("schema mismatch must fail")
	}
}

func TestOrderedMerge(t *testing.T) {
	s := mergeSchema(t,
		table.Column{Name: "k", Type: table.Int64},
		table.Column{Name: "src", Type: table.Int64})
	mk := func(src int64, keys ...int64) Operator {
		var rows []table.Tuple
		for _, k := range keys {
			rows = append(rows, intTuple(k, src))
		}
		return NewMemScan(s, rows)
	}
	m, err := NewOrderedMerge([]Operator{mk(0, 1, 4, 4, 9), mk(1, 2, 4, 8), mk(2)}, "k", false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	wantK := []int64{1, 2, 4, 4, 4, 8, 9}
	wantSrc := []int64{0, 1, 0, 0, 1, 1, 0} // ties break toward the lower input
	for i := range wantK {
		if rows[i][0].Int != wantK[i] || rows[i][1].Int != wantSrc[i] {
			t.Fatalf("row %d = %v, want k=%d src=%d", i, rows[i], wantK[i], wantSrc[i])
		}
	}
	// Descending.
	m, err = NewOrderedMerge([]Operator{mk(0, 9, 4, 1), mk(1, 8, 4)}, "k", true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	wantK = []int64{9, 8, 4, 4, 1}
	wantSrc = []int64{0, 1, 0, 1, 0}
	for i := range wantK {
		if rows[i][0].Int != wantK[i] || rows[i][1].Int != wantSrc[i] {
			t.Fatalf("desc row %d = %v", i, rows[i])
		}
	}
	if _, err := NewOrderedMerge([]Operator{mk(0)}, "nope", false); err == nil {
		t.Fatal("unknown column must fail")
	}
	// A vector column has no order; the merge refuses it in the sorts' words.
	vs := mergeSchema(t, table.Column{Name: "f", Type: table.FloatVec})
	_, err = NewOrderedMerge([]Operator{NewMemScan(vs, nil), NewMemScan(vs, nil)}, "f", false)
	if err == nil || err.Error() != `exec: cannot sort by vector column "f"` {
		t.Fatalf("vector merge: err = %v", err)
	}
}

// TestMergeAggregateMatchesSingleNode partitions rows across three "shards",
// aggregates each partition with HashAggregate, merges the partials, and
// checks bit-identity with one HashAggregate over all rows.
func TestMergeAggregateMatchesSingleNode(t *testing.T) {
	s := mergeSchema(t,
		table.Column{Name: "who", Type: table.Text},
		table.Column{Name: "amount", Type: table.Float64})
	row := func(who string, amt float64) table.Tuple {
		return table.Tuple{table.TextVal(who), table.FloatVal(amt)}
	}
	all := []table.Tuple{
		row("alice", 1.5), row("bob", 2), row("alice", 3.25), row("carol", -1),
		row("bob", 0.5), row("alice", 7), row("carol", 100), row("bob", -0.25),
	}
	specs := []AggSpec{
		{Kind: Count, As: "count"},
		{Kind: Sum, Col: "amount", As: "sum_amount"},
		{Kind: Avg, Col: "amount", As: "avg_amount"},
		{Kind: Min, Col: "amount", As: "min_amount"},
		{Kind: Max, Col: "amount", As: "max_amount"},
	}
	single, err := NewHashAggregate(NewMemScan(s, all), []string{"who"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(single)
	if err != nil {
		t.Fatal(err)
	}

	// Partial per-shard plans compute COUNT and SUM (AVG decomposes into
	// those), plus MIN/MAX.
	partialSpecs := []AggSpec{
		{Kind: Count, As: "count"},
		{Kind: Sum, Col: "amount", As: "sum_amount"},
		{Kind: Min, Col: "amount", As: "min_amount"},
		{Kind: Max, Col: "amount", As: "max_amount"},
	}
	var partials []Operator
	for shard := 0; shard < 3; shard++ {
		var rows []table.Tuple
		for i, r := range all {
			if i%3 == shard {
				rows = append(rows, r)
			}
		}
		p, err := NewHashAggregate(NewMemScan(s, rows), []string{"who"}, partialSpecs)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Collect(p)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, NewMemScan(p.Schema(), pr))
	}
	// Partial schema: who=0, count=1, sum=2, min=3, max=4.
	finals := []FinalAgg{
		{Kind: Count, Arg: 1, As: "count"},
		{Kind: Sum, Arg: 2, As: "sum_amount"},
		{Kind: Avg, Arg: 2, Count: 1, As: "avg_amount"},
		{Kind: Min, Arg: 3, As: "min_amount"},
		{Kind: Max, Arg: 4, As: "max_amount"},
	}
	m, err := NewMergeAggregate(partials, 1, finals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("group %d width %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("group %d col %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	for i, c := range m.Schema().Cols {
		if c != single.Schema().Cols[i] {
			t.Fatalf("schema col %d: %+v vs %+v", i, c, single.Schema().Cols[i])
		}
	}
}
