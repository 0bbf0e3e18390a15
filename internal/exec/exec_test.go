package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tensorbase/internal/table"
)

func intsSchema() *table.Schema {
	return table.MustSchema(table.Column{Name: "id", Type: table.Int64}, table.Column{Name: "v", Type: table.Float64})
}

func rows(pairs ...[2]float64) []table.Tuple {
	out := make([]table.Tuple, len(pairs))
	for i, p := range pairs {
		out[i] = table.Tuple{table.IntVal(int64(p[0])), table.FloatVal(p[1])}
	}
	return out
}

func TestMemScan(t *testing.T) {
	sc := NewMemScan(intsSchema(), rows([2]float64{1, 0.5}, [2]float64{2, 1.5}))
	got, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1][0].Int != 2 {
		t.Fatalf("Collect = %v", got)
	}
}

func TestFilter(t *testing.T) {
	sc := NewMemScan(intsSchema(), rows([2]float64{1, 0.5}, [2]float64{2, 1.5}, [2]float64{3, 2.5}))
	f := NewFilter(sc, func(tp table.Tuple) (bool, error) { return tp[1].Float > 1, nil })
	got, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int != 2 {
		t.Fatalf("filter = %v", got)
	}
}

func TestProject(t *testing.T) {
	sc := NewMemScan(intsSchema(), rows([2]float64{1, 0.5}))
	p, err := NewProject(sc, "v")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Float != 0.5 {
		t.Fatalf("project = %v", got)
	}
	if _, err := NewProject(NewMemScan(intsSchema(), nil), "ghost"); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestMap(t *testing.T) {
	sc := NewMemScan(intsSchema(), rows([2]float64{1, 2}))
	out := table.MustSchema(table.Column{Name: "double", Type: table.Float64})
	m := NewMap(sc, out, func(tp table.Tuple) (table.Tuple, error) {
		return table.Tuple{table.FloatVal(tp[1].Float * 2)}, nil
	})
	got, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Float != 4 {
		t.Fatalf("map = %v", got)
	}
}

func TestLimit(t *testing.T) {
	sc := NewMemScan(intsSchema(), rows([2]float64{1, 1}, [2]float64{2, 2}, [2]float64{3, 3}))
	got, err := Collect(NewLimit(sc, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("limit = %d rows", len(got))
	}
}

func floatSchema(key, val string) *table.Schema {
	return table.MustSchema(table.Column{Name: key, Type: table.Float64}, table.Column{Name: val, Type: table.Float64})
}

func frows(pairs ...[2]float64) []table.Tuple {
	out := make([]table.Tuple, len(pairs))
	for i, p := range pairs {
		out[i] = table.Tuple{table.FloatVal(p[0]), table.FloatVal(p[1])}
	}
	return out
}

func TestBandJoinMatchesWithinEps(t *testing.T) {
	left := NewMemScan(floatSchema("a", "lv"), frows([2]float64{1.0, 1}, [2]float64{5.0, 2}))
	right := NewMemScan(floatSchema("b", "rv"), frows([2]float64{1.05, 10}, [2]float64{1.2, 11}, [2]float64{4.0, 12}))
	j, err := NewBandJoin(left, right, "a", "b", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("band join = %d rows, want 1", len(got))
	}
	if got[0][0].Float != 1.0 || got[0][2].Float != 1.05 {
		t.Fatalf("band join row = %v", got[0])
	}
}

// Property: BandJoin equals the nested-loop reference join on random data.
func TestBandJoinMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		nl, nr := rng.Intn(40), rng.Intn(40)
		eps := rng.Float64() * 0.5
		lrows := make([]table.Tuple, nl)
		for i := range lrows {
			lrows[i] = table.Tuple{table.FloatVal(rng.Float64() * 4), table.FloatVal(float64(i))}
		}
		rrows := make([]table.Tuple, nr)
		for i := range rrows {
			rrows[i] = table.Tuple{table.FloatVal(rng.Float64() * 4), table.FloatVal(float64(i))}
		}
		want := 0
		for _, l := range lrows {
			for _, r := range rrows {
				if math.Abs(l[0].Float-r[0].Float) <= eps {
					want++
				}
			}
		}
		j, err := NewBandJoin(
			NewMemScan(floatSchema("a", "lv"), lrows),
			NewMemScan(floatSchema("b", "rv"), rrows),
			"a", "b", eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("trial %d: band join = %d rows, nested loop = %d", trial, len(got), want)
		}
	}
}

func TestBandJoinRejectsNegativeEps(t *testing.T) {
	s := floatSchema("a", "v")
	if _, err := NewBandJoin(NewMemScan(s, nil), NewMemScan(s, nil), "a", "a", -1); err == nil {
		t.Fatal("negative eps must be rejected")
	}
}

func TestHashAggregateCountSumAvgMinMax(t *testing.T) {
	s := table.MustSchema(table.Column{Name: "g", Type: table.Int64}, table.Column{Name: "v", Type: table.Float64})
	in := NewMemScan(s, []table.Tuple{
		{table.IntVal(1), table.FloatVal(1)},
		{table.IntVal(1), table.FloatVal(3)},
		{table.IntVal(2), table.FloatVal(10)},
	})
	agg, err := NewHashAggregate(in, []string{"g"}, []AggSpec{
		{Kind: Count, As: "n"},
		{Kind: Sum, Col: "v", As: "sum"},
		{Kind: Avg, Col: "v", As: "avg"},
		{Kind: Min, Col: "v", As: "min"},
		{Kind: Max, Col: "v", As: "max"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d groups", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0].Int < got[j][0].Int })
	g1 := got[0]
	if g1[1].Int != 2 || g1[2].Float != 4 || g1[3].Float != 2 || g1[4].Float != 1 || g1[5].Float != 3 {
		t.Fatalf("group 1 = %v", g1)
	}
	g2 := got[1]
	if g2[1].Int != 1 || g2[2].Float != 10 {
		t.Fatalf("group 2 = %v", g2)
	}
}

func TestHashAggregateValidation(t *testing.T) {
	s := intsSchema()
	if _, err := NewHashAggregate(NewMemScan(s, nil), []string{"ghost"}, nil); err == nil {
		t.Fatal("unknown group column must error")
	}
	if _, err := NewHashAggregate(NewMemScan(s, nil), nil, []AggSpec{{Kind: Sum, Col: "ghost", As: "s"}}); err == nil {
		t.Fatal("unknown agg column must error")
	}
	if _, err := NewHashAggregate(NewMemScan(s, nil), nil, []AggSpec{{Kind: Sum, Col: "v"}}); err == nil {
		t.Fatal("missing output name must error")
	}
	// The error names the aggregate, not its enum value.
	ts := table.MustSchema(table.Column{Name: "who", Type: table.Text})
	_, err := NewHashAggregate(NewMemScan(ts, nil), nil, []AggSpec{{Kind: Sum, Col: "who", As: "s"}})
	if err == nil || err.Error() != `exec: SUM over non-numeric column "who"` {
		t.Fatalf("SUM over TEXT: err = %v", err)
	}
}

func TestSortAscDesc(t *testing.T) {
	s := intsSchema()
	in := rows([2]float64{3, 3}, [2]float64{1, 1}, [2]float64{2, 2})
	asc, err := NewSort(NewMemScan(s, in), "id", false, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(asc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Int != 1 || got[2][0].Int != 3 {
		t.Fatalf("asc sort = %v", got)
	}
	desc, err := NewSort(NewMemScan(s, in), "id", true, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Collect(desc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Int != 3 {
		t.Fatalf("desc sort = %v", got)
	}
	// A vector column has no order; the sort refuses it in the same words
	// with or without a LIMIT.
	vs := table.MustSchema(table.Column{Name: "f", Type: table.FloatVec})
	_, err = NewSort(NewMemScan(vs, nil), "f", false, -1, nil)
	if err == nil || err.Error() != `exec: cannot sort by vector column "f"` {
		t.Fatalf("vector sort: err = %v", err)
	}
	if _, err := NewSort(NewMemScan(vs, nil), "f", false, 3, nil); err == nil || err.Error() != `exec: cannot sort by vector column "f"` {
		t.Fatalf("vector top-k: err = %v", err)
	}
}

func TestPipelineComposition(t *testing.T) {
	// scan → filter → project → sort → limit end to end.
	s := intsSchema()
	var in []table.Tuple
	for i := 0; i < 100; i++ {
		in = append(in, table.Tuple{table.IntVal(int64(i)), table.FloatVal(float64(i % 10))})
	}
	f := NewFilter(NewMemScan(s, in), func(tp table.Tuple) (bool, error) { return tp[1].Float >= 5, nil })
	p, err := NewProject(f, "id")
	if err != nil {
		t.Fatal(err)
	}
	srt, err := NewSort(p, "id", true, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewLimit(srt, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0][0].Int != 99 {
		t.Fatalf("pipeline = %v", got)
	}
}
