package sql

import (
	"strings"
	"testing"

	"tensorbase/internal/table"
)

func TestLexerComments(t *testing.T) {
	sel := parseSelect(t, "-- leading line comment\nSELECT a FROM t -- trailing\n/* block\nspans lines */ LIMIT 2")
	if sel.From != "t" || sel.Limit != 2 {
		t.Fatalf("%+v", sel)
	}
	if _, err := Parse("SELECT a FROM t /* unterminated"); err == nil {
		t.Fatal("unterminated block comment must fail")
	}
	// '-' stays an identifier character: model names like Fraud-FC-32 must
	// not be eaten as comments.
	sel = parseSelect(t, "SELECT PREDICT(Fraud-FC-32, f) FROM t")
	if sel.Items[0].Predict.Model != "Fraud-FC-32" {
		t.Fatalf("%+v", sel.Items[0].Predict)
	}
}

func TestParseParenthesizedSelect(t *testing.T) {
	sel := parseSelect(t, "(SELECT a FROM t WHERE a = 1)")
	if sel.From != "t" || sel.Where == nil {
		t.Fatalf("%+v", sel)
	}
	// Nested parens work too.
	sel = parseSelect(t, "((SELECT a FROM t))")
	if sel.From != "t" {
		t.Fatalf("%+v", sel)
	}
	if _, err := Parse("(DROP TABLE t)"); err == nil {
		t.Fatal("parenthesized non-SELECT must fail")
	}
	if _, err := Parse("(SELECT a FROM t"); err == nil {
		t.Fatal("unbalanced paren must fail")
	}
}

func TestParseCTE(t *testing.T) {
	sel := parseSelect(t, "WITH big AS (SELECT a FROM t WHERE a > 5) SELECT a FROM big LIMIT 3")
	if len(sel.With) != 1 || sel.With[0].Name != "big" {
		t.Fatalf("%+v", sel.With)
	}
	if sel.With[0].Query.Where == nil || sel.From != "big" || sel.Limit != 3 {
		t.Fatalf("%+v", sel)
	}
	sel = parseSelect(t, "WITH x AS (SELECT a FROM t), y AS (SELECT b FROM u) SELECT a FROM x")
	if len(sel.With) != 2 || sel.With[1].Name != "y" {
		t.Fatalf("%+v", sel.With)
	}
	for _, bad := range []string{
		"WITH x AS (DROP TABLE t) SELECT a FROM x",
		"WITH x AS (SELECT a FROM t) DROP TABLE x",
		"WITH x AS SELECT a FROM t SELECT a FROM x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT who, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM txns GROUP BY who")
	if sel.GroupBy != "who" || len(sel.Items) != 6 {
		t.Fatalf("%+v", sel)
	}
	if sel.Items[0].Agg != nil || sel.Items[1].Agg == nil {
		t.Fatalf("%+v", sel.Items)
	}
	if sel.Items[1].Agg.Fn != "COUNT" || sel.Items[1].Agg.Col != "" {
		t.Fatalf("%+v", sel.Items[1].Agg)
	}
	if sel.Items[2].Agg.Fn != "SUM" || sel.Items[2].Agg.Col != "amount" {
		t.Fatalf("%+v", sel.Items[2].Agg)
	}
	if got := sel.Items[2].Agg.OutName(); got != "sum_amount" {
		t.Fatalf("OutName = %q", got)
	}
	if got := sel.Items[1].Agg.OutName(); got != "count" {
		t.Fatalf("OutName = %q", got)
	}
	// COUNT(col) parses; no GROUP BY is a single global group.
	sel = parseSelect(t, "select count(id) from t")
	if sel.Items[0].Agg == nil || sel.Items[0].Agg.Col != "id" || sel.GroupBy != "" {
		t.Fatalf("%+v", sel)
	}
	// A column merely named like an aggregate stays a column reference.
	sel = parseSelect(t, "SELECT count FROM t")
	if sel.Items[0].Agg != nil || sel.Items[0].Col != "count" {
		t.Fatalf("%+v", sel.Items[0])
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Fatal("SUM(*) must fail")
	}
	if _, err := Parse("SELECT a FROM t GROUP who"); err == nil {
		t.Fatal("GROUP without BY must fail")
	}
}

func TestReadOnly(t *testing.T) {
	reads := []string{
		"SELECT a FROM t",
		"(SELECT a FROM t)",
		"WITH x AS (SELECT a FROM t) SELECT a FROM x",
		"-- note\nSELECT a FROM t",
	}
	for _, src := range reads {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !ReadOnly(st) {
			t.Fatalf("ReadOnly(%q) = false", src)
		}
	}
	writes := []string{
		"INSERT INTO t VALUES (1)",
		"CREATE TABLE t (a INT)",
		"DROP TABLE t",
	}
	for _, src := range writes {
		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if ReadOnly(st) {
			t.Fatalf("ReadOnly(%q) = true", src)
		}
	}
}

func TestKeyPin(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE id = 7")
	lit, ok := sel.KeyPin("id")
	if !ok || lit.Value.Int != 7 {
		t.Fatalf("pin = %+v, %v", lit, ok)
	}
	for _, src := range []string{
		"SELECT * FROM t WHERE id > 7",                               // not equality
		"SELECT * FROM t WHERE other = 7",                            // not the key
		"SELECT * FROM t",                                            // no WHERE
		"WITH x AS (SELECT id FROM t WHERE id = 7) SELECT id FROM x", // CTE outer never pins
	} {
		if _, ok := parseSelect(t, src).KeyPin("id"); ok {
			t.Fatalf("KeyPin(%q) pinned", src)
		}
	}
}

func TestCTEBody(t *testing.T) {
	cases := []struct {
		name, src string
		ok        bool
		from      string   // the body's FROM
		with      []string // the bindings the body may see
	}{
		{"chained", "WITH a AS (SELECT id FROM t), b AS (SELECT id FROM a) SELECT id FROM b",
			true, "a", []string{"a"}},
		{"shadowed", "WITH a AS (SELECT id FROM t), a AS (SELECT id FROM a WHERE id > 1) SELECT id FROM a",
			true, "a", []string{"a"}},
		{"base table", "WITH a AS (SELECT id FROM t) SELECT id FROM t", false, "", nil},
	}
	for _, c := range cases {
		st := parseSelect(t, c.src)
		body, ok := st.CTEBody()
		if ok != c.ok {
			t.Fatalf("%s: ok = %v, want %v", c.name, ok, c.ok)
		}
		if !ok {
			continue
		}
		if body.From != c.from || len(body.With) != len(c.with) {
			t.Fatalf("%s: body FROM %q with %d bindings, want FROM %q with %v", c.name, body.From, len(body.With), c.from, c.with)
		}
		for i, w := range c.with {
			if body.With[i].Name != w {
				t.Fatalf("%s: binding %d = %q, want %q", c.name, i, body.With[i].Name, w)
			}
		}
		// The shadowing binding wins, and the statement is not mutated.
		if c.name == "shadowed" && (body.Where == nil || len(st.With) != 2) {
			t.Fatalf("shadowed: body = %+v, outer WITH = %d", body, len(st.With))
		}
	}
}

func TestRenderRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a, b FROM t WHERE a >= 1.5 ORDER BY b DESC LIMIT 10",
		"SELECT who, COUNT(*), SUM(amount) FROM txns GROUP BY who",
		"SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns",
		"SELECT id, DISTANCE(f, [0.1, -2.5, 3e-07]) FROM t WHERE id > 2 ORDER BY distance DESC LIMIT 5",
		"WITH big AS (SELECT a FROM t WHERE a > 5) SELECT a FROM big LIMIT 3",
		"INSERT INTO t VALUES (1, -2.5, 'it''s', [1.5, -3]), (2, 1e-12, '', [])",
		"CREATE TABLE t (a INT, b DOUBLE, c TEXT, d VECTOR)",
		"DROP TABLE t",
	}
	for _, src := range srcs {
		st1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text := Render(st1)
		st2, err := Parse(text)
		if err != nil {
			t.Fatalf("Render(%q) = %q does not re-parse: %v", src, text, err)
		}
		if Render(st2) != text {
			t.Fatalf("render not fixed-point: %q -> %q vs %q", src, text, Render(st2))
		}
	}
	// Float literals keep full precision and stay float-typed through a
	// render/parse cycle.
	st, _ := Parse("INSERT INTO t VALUES (2.0, 0.1)")
	st2, err := Parse(Render(st))
	if err != nil {
		t.Fatal(err)
	}
	row := st2.(*Insert).Rows[0]
	if row[0].Value.Type != table.Float64 || row[0].Value.Float != 2.0 {
		t.Fatalf("2.0 round-tripped to %+v", row[0].Value)
	}
	if row[1].Value.Float != 0.1 {
		t.Fatalf("0.1 round-tripped to %+v", row[1].Value)
	}
	// DISTANCE's vector keeps every float32 bit.
	q := []float32{0.1, -3.4028235e38, 1e-45, 16777217}
	st, _ = Parse(Render(&Select{Items: []SelectItem{{Distance: &DistanceExpr{Col: "f", Vec: q}}}, From: "t", Limit: -1}))
	got := st.(*Select).Items[0].Distance.Vec
	for i := range q {
		if got[i] != q[i] {
			t.Fatalf("DISTANCE element %d round-tripped to %v, want %v", i, got[i], q[i])
		}
	}
	st, _ = Parse("INSERT INTO t VALUES (2.0, 0.1)")
	if !strings.Contains(Render(st), "2.0") {
		t.Fatalf("render = %q", Render(st))
	}
}
