package sql

import (
	"testing"

	"tensorbase/internal/table"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return sel
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE txns (id INT, amount DOUBLE, who TEXT, features VECTOR);")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "txns" || len(ct.Cols) != 4 {
		t.Fatalf("%+v", ct)
	}
	want := []table.ColType{table.Int64, table.Float64, table.Text, table.FloatVec}
	for i, w := range want {
		if ct.Cols[i].Type != w {
			t.Fatalf("col %d type %v, want %v", i, ct.Cols[i].Type, w)
		}
	}
}

func TestParseCreateTableTypeAliases(t *testing.T) {
	st, err := Parse("create table x (a integer, b float, c varchar)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Cols[0].Type != table.Int64 || ct.Cols[1].Type != table.Float64 || ct.Cols[2].Type != table.Text {
		t.Fatalf("%+v", ct.Cols)
	}
}

func TestParseCreateTableErrors(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t (a INT",
		"CREATE t (a INT)",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO txns VALUES (1, 9.5, 'alice', [1.5, 2, 3]), (2, -1.25, 'it''s bob', [])")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "txns" || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	r0 := ins.Rows[0]
	if r0[0].Value.Int != 1 || r0[1].Value.Float != 9.5 || r0[0].Value.Type != table.Int64 {
		t.Fatalf("row0 = %+v", r0)
	}
	if r0[2].Value.Str != "alice" {
		t.Fatalf("string = %q", r0[2].Value.Str)
	}
	vec := r0[3].Value.Vec
	if len(vec) != 3 || vec[0] != 1.5 || vec[2] != 3 {
		t.Fatalf("vector = %v", vec)
	}
	if ins.Rows[1][2].Value.Str != "it's bob" {
		t.Fatalf("escaped string = %q", ins.Rows[1][2].Value.Str)
	}
	if len(ins.Rows[1][3].Value.Vec) != 0 {
		t.Fatal("empty vector should parse")
	}
	if ins.Rows[1][1].Value.Float != -1.25 {
		t.Fatalf("negative float = %v", ins.Rows[1][1].Value.Float)
	}
}

func TestParseSelectBasics(t *testing.T) {
	sel := parseSelect(t, "SELECT id, amount FROM txns WHERE amount > 100 LIMIT 10")
	if len(sel.Items) != 2 || sel.Items[0].Col != "id" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if sel.From != "txns" {
		t.Fatalf("from = %q", sel.From)
	}
	if sel.Where == nil || sel.Where.Op != ">" || sel.Where.Lit.Value.Int != 100 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Limit != 10 {
		t.Fatalf("limit = %d", sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("items = %+v", sel.Items)
	}
	if sel.Where != nil || sel.Limit != -1 {
		t.Fatalf("%+v", sel)
	}
}

func TestParseSelectPredict(t *testing.T) {
	sel := parseSelect(t, "SELECT id, PREDICT(Fraud-FC-256, features) FROM txns WHERE amount >= 10.5")
	if sel.Items[1].Predict == nil {
		t.Fatalf("items = %+v", sel.Items)
	}
	p := sel.Items[1].Predict
	if p.Model != "Fraud-FC-256" || p.FeatureCol != "features" {
		t.Fatalf("predict = %+v", p)
	}
	if sel.Where.Lit.Value.Type != table.Float64 || sel.Where.Lit.Value.Float != 10.5 {
		t.Fatalf("where literal = %+v", sel.Where.Lit)
	}
}

func TestParseSelectPredictOptions(t *testing.T) {
	sel := parseSelect(t, "SELECT id, PREDICT(Fraud-FC-256, features) OPTIONS (quantized) FROM txns")
	p := sel.Items[1].Predict
	if p == nil || !p.Quantized {
		t.Fatalf("predict = %+v", p)
	}
	if sel.From != "txns" {
		t.Fatalf("from = %q", sel.From)
	}
	// Without the clause the flag stays off; case-insensitive when present.
	if parseSelect(t, "SELECT PREDICT(m, f) FROM t").Items[0].Predict.Quantized {
		t.Fatal("Quantized must default to false")
	}
	if !parseSelect(t, "SELECT PREDICT(m, f) options (QUANTIZED) FROM t").Items[0].Predict.Quantized {
		t.Fatal("OPTIONS must parse case-insensitively")
	}
	if _, err := Parse("SELECT PREDICT(m, f) OPTIONS (turbo) FROM t"); err == nil {
		t.Fatal("unknown option must be rejected")
	}
	if _, err := Parse("SELECT PREDICT(m, f) OPTIONS () FROM t"); err == nil {
		t.Fatal("empty OPTIONS must be rejected")
	}
}

func TestParseSelectDistance(t *testing.T) {
	sel := parseSelect(t, "SELECT id, distance(f, [1, -2.5, 3e-2]) FROM t ORDER BY distance LIMIT 5")
	d := sel.Items[1].Distance
	if d == nil || d.Col != "f" || len(d.Vec) != 3 || d.Vec[1] != -2.5 || d.Vec[2] != float32(3e-2) {
		t.Fatalf("distance = %+v", d)
	}
	if sel.OrderBy != "distance" || sel.Limit != 5 {
		t.Fatalf("%+v", sel)
	}
	// A column named distance stays a column.
	if sel := parseSelect(t, "SELECT distance FROM t"); sel.Items[0].Col != "distance" {
		t.Fatalf("items = %+v", sel.Items)
	}
	for _, bad := range []string{
		"SELECT DISTANCE(f, []) FROM t",
		"SELECT DISTANCE(f, 3) FROM t",
		"SELECT DISTANCE(f) FROM t",
		"SELECT DISTANCE([1], f) FROM t",
		"SELECT DISTANCE(f, [1] FROM t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseSelectCaseInsensitiveKeywords(t *testing.T) {
	sel := parseSelect(t, "select id from t where id != 3 limit 1")
	if sel.Where.Op != "!=" {
		t.Fatalf("op = %q", sel.Where.Op)
	}
}

func TestParseOperators(t *testing.T) {
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		sel := parseSelect(t, "SELECT a FROM t WHERE a "+op+" 1")
		if sel.Where.Op != op {
			t.Fatalf("op = %q, want %q", sel.Where.Op, op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"TRUNCATE TABLE t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ~ 1",
		"SELECT a FROM t LIMIT x",
		"SELECT PREDICT(m) FROM t",
		"SELECT PREDICT(m, c FROM t",
		"INSERT INTO t VALUES (1", // unclosed
		"INSERT INTO t VALUES ( 'unterminated )",
		"SELECT a FROM t extra",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestLexerStrings(t *testing.T) {
	toks, err := lexAll("'a''b' 'c'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "a'b" || toks[1].text != "c" {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := lexAll("SELECT @ FROM t"); err == nil {
		t.Fatal("garbage character must fail")
	}
}

func TestParseScientificNumbers(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1e3, 2.5E-2)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Rows[0][0].Value.Float != 1000 {
		t.Fatalf("1e3 = %v", ins.Rows[0][0].Value)
	}
	if ins.Rows[0][1].Value.Float != 0.025 {
		t.Fatalf("2.5E-2 = %v", ins.Rows[0][1].Value)
	}
}

func TestParseOrderBy(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t ORDER BY a DESC LIMIT 3")
	if sel.OrderBy != "a" || !sel.OrderDesc || sel.Limit != 3 {
		t.Fatalf("%+v", sel)
	}
	sel = parseSelect(t, "SELECT a FROM t ORDER BY a ASC")
	if sel.OrderBy != "a" || sel.OrderDesc {
		t.Fatalf("%+v", sel)
	}
	if _, err := Parse("SELECT a FROM t ORDER a"); err == nil {
		t.Fatal("ORDER without BY must fail")
	}
}

func TestParseDropTable(t *testing.T) {
	st, err := Parse("DROP TABLE txns")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DropTable).Name != "txns" {
		t.Fatalf("%+v", st)
	}
	if _, err := Parse("DROP txns"); err == nil {
		t.Fatal("DROP without TABLE must fail")
	}
}
