package sql

import (
	"fmt"
	"strconv"
	"strings"

	"tensorbase/internal/table"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is `CREATE TABLE name (col TYPE, ...)`.
type CreateTable struct {
	Name string
	Cols []table.Column
}

func (*CreateTable) stmt() {}

// Literal is a typed constant: number, string, or vector.
type Literal struct {
	Value table.Value
}

// Insert is `INSERT INTO name VALUES (lit, ...), ...`.
type Insert struct {
	Table string
	Rows  [][]Literal
}

func (*Insert) stmt() {}

// PredictExpr is `PREDICT(model, featureColumn) [OPTIONS (quantized)]`.
type PredictExpr struct {
	Model      string
	FeatureCol string
	// Quantized requests the model's int8-resident twin: weights stay
	// packed int8 and the forward pass runs the quantized GEMM.
	Quantized bool
}

// OutName is PREDICT's output column name.
func (*PredictExpr) OutName() string { return "prediction" }

// AggExpr is an aggregate call: COUNT(*), COUNT(col), SUM(col), AVG(col),
// MIN(col), or MAX(col).
type AggExpr struct {
	Fn  string // upper-cased: COUNT, SUM, AVG, MIN, MAX
	Col string // empty for COUNT(*)
	// As, if set, names the output column. The parser never sets it.
	As string
}

// OutName is the aggregate's output column name: As if set, else `count`
// for COUNT, otherwise `<fn>_<col>` (e.g. `sum_amount`).
func (a *AggExpr) OutName() string {
	if a.As != "" {
		return a.As
	}
	if a.Fn == "COUNT" {
		return "count"
	}
	return strings.ToLower(a.Fn) + "_" + a.Col
}

// DistanceExpr is `DISTANCE(col, [v, ...])`: the squared L2 distance
// between a VECTOR column and a non-empty constant vector, output as a
// FLOAT column named `distance`.
type DistanceExpr struct {
	Col string
	Vec []float32
}

// OutName is DISTANCE's output column name.
func (*DistanceExpr) OutName() string { return "distance" }

// SelectItem is one projection item: `*`, a column, an aggregate,
// PREDICT(...), or DISTANCE(...).
type SelectItem struct {
	Star     bool
	Col      string
	Predict  *PredictExpr
	Agg      *AggExpr
	Distance *DistanceExpr
}

// OutName is the item's output column name: the column for a stored
// column, the expression's OutName for PREDICT, DISTANCE or an aggregate,
// and "" for `*`. It is the one rule that names SELECT output columns.
func (it SelectItem) OutName() string {
	switch {
	case it.Predict != nil:
		return it.Predict.OutName()
	case it.Distance != nil:
		return it.Distance.OutName()
	case it.Agg != nil:
		return it.Agg.OutName()
	}
	return it.Col
}

// Condition is a simple comparison `col op literal`.
type Condition struct {
	Col string
	Op  string // = != < <= > >=
	Lit Literal
}

// CTE is one `name AS (SELECT ...)` binding in a WITH clause. The body may
// not itself carry a WITH clause (one level of nesting).
type CTE struct {
	Name  string
	Query *Select
}

// Select is `[WITH name AS (SELECT ...), ...] SELECT items FROM table
// [WHERE cond] [GROUP BY col] [ORDER BY col [DESC]] [LIMIT n]`.
type Select struct {
	With      []CTE
	Items     []SelectItem
	From      string
	Where     *Condition
	GroupBy   string // empty when absent
	OrderBy   string // empty when absent
	OrderDesc bool
	Limit     int // -1 when absent
}

func (*Select) stmt() {}

// DropTable is `DROP TABLE name`.
type DropTable struct {
	Name string
}

func (*DropTable) stmt() {}

// Parse parses one SQL statement (a trailing ';' is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// at reports whether the current token matches kind (and text, if given,
// case-insensitively).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a matching token or errors.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errf("expected %q, found %q", want, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokIdent, "CREATE"):
		return p.createTable()
	case p.at(tokIdent, "INSERT"):
		return p.insert()
	case p.at(tokIdent, "SELECT"):
		return p.selectStmt()
	case p.at(tokIdent, "WITH"):
		return p.withSelect()
	case p.at(tokPunct, "("):
		// A parenthesized statement: `(SELECT ...)`. Only reads make
		// sense wrapped — clients emit this form for subquery-shaped
		// tooling output.
		p.pos++
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		if _, ok := st.(*Select); !ok {
			return nil, p.errf("only SELECT may be parenthesized")
		}
		return st, nil
	case p.at(tokIdent, "DROP"):
		return p.dropTable()
	default:
		return nil, p.errf("expected CREATE, DROP, INSERT, SELECT or WITH, found %q", p.cur().text)
	}
}

// withSelect parses `WITH name AS (SELECT ...) [, ...] SELECT ...`.
func (p *parser) withSelect() (Statement, error) {
	p.pos++ // WITH
	var ctes []CTE
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "AS"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		if !p.at(tokIdent, "SELECT") {
			return nil, p.errf("CTE body must be a SELECT, found %q", p.cur().text)
		}
		body, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		ctes = append(ctes, CTE{Name: name.text, Query: body.(*Select)})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if !p.at(tokIdent, "SELECT") {
		return nil, p.errf("expected SELECT after WITH clause, found %q", p.cur().text)
	}
	st, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	sel := st.(*Select)
	sel.With = ctes
	return sel, nil
}

func (p *parser) createTable() (Statement, error) {
	p.pos++ // CREATE
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []table.Column
	for {
		cn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		tn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ct, err := colType(tn.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		cols = append(cols, table.Column{Name: cn.text, Type: ct})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name.text, Cols: cols}, nil
}

func colType(name string) (table.ColType, error) {
	switch strings.ToUpper(name) {
	case "INT", "BIGINT", "INTEGER":
		return table.Int64, nil
	case "DOUBLE", "FLOAT", "REAL":
		return table.Float64, nil
	case "TEXT", "VARCHAR", "STRING":
		return table.Text, nil
	case "VECTOR":
		return table.FloatVec, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", name)
	}
}

func (p *parser) insert() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokIdent, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Literal
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	return &Insert{Table: name.text, Rows: rows}, nil
}

// literal parses a number, string, or vector `[f, f, ...]`.
func (p *parser) literal() (Literal, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Literal{}, p.errf("bad number %q", t.text)
			}
			return Literal{Value: table.FloatVal(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Literal{}, p.errf("bad integer %q", t.text)
		}
		return Literal{Value: table.IntVal(i)}, nil

	case t.kind == tokString:
		p.pos++
		return Literal{Value: table.TextVal(t.text)}, nil

	case t.kind == tokPunct && t.text == "[":
		p.pos++
		var vec []float32
		if !p.at(tokPunct, "]") {
			for {
				n, err := p.expect(tokNumber, "")
				if err != nil {
					return Literal{}, err
				}
				f, err := strconv.ParseFloat(n.text, 32)
				if err != nil {
					return Literal{}, p.errf("bad vector element %q", n.text)
				}
				vec = append(vec, float32(f))
				if p.accept(tokPunct, ",") {
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokPunct, "]"); err != nil {
			return Literal{}, err
		}
		return Literal{Value: table.VecVal(vec)}, nil

	default:
		return Literal{}, p.errf("expected a literal, found %q", t.text)
	}
}

func (p *parser) selectStmt() (Statement, error) {
	p.pos++ // SELECT
	sel := &Select{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokIdent, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	sel.From = from.text
	if p.accept(tokIdent, "WHERE") {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		op, err := p.expect(tokOp, "")
		if err != nil {
			return nil, err
		}
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		sel.Where = &Condition{Col: col.text, Op: op.text, Lit: lit}
	}
	if p.accept(tokIdent, "GROUP") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		sel.GroupBy = col.text
	}
	if p.accept(tokIdent, "ORDER") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col.text
		if p.accept(tokIdent, "DESC") {
			sel.OrderDesc = true
		} else {
			p.accept(tokIdent, "ASC")
		}
	}
	if p.accept(tokIdent, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil || limit < 0 {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		sel.Limit = limit
	}
	return sel, nil
}

func (p *parser) dropTable() (Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name.text}, nil
}

var aggFns = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokPunct, "*") {
		return SelectItem{Star: true}, nil
	}
	id, err := p.expect(tokIdent, "")
	if err != nil {
		return SelectItem{}, err
	}
	if fn := strings.ToUpper(id.text); aggFns[fn] && p.at(tokPunct, "(") {
		p.pos++
		if fn == "COUNT" && p.accept(tokPunct, "*") {
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: &AggExpr{Fn: fn}}, nil
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Agg: &AggExpr{Fn: fn, Col: col.text}}, nil
	}
	if strings.EqualFold(id.text, "PREDICT") && p.at(tokPunct, "(") {
		p.pos++
		model, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokPunct, ","); err != nil {
			return SelectItem{}, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return SelectItem{}, err
		}
		pe := &PredictExpr{Model: model.text, FeatureCol: col.text}
		if p.accept(tokIdent, "OPTIONS") {
			if _, err := p.expect(tokPunct, "("); err != nil {
				return SelectItem{}, err
			}
			for {
				opt, err := p.expect(tokIdent, "")
				if err != nil {
					return SelectItem{}, err
				}
				if !strings.EqualFold(opt.text, "quantized") {
					return SelectItem{}, p.errf("unknown PREDICT option %q", opt.text)
				}
				pe.Quantized = true
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return SelectItem{}, err
			}
		}
		return SelectItem{Predict: pe}, nil
	}
	if strings.EqualFold(id.text, "DISTANCE") && p.at(tokPunct, "(") {
		p.pos++
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokPunct, ","); err != nil {
			return SelectItem{}, err
		}
		if !p.at(tokPunct, "[") {
			return SelectItem{}, p.errf("DISTANCE needs a vector literal, found %q", p.cur().text)
		}
		lit, err := p.literal()
		if err != nil {
			return SelectItem{}, err
		}
		if len(lit.Value.Vec) == 0 {
			return SelectItem{}, p.errf("DISTANCE needs a non-empty vector")
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Distance: &DistanceExpr{Col: col.text, Vec: lit.Value.Vec}}, nil
	}
	return SelectItem{Col: id.text}, nil
}
