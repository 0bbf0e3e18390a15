package sql

import (
	"fmt"
	"strconv"
	"strings"

	"tensorbase/internal/table"
)

// Render turns a parsed statement back into SQL text: for the slow-query
// log, and for tools and tests that build statements as values. Rendering
// round-trips through Parse without changing meaning — in particular float
// literals render with full precision. AggExpr.As, which the parser never
// sets, is not rendered.
func Render(st Statement) string {
	var sb strings.Builder
	switch s := st.(type) {
	case *CreateTable:
		sb.WriteString("CREATE TABLE ")
		sb.WriteString(s.Name)
		sb.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
			sb.WriteByte(' ')
			sb.WriteString(typeName(c.Type))
		}
		sb.WriteByte(')')
	case *DropTable:
		sb.WriteString("DROP TABLE ")
		sb.WriteString(s.Name)
	case *Insert:
		sb.WriteString("INSERT INTO ")
		sb.WriteString(s.Table)
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, lit := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(RenderLiteral(lit))
			}
			sb.WriteByte(')')
		}
	case *Select:
		renderSelect(&sb, s)
	default:
		sb.WriteString(fmt.Sprintf("/* unrenderable %T */", st))
	}
	return sb.String()
}

func renderSelect(sb *strings.Builder, s *Select) {
	for i, cte := range s.With {
		if i == 0 {
			sb.WriteString("WITH ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(cte.Name)
		sb.WriteString(" AS (")
		renderSelect(sb, cte.Query)
		sb.WriteString(") ")
	}
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star:
			sb.WriteByte('*')
		case it.Predict != nil:
			sb.WriteString("PREDICT(")
			sb.WriteString(it.Predict.Model)
			sb.WriteString(", ")
			sb.WriteString(it.Predict.FeatureCol)
			sb.WriteByte(')')
			if it.Predict.Quantized {
				sb.WriteString(" OPTIONS (quantized)")
			}
		case it.Distance != nil:
			sb.WriteString("DISTANCE(")
			sb.WriteString(it.Distance.Col)
			sb.WriteString(", ")
			sb.WriteString(RenderLiteral(Literal{Value: table.VecVal(it.Distance.Vec)}))
			sb.WriteByte(')')
		case it.Agg != nil:
			sb.WriteString(it.Agg.Fn)
			sb.WriteByte('(')
			if it.Agg.Col == "" {
				sb.WriteByte('*')
			} else {
				sb.WriteString(it.Agg.Col)
			}
			sb.WriteByte(')')
		default:
			sb.WriteString(it.Col)
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.From)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.Col)
		sb.WriteByte(' ')
		sb.WriteString(s.Where.Op)
		sb.WriteByte(' ')
		sb.WriteString(RenderLiteral(s.Where.Lit))
	}
	if s.GroupBy != "" {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(s.GroupBy)
	}
	if s.OrderBy != "" {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(s.OrderBy)
		if s.OrderDesc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.Itoa(s.Limit))
	}
}

// RenderLiteral renders a literal so it parses back to the same value.
func RenderLiteral(l Literal) string {
	v := l.Value
	switch v.Type {
	case table.Int64:
		return strconv.FormatInt(v.Int, 10)
	case table.Float64:
		return floatText(v.Float, 64)
	case table.Text:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case table.FloatVec:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, f := range v.Vec {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(strconv.FormatFloat(float64(f), 'g', -1, 32))
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return "NULL"
	}
}

// floatText formats f with round-trip precision, forcing a float-shaped
// token (the parser types bare integers as INT).
func floatText(f float64, bits int) string {
	s := strconv.FormatFloat(f, 'g', -1, bits)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func typeName(t table.ColType) string {
	switch t {
	case table.Int64:
		return "INT"
	case table.Float64:
		return "DOUBLE"
	case table.Text:
		return "TEXT"
	case table.FloatVec:
		return "VECTOR"
	default:
		return "UNKNOWN"
	}
}
