package exec

import (
	"fmt"
	"sort"
	"strings"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/table"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate kinds.
const (
	Count AggKind = iota + 1
	Sum
	Avg
	Min
	Max
)

var aggKindNames = [...]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"}

// String returns the kind's SQL name (COUNT, SUM, ...).
func (k AggKind) String() string {
	if int(k) < len(aggKindNames) && aggKindNames[k] != "" {
		return aggKindNames[k]
	}
	return fmt.Sprintf("AggKind(%d)", uint8(k))
}

// AggSpec names one aggregate over an input column.
type AggSpec struct {
	Kind AggKind
	Col  string // ignored for Count
	As   string // output column name
}

// HashAggregate groups by key columns and computes aggregates per group.
// Groups are materialised in memory; output order follows the group keys
// (sorted) so results are deterministic.
type HashAggregate struct {
	in       Operator
	groupBy  []string
	specs    []AggSpec
	schema   *table.Schema
	groupIdx []int
	aggIdx   []int

	results []table.Tuple
	pos     int
	tok     *lifecycle.Token
}

type aggState struct {
	key    table.Tuple
	count  int64
	sums   []float64
	mins   []float64
	maxs   []float64
	inited bool
}

// NewHashAggregate returns an aggregation of in grouped by groupBy.
func NewHashAggregate(in Operator, groupBy []string, specs []AggSpec) (*HashAggregate, error) {
	inSchema := in.Schema()
	var cols []table.Column
	groupIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		idx := inSchema.ColIndex(g)
		if idx < 0 {
			return nil, fmt.Errorf("exec: aggregate: unknown group column %q", g)
		}
		groupIdx[i] = idx
		cols = append(cols, inSchema.Cols[idx])
	}
	aggIdx := make([]int, len(specs))
	for i, s := range specs {
		if s.As == "" {
			return nil, fmt.Errorf("exec: aggregate %d needs an output name", i)
		}
		switch s.Kind {
		case Count:
			aggIdx[i] = -1
			cols = append(cols, table.Column{Name: s.As, Type: table.Int64})
		case Sum, Avg, Min, Max:
			idx := inSchema.ColIndex(s.Col)
			if idx < 0 {
				return nil, fmt.Errorf("exec: aggregate: unknown column %q", s.Col)
			}
			ct := inSchema.Cols[idx].Type
			if ct != table.Float64 && ct != table.Int64 {
				return nil, fmt.Errorf("exec: %v over non-numeric column %q", s.Kind, s.Col)
			}
			aggIdx[i] = idx
			cols = append(cols, table.Column{Name: s.As, Type: table.Float64})
		default:
			return nil, fmt.Errorf("exec: unknown aggregate kind %d", s.Kind)
		}
	}
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{
		in: in, groupBy: groupBy, specs: specs,
		schema: schema, groupIdx: groupIdx, aggIdx: aggIdx,
	}, nil
}

// Schema implements Operator.
func (a *HashAggregate) Schema() *table.Schema { return a.schema }

// SetCancel implements Cancellable: the build loop in Open observes tok.
func (a *HashAggregate) SetCancel(tok *lifecycle.Token) { a.tok = tok }

// Open implements Operator: it consumes the whole input and builds groups.
func (a *HashAggregate) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	groups := make(map[string]*aggState)
	var order []string
	for {
		if err := a.tok.Err(); err != nil {
			return err
		}
		t, ok, err := a.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key := a.groupKey(t)
		st, ok := groups[key]
		if !ok {
			st = &aggState{
				key:  a.keyTuple(t),
				sums: make([]float64, len(a.specs)),
				mins: make([]float64, len(a.specs)),
				maxs: make([]float64, len(a.specs)),
			}
			groups[key] = st
			order = append(order, key)
		}
		a.accumulate(st, t)
	}
	sort.Strings(order)
	a.results = a.results[:0]
	for _, key := range order {
		a.results = append(a.results, a.finish(groups[key]))
	}
	a.pos = 0
	return nil
}

func (a *HashAggregate) groupKey(t table.Tuple) string {
	return groupKeyOf(t, a.groupIdx)
}

// groupKeyOf builds the canonical group-key string for the values of t at
// idx. MergeAggregate groups by the same encoding, so its output order
// matches this operator's.
func groupKeyOf(t table.Tuple, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&sb, "%v|", t[i])
	}
	return sb.String()
}

func (a *HashAggregate) keyTuple(t table.Tuple) table.Tuple {
	key := make(table.Tuple, len(a.groupIdx))
	for i, idx := range a.groupIdx {
		key[i] = t[idx]
	}
	return key
}

func (a *HashAggregate) accumulate(st *aggState, t table.Tuple) {
	st.count++
	for i, s := range a.specs {
		switch s.Kind {
		case Count:
			// count handled above
		case Sum, Avg, Min, Max:
			v := numeric(t[a.aggIdx[i]])
			st.sums[i] += v
			if !st.inited || v < st.mins[i] {
				st.mins[i] = v
			}
			if !st.inited || v > st.maxs[i] {
				st.maxs[i] = v
			}
		}
	}
	st.inited = true
}

func numeric(v table.Value) float64 {
	if v.Type == table.Int64 {
		return float64(v.Int)
	}
	return v.Float
}

func (a *HashAggregate) finish(st *aggState) table.Tuple {
	out := make(table.Tuple, 0, len(st.key)+len(a.specs))
	out = append(out, st.key...)
	for i, s := range a.specs {
		switch s.Kind {
		case Count:
			out = append(out, table.IntVal(st.count))
		case Sum:
			out = append(out, table.FloatVal(st.sums[i]))
		case Avg:
			out = append(out, table.FloatVal(st.sums[i]/float64(st.count)))
		case Min:
			out = append(out, table.FloatVal(st.mins[i]))
		case Max:
			out = append(out, table.FloatVal(st.maxs[i]))
		}
	}
	return out
}

// Next implements Operator.
func (a *HashAggregate) Next() (table.Tuple, bool, error) {
	if a.pos >= len(a.results) {
		return nil, false, nil
	}
	t := a.results[a.pos]
	a.pos++
	return t, true, nil
}

// Close implements Operator.
func (a *HashAggregate) Close() error {
	a.results = nil
	return a.in.Close()
}

// orderLess resolves an ORDER BY column in s and returns the less-function
// that Sort and OrderedMerge order by: the column's value, ascending
// unless desc. A vector column has no order and is refused.
func orderLess(s *table.Schema, col string, desc bool) (func(a, b table.Tuple) bool, error) {
	idx := s.ColIndex(col)
	if idx < 0 {
		return nil, fmt.Errorf("exec: sort: unknown column %q", col)
	}
	var less func(a, b table.Tuple) bool
	switch s.Cols[idx].Type {
	case table.Int64:
		less = func(a, b table.Tuple) bool { return a[idx].Int < b[idx].Int }
	case table.Float64:
		less = func(a, b table.Tuple) bool { return a[idx].Float < b[idx].Float }
	case table.FloatVec:
		return nil, fmt.Errorf("exec: cannot sort by vector column %q", col)
	default:
		less = func(a, b table.Tuple) bool { return a[idx].Str < b[idx].Str }
	}
	if desc {
		return func(a, b table.Tuple) bool { return less(b, a) }, nil
	}
	return less, nil
}
