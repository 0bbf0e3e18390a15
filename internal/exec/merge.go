package exec

import (
	"fmt"
	"sort"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/table"
)

// Scatter-gather merge operators: a shard coordinator pushes a subplan to
// every shard, wraps each shard's partial result in a MemScan, and merges
// the partials through one of these — so a distributed plan stays an
// ordinary operator tree above the merge point.

// sameSchemas validates that every input produces an identical schema.
func sameSchemas(ins []Operator) (*table.Schema, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("exec: merge needs at least one input")
	}
	s := ins[0].Schema()
	for i, in := range ins[1:] {
		o := in.Schema()
		if len(o.Cols) != len(s.Cols) {
			return nil, fmt.Errorf("exec: merge input %d schema mismatch", i+1)
		}
		for j := range s.Cols {
			if o.Cols[j] != s.Cols[j] {
				return nil, fmt.Errorf("exec: merge input %d column %d mismatch: %+v vs %+v",
					i+1, j, o.Cols[j], s.Cols[j])
			}
		}
	}
	return s, nil
}

// Concat emits each input's tuples in input order — the merge for unordered
// scatter reads, where shard order is the deterministic tie-break.
type Concat struct {
	ins    []Operator
	schema *table.Schema
	cur    int
	tok    *lifecycle.Token
}

// NewConcat returns a concatenation of ins (all schemas must match).
func NewConcat(ins ...Operator) (*Concat, error) {
	s, err := sameSchemas(ins)
	if err != nil {
		return nil, err
	}
	return &Concat{ins: ins, schema: s}, nil
}

// Schema implements Operator.
func (c *Concat) Schema() *table.Schema { return c.schema }

// SetCancel implements Cancellable.
func (c *Concat) SetCancel(tok *lifecycle.Token) { c.tok = tok }

// Open implements Operator.
func (c *Concat) Open() error {
	for _, in := range c.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	c.cur = 0
	return nil
}

// Next implements Operator.
func (c *Concat) Next() (table.Tuple, bool, error) {
	for c.cur < len(c.ins) {
		if err := c.tok.Err(); err != nil {
			return nil, false, err
		}
		t, ok, err := c.ins[c.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		c.cur++
	}
	return nil, false, nil
}

// Close implements Operator.
func (c *Concat) Close() error {
	var first error
	for _, in := range c.ins {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OrderedMerge k-way-merges inputs that are each already sorted by col,
// preserving that order globally. Ties break toward the lower input index,
// so with a deterministic shard order the merged stream is deterministic.
// It is not a single node's stable sort: rows that tie on col come out in
// input (shard) order, not in the order one node would have scanned them.
type OrderedMerge struct {
	ins    []Operator
	schema *table.Schema
	less   func(a, b table.Tuple) bool
	heads  []table.Tuple
	live   []bool
	tok    *lifecycle.Token
}

// NewOrderedMerge returns an ordered merge of ins by col.
func NewOrderedMerge(ins []Operator, col string, desc bool) (*OrderedMerge, error) {
	s, err := sameSchemas(ins)
	if err != nil {
		return nil, err
	}
	less, err := orderLess(s, col, desc)
	if err != nil {
		return nil, err
	}
	return &OrderedMerge{ins: ins, schema: s, less: less}, nil
}

// Schema implements Operator.
func (m *OrderedMerge) Schema() *table.Schema { return m.schema }

// SetCancel implements Cancellable.
func (m *OrderedMerge) SetCancel(tok *lifecycle.Token) { m.tok = tok }

// Open implements Operator.
func (m *OrderedMerge) Open() error {
	m.heads = make([]table.Tuple, len(m.ins))
	m.live = make([]bool, len(m.ins))
	for i, in := range m.ins {
		if err := in.Open(); err != nil {
			return err
		}
		if err := m.advance(i); err != nil {
			return err
		}
	}
	return nil
}

func (m *OrderedMerge) advance(i int) error {
	t, ok, err := m.ins[i].Next()
	if err != nil {
		return err
	}
	m.heads[i], m.live[i] = t, ok
	return nil
}

// Next implements Operator.
func (m *OrderedMerge) Next() (table.Tuple, bool, error) {
	if err := m.tok.Err(); err != nil {
		return nil, false, err
	}
	best := -1
	for i := range m.ins {
		if !m.live[i] {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if m.less(m.heads[i], m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	t := m.heads[best]
	if err := m.advance(best); err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// Close implements Operator.
func (m *OrderedMerge) Close() error {
	var first error
	for _, in := range m.ins {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FinalAgg describes how one output aggregate combines across partial
// per-shard aggregate rows.
type FinalAgg struct {
	Kind AggKind // Count, Sum, Avg, Min, Max
	// Arg indexes the partial value column in the input schema (the
	// partial count for Count, the partial sum for Sum/Avg, the partial
	// extremum for Min/Max).
	Arg int
	// Count indexes the partial count column; used by Avg only
	// (final avg = Σ partial sums / Σ partial counts).
	Count int
	As    string
}

// MergeAggregate combines partial aggregates from shards into finals:
// counts and sums add, extrema take min/max, averages divide summed sums by
// summed counts. The first groupN input columns are the group key; output
// groups are sorted by the same canonical key encoding HashAggregate uses,
// so a scatter-merged aggregate is bit-identical to the single-node one.
type MergeAggregate struct {
	ins    []Operator
	groupN int
	finals []FinalAgg
	schema *table.Schema

	results []table.Tuple
	pos     int
	tok     *lifecycle.Token
}

type mergeState struct {
	key    table.Tuple
	counts []int64
	sums   []float64
	mins   []float64
	maxs   []float64
	inited bool
}

// NewMergeAggregate returns a merge of partial aggregates.
func NewMergeAggregate(ins []Operator, groupN int, finals []FinalAgg) (*MergeAggregate, error) {
	in, err := sameSchemas(ins)
	if err != nil {
		return nil, err
	}
	if groupN < 0 || groupN > len(in.Cols) {
		return nil, fmt.Errorf("exec: merge aggregate: bad group width %d", groupN)
	}
	cols := append([]table.Column(nil), in.Cols[:groupN]...)
	for _, f := range finals {
		switch f.Kind {
		case Count:
			cols = append(cols, table.Column{Name: f.As, Type: table.Int64})
		case Sum, Avg, Min, Max:
			cols = append(cols, table.Column{Name: f.As, Type: table.Float64})
		default:
			return nil, fmt.Errorf("exec: merge aggregate: unsupported kind %d", f.Kind)
		}
		if f.Arg < groupN || f.Arg >= len(in.Cols) {
			return nil, fmt.Errorf("exec: merge aggregate %q: bad arg index %d", f.As, f.Arg)
		}
		if f.Kind == Avg && (f.Count < groupN || f.Count >= len(in.Cols)) {
			return nil, fmt.Errorf("exec: merge aggregate %q: bad count index %d", f.As, f.Count)
		}
	}
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &MergeAggregate{ins: ins, groupN: groupN, finals: finals, schema: schema}, nil
}

// Schema implements Operator.
func (m *MergeAggregate) Schema() *table.Schema { return m.schema }

// SetCancel implements Cancellable.
func (m *MergeAggregate) SetCancel(tok *lifecycle.Token) { m.tok = tok }

// Open implements Operator: it drains every input and merges groups.
func (m *MergeAggregate) Open() error {
	groupIdx := make([]int, m.groupN)
	for i := range groupIdx {
		groupIdx[i] = i
	}
	groups := make(map[string]*mergeState)
	var order []string
	for _, in := range m.ins {
		if err := in.Open(); err != nil {
			return err
		}
		for {
			if err := m.tok.Err(); err != nil {
				return err
			}
			t, ok, err := in.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			key := groupKeyOf(t, groupIdx)
			st, ok := groups[key]
			if !ok {
				st = &mergeState{
					key:    append(table.Tuple(nil), t[:m.groupN]...),
					counts: make([]int64, len(m.finals)),
					sums:   make([]float64, len(m.finals)),
					mins:   make([]float64, len(m.finals)),
					maxs:   make([]float64, len(m.finals)),
				}
				groups[key] = st
				order = append(order, key)
			}
			for i, f := range m.finals {
				switch f.Kind {
				case Count:
					st.counts[i] += t[f.Arg].Int
				case Sum:
					st.sums[i] += t[f.Arg].Float
				case Avg:
					st.sums[i] += t[f.Arg].Float
					st.counts[i] += t[f.Count].Int
				case Min:
					if v := t[f.Arg].Float; !st.inited || v < st.mins[i] {
						st.mins[i] = v
					}
				case Max:
					if v := t[f.Arg].Float; !st.inited || v > st.maxs[i] {
						st.maxs[i] = v
					}
				}
			}
			st.inited = true
		}
	}
	sort.Strings(order)
	m.results = m.results[:0]
	for _, key := range order {
		st := groups[key]
		out := make(table.Tuple, 0, m.groupN+len(m.finals))
		out = append(out, st.key...)
		for i, f := range m.finals {
			switch f.Kind {
			case Count:
				out = append(out, table.IntVal(st.counts[i]))
			case Sum:
				out = append(out, table.FloatVal(st.sums[i]))
			case Avg:
				out = append(out, table.FloatVal(st.sums[i]/float64(st.counts[i])))
			case Min:
				out = append(out, table.FloatVal(st.mins[i]))
			case Max:
				out = append(out, table.FloatVal(st.maxs[i]))
			}
		}
		m.results = append(m.results, out)
	}
	m.pos = 0
	return nil
}

// Next implements Operator.
func (m *MergeAggregate) Next() (table.Tuple, bool, error) {
	if m.pos >= len(m.results) {
		return nil, false, nil
	}
	t := m.results[m.pos]
	m.pos++
	return t, true, nil
}

// Close implements Operator.
func (m *MergeAggregate) Close() error {
	m.results = nil
	var first error
	for _, in := range m.ins {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
