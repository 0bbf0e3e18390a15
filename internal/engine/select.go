package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tensorbase/internal/exec"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/sql"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/udf"
)

// ExecProfiled parses and runs a SELECT with per-stage instrumentation
// (rows and wall time per operator, outermost first) — EXPLAIN ANALYZE.
func (db *DB) ExecProfiled(sqlText string) (*Result, []exec.StageStat, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := st.(*sql.Select); !ok {
		return nil, nil, fmt.Errorf("engine: ExecProfiled supports SELECT only, got %T", st)
	}
	return db.exec(context.Background(), sqlText, true)
}

// runSelect resolves a SELECT's source and runs the compiler over it. The
// source is a CTE from the WITH clause, materialised through a recursive
// runSelect into a memory scan, or else a snapshot heap scan (or key
// lookup).
//
// SELECT (including PREDICT) is the lock-free serving path: the statement
// holds no table lock, only the heap's read gate (admitting any number of
// readers; it blocks nothing but DROP's page reclamation), and scans
// against the committed-CSN snapshot pinned here — concurrent INSERTs
// commit freely and become visible to the NEXT statement, never mid-scan.
func (db *DB) runSelect(st *sql.Select, profile bool, tok *lifecycle.Token) (*Result, []exec.StageStat, error) {
	c := &compiler{tok: tok, pool: db.pool, predict: db.predictOp, profile: profile}
	if body, ok := st.CTEBody(); ok {
		inner, _, err := db.runSelect(body, false, tok)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: CTE %q: %w", st.From, err)
		}
		ms := exec.NewMemScan(inner.Schema, inner.Rows)
		ms.SetCancel(tok)
		return c.run(st, c.wrap("cte", ms))
	}
	te, err := db.resolveForRead(st.From)
	if err != nil {
		return nil, nil, err
	}
	defer te.Heap.EndRead()
	db.mSnapshotReads.Inc()
	snap := db.snapshotCSN()
	// `WHERE firstcol = k` reads the heap's key index instead of every
	// page. The filter still runs over the lookup's rows, so it stays the
	// one authority on the predicate; the stage keeps the name "scan"
	// because it is the same storage access layer.
	var src exec.Operator = exec.NewHeapScanAt(te.Heap, snap)
	if key, ok := indexKey(st, te.Heap.Schema()); ok {
		db.mIndexLookups.Inc()
		src = exec.NewHeapLookupAt(te.Heap, key, snap)
	}
	exec.SetCancel(src, tok)
	src = c.wrap("scan", src)
	if profile {
		// Surface observability warnings (e.g. a stale vector index over
		// this table) on the scan stage of the profile.
		for _, w := range db.staleVindexWarnings(st.From) {
			c.stages[0].AddNote(w)
		}
	}
	return c.run(st, src)
}

// RunMemSelect evaluates a SELECT over an in-memory row set — the shard
// coordinator's evaluator for a CTE outer query whose source rows were
// already gathered from the shards. Like every coordinator merge it
// compiles with no buffer pool (ORDER BY sorts in memory) and no PREDICT
// (inference needs a live engine).
func RunMemSelect(st *sql.Select, schema *table.Schema, rows []table.Tuple) (*Result, error) {
	res, _, err := (&compiler{}).run(st, exec.NewMemScan(schema, rows))
	return res, err
}

// SplitSelect returns the statement every shard runs and the merge that
// combines the shards' results at the coordinator. st reads a base table.
//
// A scan pushes st down whole: each shard returns its local top-n, and the
// merge — an ordered merge under ORDER BY, else shard-order concatenation —
// re-applies the LIMIT. An aggregate pushes partials: COUNT/SUM/MIN/MAX as
// they are, AVG as SUM+COUNT, each distinct partial once. The merge combines
// them by group, then runs the query's projection, ORDER BY and LIMIT.
func SplitSelect(st *sql.Select) (shard *sql.Select, merge func([]*Result) (*Result, error), err error) {
	shard = st
	outer := &sql.Select{Items: []sql.SelectItem{{Star: true}}, Limit: st.Limit}
	combine := func(ins []exec.Operator) (exec.Operator, error) {
		if st.OrderBy != "" {
			return exec.NewOrderedMerge(ins, st.OrderBy, st.OrderDesc)
		}
		return exec.NewConcat(ins...)
	}
	if st.GroupBy != "" || st.HasAggregate() {
		groupBy, specs, err := aggregateSpecs(st)
		if err != nil {
			return nil, nil, err
		}
		shard = &sql.Select{From: st.From, Where: st.Where, GroupBy: st.GroupBy, Limit: -1}
		for _, g := range groupBy {
			shard.Items = append(shard.Items, sql.SelectItem{Col: g})
		}
		index := make(map[string]int)
		partial := func(fn, col string) int {
			agg := &sql.AggExpr{Fn: fn, Col: col}
			i, ok := index[agg.OutName()]
			if !ok {
				i = len(shard.Items)
				index[agg.OutName()] = i
				shard.Items = append(shard.Items, sql.SelectItem{Agg: agg})
			}
			return i
		}
		finals := make([]exec.FinalAgg, len(specs))
		for i, sp := range specs {
			finals[i] = exec.FinalAgg{Kind: sp.Kind, As: sp.As}
			switch sp.Kind {
			case exec.Count:
				finals[i].Arg = partial("COUNT", "")
			case exec.Avg:
				finals[i].Arg, finals[i].Count = partial("SUM", sp.Col), partial("COUNT", "")
			default:
				finals[i].Arg = partial(sp.Kind.String(), sp.Col)
			}
		}
		outer = &sql.Select{OrderBy: st.OrderBy, OrderDesc: st.OrderDesc, Limit: st.Limit}
		for _, item := range st.Items {
			col := item.Col
			if item.Agg != nil {
				col = item.Agg.OutName()
			}
			outer.Items = append(outer.Items, sql.SelectItem{Col: col})
		}
		combine = func(ins []exec.Operator) (exec.Operator, error) {
			return exec.NewMergeAggregate(ins, len(groupBy), finals)
		}
	}
	return shard, func(parts []*Result) (*Result, error) {
		ins := make([]exec.Operator, len(parts))
		for i, r := range parts {
			ins[i] = exec.NewMemScan(r.Schema, r.Rows)
		}
		src, err := combine(ins)
		if err != nil {
			return nil, err
		}
		res, _, err := (&compiler{}).run(outer, src)
		return res, err
	}, nil
}

// Statement shapes the SELECT compiler refuses.
var (
	errPredictWithAggregate = errors.New("engine: PREDICT cannot be combined with aggregates")
	errStarWithAggregate    = errors.New("engine: '*' cannot be combined with aggregates")
)

// compiler places the operators above a SELECT's source — filter →
// aggregate → PREDICT → project → sort → limit — and runs them. The
// statement checks live here alone. What differs between callers is
// input, not a branch on the caller.
type compiler struct {
	tok  *lifecycle.Token    // every cancellation-aware operator observes it
	pool *storage.BufferPool // ORDER BY spills through it; nil sorts in memory
	// predict builds the inference operator; nil refuses PREDICT.
	predict func(in exec.Operator, p *sql.PredictExpr, tok *lifecycle.Token) (exec.Operator, error)
	profile bool
	stages  []*exec.Instrumented // innermost first
}

// wrap instruments op as an EXPLAIN ANALYZE stage when profiling, and
// returns it untouched otherwise.
func (c *compiler) wrap(name string, op exec.Operator) exec.Operator {
	if !c.profile {
		return op
	}
	// Each stage samples buffer-pool fetch deltas across its Open..Close
	// window (subtree-inclusive, like wall time).
	ins := exec.Instrument(name, op).WithPool(c.pool)
	c.stages = append(c.stages, ins)
	return ins
}

// run compiles st over op, its source, and collects the result.
func (c *compiler) run(st *sql.Select, op exec.Operator) (*Result, []exec.StageStat, error) {
	if st.Where != nil {
		pred, err := compileWhere(op.Schema(), st.Where)
		if err != nil {
			return nil, nil, err
		}
		op = c.wrap("filter", exec.NewFilter(op, pred))
	}

	predict, err := predictItem(st)
	if err != nil {
		return nil, nil, err
	}

	// Aggregation: COUNT/SUM/AVG/MIN/MAX with an optional single GROUP BY
	// column. GROUP BY without aggregates is DISTINCT over the group column.
	if st.GroupBy != "" || st.HasAggregate() {
		groupBy, specs, err := aggregateSpecs(st)
		if err != nil {
			return nil, nil, err
		}
		agg, err := exec.NewHashAggregate(op, groupBy, specs)
		if err != nil {
			return nil, nil, err
		}
		agg.SetCancel(c.tok)
		op = c.wrap("aggregate", agg)
	}

	if predict != nil {
		if c.predict == nil {
			return nil, nil, fmt.Errorf("engine: PREDICT is not supported over gathered rows")
		}
		infer, err := c.predict(op, predict, c.tok)
		if err != nil {
			return nil, nil, err
		}
		op = c.wrap("predict", infer)
	}

	// Projection.
	var cols []string
	star := false
	for _, item := range st.Items {
		switch {
		case item.Star:
			star = true
		case item.Predict != nil:
			cols = append(cols, "prediction")
		case item.Agg != nil:
			cols = append(cols, item.Agg.OutName())
		default:
			cols = append(cols, item.Col)
		}
	}
	if star {
		if len(st.Items) != 1 {
			return nil, nil, fmt.Errorf("engine: '*' cannot be combined with other select items")
		}
	} else {
		proj, err := exec.NewProject(op, cols...)
		if err != nil {
			return nil, nil, err
		}
		op = c.wrap("project", proj)
	}

	if st.OrderBy != "" {
		// External merge sort: ORDER BY spills runs through the buffer
		// pool instead of materialising arbitrarily large inputs. Without
		// a pool the rows are already in memory, and so is the sort.
		var srt exec.Operator
		if c.pool != nil {
			srt, err = exec.NewExternalSort(op, st.OrderBy, st.OrderDesc, c.pool)
		} else {
			srt, err = exec.NewSort(op, st.OrderBy, st.OrderDesc)
		}
		if err != nil {
			return nil, nil, err
		}
		exec.SetCancel(srt, c.tok)
		op = c.wrap("sort", srt)
	}
	if st.Limit >= 0 {
		op = c.wrap("limit", exec.NewLimit(op, st.Limit))
	}

	rows, err := exec.Collect(op)
	if err != nil {
		return nil, nil, err
	}
	// Stages were appended innermost-first; report outermost-first.
	stages := c.stages
	for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
		stages[i], stages[j] = stages[j], stages[i]
	}
	return &Result{Schema: op.Schema(), Rows: rows}, exec.Profile(stages), nil
}

// predictItem returns st's PREDICT, or nil when it has none. At most one
// PREDICT per query; it appends a "prediction" column.
func predictItem(st *sql.Select) (*sql.PredictExpr, error) {
	var predict *sql.PredictExpr
	for _, item := range st.Items {
		if item.Predict != nil {
			if predict != nil {
				return nil, fmt.Errorf("engine: at most one PREDICT per query")
			}
			predict = item.Predict
		}
	}
	return predict, nil
}

// aggregateSpecs checks an aggregating SELECT's items and derives its
// group column and aggregate specs. The compiler and SplitSelect both call
// it, so a single node and a cluster refuse the same statements in the
// same words.
func aggregateSpecs(st *sql.Select) (groupBy []string, specs []exec.AggSpec, err error) {
	switch p, err := predictItem(st); {
	case err != nil:
		return nil, nil, err
	case p != nil:
		return nil, nil, errPredictWithAggregate
	}
	if st.GroupBy != "" {
		groupBy = []string{st.GroupBy}
	}
	for _, item := range st.Items {
		if item.Agg == nil {
			if item.Star {
				return nil, nil, errStarWithAggregate
			}
			if item.Col != st.GroupBy {
				return nil, nil, fmt.Errorf("engine: column %q must appear in GROUP BY", item.Col)
			}
			continue
		}
		kind, ok := aggKinds[item.Agg.Fn]
		if !ok {
			return nil, nil, fmt.Errorf("engine: unknown aggregate %q", item.Agg.Fn)
		}
		specs = append(specs, exec.AggSpec{Kind: kind, Col: item.Agg.Col, As: item.Agg.OutName()})
	}
	return groupBy, specs, nil
}

// predictOp builds the inference operator for one PREDICT over in.
func (db *DB) predictOp(in exec.Operator, p *sql.PredictExpr, tok *lifecycle.Token) (exec.Operator, error) {
	// Quantized serving: per-query OPTIONS (quantized) or the engine-wide
	// default routes to the model's int8-resident twin, with its own
	// cache key — the two modes never share results.
	quantized := p.Quantized || db.opts.PredictQuantized
	udfName, cacheKey := "adaptive:"+p.Model, p.Model
	if quantized {
		udfName, cacheKey = "quantized:"+p.Model, quantizedKey(p.Model)
	}
	u, ok := db.udfs.Lookup(udfName)
	if !ok {
		if quantized {
			if _, f32 := db.udfs.Lookup("adaptive:" + p.Model); f32 {
				return nil, fmt.Errorf("engine: model %q has no quantized twin", p.Model)
			}
		}
		return nil, fmt.Errorf("engine: model %q is not loaded", p.Model)
	}
	if quantized {
		db.mPredictQuantized.Inc()
	}
	// The producer draws a worker token from the process-wide compute
	// budget; with none free the operator runs serially.
	iopts := []udf.InferOption{udf.WithStats(&db.inferStats), udf.WithCancel(tok), udf.WithPipeline(nil)}
	if rc, ok := db.ResultCacheFor(cacheKey); ok {
		iopts = append(iopts, udf.WithCache(rc))
	}
	infer, err := udf.NewInferOp(in, u, p.FeatureCol, db.opts.InferBatch, iopts...)
	if err != nil {
		return nil, err
	}
	return infer, nil
}

// aggKinds maps parsed aggregate names to exec kinds.
var aggKinds = map[string]exec.AggKind{
	"COUNT": exec.Count,
	"SUM":   exec.Sum,
	"AVG":   exec.Avg,
	"MIN":   exec.Min,
	"MAX":   exec.Max,
}

// indexKey reports whether st pins an INT first column with `=` to a
// literal naming exactly one int64 — the predicate the heap's key index
// answers. An integral DOUBLE literal qualifies only below 2^53 in
// magnitude, where float64(v) == k holds for v == int64(k) alone.
func indexKey(st *sql.Select, schema *table.Schema) (int64, bool) {
	if schema.Len() == 0 || schema.Cols[0].Type != table.Int64 {
		return 0, false
	}
	lit, ok := st.KeyPin(schema.Cols[0].Name)
	if !ok {
		return 0, false
	}
	switch v := lit.Value; v.Type {
	case table.Int64:
		return v.Int, true
	case table.Float64:
		if v.Float == math.Trunc(v.Float) && math.Abs(v.Float) < 1<<53 {
			return int64(v.Float), true
		}
	}
	return 0, false
}

// compileWhere builds a predicate for `col op literal`.
func compileWhere(schema *table.Schema, c *sql.Condition) (exec.Predicate, error) {
	idx := schema.ColIndex(c.Col)
	if idx < 0 {
		return nil, fmt.Errorf("engine: unknown column %q", c.Col)
	}
	colType := schema.Cols[idx].Type
	lit, err := coerce(c.Lit.Value, colType)
	if err != nil {
		// Allow comparing INT columns with float literals and vice versa.
		if colType == table.Int64 && c.Lit.Value.Type == table.Float64 {
			lit = c.Lit.Value
		} else {
			return nil, fmt.Errorf("engine: WHERE %s: %w", c.Col, err)
		}
	}
	cmp, err := comparator(colType, lit)
	if err != nil {
		return nil, err
	}
	switch c.Op {
	case "=":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) == 0, nil }, nil
	case "!=":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) != 0, nil }, nil
	case "<":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) < 0, nil }, nil
	case "<=":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) <= 0, nil }, nil
	case ">":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) > 0, nil }, nil
	case ">=":
		return func(t table.Tuple) (bool, error) { return cmp(t[idx]) >= 0, nil }, nil
	default:
		return nil, fmt.Errorf("engine: unsupported operator %q", c.Op)
	}
}

// comparator returns a function comparing a column value against the
// literal: -1, 0, +1.
func comparator(colType table.ColType, lit table.Value) (func(table.Value) int, error) {
	switch colType {
	case table.Int64:
		switch lit.Type {
		case table.Int64:
			want := lit.Int
			return func(v table.Value) int { return cmpInt(v.Int, want) }, nil
		case table.Float64:
			want := lit.Float
			return func(v table.Value) int { return cmpFloat(float64(v.Int), want) }, nil
		}
	case table.Float64:
		want := lit.Float
		return func(v table.Value) int { return cmpFloat(v.Float, want) }, nil
	case table.Text:
		want := lit.Str
		return func(v table.Value) int {
			switch {
			case v.Str < want:
				return -1
			case v.Str > want:
				return 1
			default:
				return 0
			}
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compare column type %v", colType)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
