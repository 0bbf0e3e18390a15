package udf

// InferOp — the `PREDICT(model, features)` relational operator — as a staged
// serving pipeline (the Sec. 5 serving path):
//
//	child operator ──pull+decode──▶ [producer] ──chan──▶ [consumer: cache probe
//	                                                      → miss compaction
//	                                                      → model → scatter]
//
// Stage 1 (pipelined batching): when a compute token is available from the
// shared parallel.Budget, a producer goroutine pulls and decodes batch N+1
// from the child while the consumer runs the model over batch N, so storage
// I/O and tuple decode overlap model compute. With no token the operator
// degrades to the serial pull-then-apply path; output order and values are
// bit-identical either way.
//
// Stage 2 (cache-aware miss compaction): with a ResultCache attached, each
// batch first probes the ANN index per row. Misses are compacted into one
// dense tensor, the UDF runs once over the miss set only, predictions are
// scattered back into row order, and fresh results populate the cache. A
// batch of all hits skips the model entirely. Duplicate in-flight features
// collapse through the cache's single-flight protocol: this operator commits
// every flight it leads before waiting on flights led by others, which makes
// cross-query waits deadlock-free.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tensorbase/internal/cache"
	"tensorbase/internal/exec"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/parallel"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// InferStats accumulates serving-path counters. A zero value is ready to
// use; all fields are atomic so one sink can be shared across concurrent
// queries (the engine aggregates every PREDICT into one DB-level sink).
type InferStats struct {
	// Cache outcomes, per input row.
	Hits   atomic.Int64 // answered from the ANN cache
	Misses atomic.Int64 // ran the model (flight leaders)
	Shared atomic.Int64 // reused another request's in-flight result

	// Model invocations.
	UDFCalls atomic.Int64 // UDF batch invocations
	UDFRows  atomic.Int64 // rows actually sent to the model

	// Batch outcomes.
	Batches       atomic.Int64 // batches processed
	BatchesAllHit atomic.Int64 // batches that skipped the model entirely
	ColBatches    atomic.Int64 // batches decoded columnarly (no per-row copy)

	// Pipeline health: Fills counts batches the producer finished before
	// the consumer asked (pipeline full, compute-bound); Stalls counts
	// consumer waits on the producer (I/O-bound).
	PipelineFills  atomic.Int64
	PipelineStalls atomic.Int64

	// Panics counts model/UDF panics contained as query errors.
	Panics atomic.Int64
}

// AddTo adds this snapshot's counters into sink.
func (s *InferStats) AddTo(sink *InferStats) {
	if sink == nil {
		return
	}
	sink.Hits.Add(s.Hits.Load())
	sink.Misses.Add(s.Misses.Load())
	sink.Shared.Add(s.Shared.Load())
	sink.UDFCalls.Add(s.UDFCalls.Load())
	sink.UDFRows.Add(s.UDFRows.Load())
	sink.Batches.Add(s.Batches.Load())
	sink.BatchesAllHit.Add(s.BatchesAllHit.Load())
	sink.ColBatches.Add(s.ColBatches.Load())
	sink.PipelineFills.Add(s.PipelineFills.Load())
	sink.PipelineStalls.Add(s.PipelineStalls.Load())
	sink.Panics.Add(s.Panics.Load())
}

// InferOption configures an InferOp.
type InferOption func(*InferOp)

// WithCache attaches an ANN result cache: rows whose features fall within
// the cache's distance threshold reuse stored predictions instead of running
// the model, and fresh results are inserted on the way out.
func WithCache(rc *cache.ResultCache) InferOption {
	return func(o *InferOp) { o.cache = rc }
}

// WithPipeline enables pipelined batch production using a worker token from
// budget (nil means the process-wide parallel.Default()). If no token is
// free at Open, the operator runs serially.
func WithPipeline(budget *parallel.Budget) InferOption {
	return func(o *InferOp) {
		o.pipeline = true
		o.budget = budget
	}
}

// WithStats adds this operator's counters into sink when the operator
// closes.
func WithStats(sink *InferStats) InferOption {
	return func(o *InferOp) { o.sink = sink }
}

// WithCancel installs the query's cancellation token: the producer, the
// consumer's batch wait, the UDF invocation, and single-flight waits all
// observe it, so a cancelled PREDICT stops within one micro-batch.
func WithCancel(tok *lifecycle.Token) InferOption {
	return func(o *InferOp) { o.tok = tok }
}

// InferOp is a relational operator that runs a UDF over the FloatVec
// feature column of its input in micro-batches, emitting each input tuple
// extended with a prediction column. It is how `PREDICT(model, features)`
// executes inside a query plan. See the package comment above for the
// pipelined/cached execution strategy.
type InferOp struct {
	in      exec.Operator
	udf     UDF
	featIdx int
	batch   int
	schema  *table.Schema

	cache    *cache.ResultCache
	pipeline bool
	budget   *parallel.Budget
	colSrc   exec.ColBatcher // non-nil when the child can batch columnarly
	tok      *lifecycle.Token
	stats    InferStats  // per-operator counters (StageNote, tests)
	sink     *InferStats // optional shared sink, added on Close

	// Producer state (pipelined mode); nil channel means serial.
	batches chan *inferBatch
	quit    chan struct{}
	wg      sync.WaitGroup
	tokens  int  // tokens held against budget
	piped   bool // a producer ran this Open (sticky until reopen, for StageNote)

	cur    *inferBatch
	pos    int
	done   bool
	closed bool
}

// inferBatch is one decoded micro-batch flowing producer → consumer. After
// process(), preds holds all rows' predictions in one batch-sized backing
// array and predW their width; emitted rows carve disjoint subslices out of
// it, so the per-row path allocates only the output tuple.
type inferBatch struct {
	tuples []table.Tuple
	feats  []float32
	width  int
	err    error
	eof    bool

	preds []float32
	predW int
}

// NewInferOp wraps in with UDF inference over featCol, batching batch rows
// per UDF call. The output schema is the input schema plus a "prediction"
// FloatVec column.
func NewInferOp(in exec.Operator, u UDF, featCol string, batch int, opts ...InferOption) (*InferOp, error) {
	idx := in.Schema().ColIndex(featCol)
	if idx < 0 {
		return nil, fmt.Errorf("udf: unknown feature column %q", featCol)
	}
	if in.Schema().Cols[idx].Type != table.FloatVec {
		return nil, fmt.Errorf("udf: feature column %q is %v, want VECTOR", featCol, in.Schema().Cols[idx].Type)
	}
	if batch < 1 {
		return nil, fmt.Errorf("udf: batch size %d < 1", batch)
	}
	schema := in.Schema().Concat(table.MustSchema(table.Column{Name: "prediction", Type: table.FloatVec}))
	o := &InferOp{in: in, udf: u, featIdx: idx, batch: batch, schema: schema}
	for _, opt := range opts {
		opt(o)
	}
	return o, nil
}

// Schema implements exec.Operator.
func (o *InferOp) Schema() *table.Schema { return o.schema }

// SetCancel implements exec.Cancellable (equivalent to the WithCancel
// option) and forwards the token to the child operator.
func (o *InferOp) SetCancel(tok *lifecycle.Token) {
	o.tok = tok
	exec.SetCancel(o.in, tok)
}

// Pipelined reports whether this Open drew a worker token and ran a
// producer goroutine (false before Open, or when the compute budget had no
// free token). The flag survives Close so EXPLAIN ANALYZE, which profiles
// after the plan is drained, reports the mode that actually ran.
func (o *InferOp) Pipelined() bool { return o.piped }

// Stats returns this operator's own counters (independent of any sink).
func (o *InferOp) Stats() *InferStats { return &o.stats }

// Open implements exec.Operator.
func (o *InferOp) Open() error {
	o.cur = nil
	o.pos = 0
	o.done = false
	o.closed = false
	o.piped = false
	o.stats = InferStats{}
	if err := o.in.Open(); err != nil {
		return err
	}
	// Columnar fast path: a child that can decode straight into a batch's
	// contiguous feature buffer saves one pass and one copy per row. The
	// probe re-runs every Open, so a rewired child (e.g. wrapped by the
	// profiler's Instrumented operator) falls back to the row path.
	o.colSrc = nil
	if cs, ok := o.in.(exec.ColBatcher); ok {
		o.colSrc = cs
	}
	if o.pipeline {
		budget := o.budget
		if budget == nil {
			budget = parallel.Default()
		}
		if budget.TryAcquireUpTo(1) == 1 {
			o.tokens = 1
			o.piped = true
			o.budget = budget // release against the budget we drew from
			o.batches = make(chan *inferBatch, 1)
			o.quit = make(chan struct{})
			o.wg.Add(1)
			go o.produce()
		}
	}
	return nil
}

// produce is the pipeline's stage-1 goroutine: it pulls and decodes the next
// batch while the consumer computes over the previous one. It is the only
// goroutine touching o.in between Open and Close.
func (o *InferOp) produce() {
	defer o.wg.Done()
	for {
		b := o.pullSafe()
		select {
		case o.batches <- b:
		default:
			// Consumer still busy: the pipeline is full.
			o.stats.PipelineFills.Add(1)
			select {
			case o.batches <- b:
			case <-o.quit:
				return
			}
		}
		if b.eof || b.err != nil {
			return
		}
	}
}

// pullSafe is pull with panic containment: a panic while decoding the child
// stream (in the producer goroutine, where it would otherwise kill the
// process) comes back as the batch's error.
func (o *InferOp) pullSafe() (b *inferBatch) {
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			o.stats.Panics.Add(1)
			b = &inferBatch{err: fmt.Errorf("udf: batch producer: %w", perr)}
		}
	}()
	return o.pull()
}

// pull reads up to batch tuples from the child and flattens their feature
// vectors into one dense slice — columnarly (one bulk decode per batch) when
// the child supports it, row by row otherwise.
func (o *InferOp) pull() *inferBatch {
	if o.colSrc != nil {
		return o.pullColumnar()
	}
	b := &inferBatch{}
	for len(b.tuples) < o.batch {
		if err := o.tok.Err(); err != nil {
			b.err = err
			return b
		}
		t, ok, err := o.in.Next()
		if err != nil {
			b.err = err
			return b
		}
		if !ok {
			b.eof = true
			break
		}
		vec := t[o.featIdx].Vec
		if len(b.tuples) == 0 {
			b.width = len(vec)
			if cap(b.feats) == 0 {
				b.feats = make([]float32, 0, o.batch*b.width)
			}
		} else if len(vec) != b.width {
			b.err = fmt.Errorf("udf: ragged feature vectors (%d vs %d)", len(vec), b.width)
			return b
		}
		b.feats = append(b.feats, vec...)
		b.tuples = append(b.tuples, t)
	}
	return b
}

// pullColumnar fills a fresh ColBatch from the columnar child: the feature
// column of every record is decoded directly into the batch's contiguous
// buffer, which becomes b.feats — the input tensor's backing array — with no
// per-row copy. The batch is freshly allocated per call because emitted
// tuples alias its buffers.
func (o *InferOp) pullColumnar() *inferBatch {
	b := &inferBatch{}
	if err := o.tok.Err(); err != nil {
		b.err = err
		return b
	}
	cb, err := table.NewColBatch(o.in.Schema(), o.featIdx, o.batch)
	if err != nil {
		b.err = err
		return b
	}
	n, err := o.colSrc.NextColBatch(cb)
	if err != nil {
		b.err = err
		return b
	}
	if n < o.batch {
		b.eof = true
	}
	if n > 0 {
		o.stats.ColBatches.Add(1)
		b.tuples = cb.Tuples
		b.feats = cb.Feats
		b.width = cb.Width
	}
	return b
}

// nextBatch hands the consumer its next batch: from the producer channel in
// pipelined mode, or pulled inline.
func (o *InferOp) nextBatch() *inferBatch {
	if o.batches == nil {
		return o.pullSafe()
	}
	select {
	case b := <-o.batches:
		return b
	default:
		// Producer not ready: the consumer stalls on decode/I/O. A cancelled
		// query stops stalling immediately; the producer notices the token on
		// its next tuple and parks on the quit channel until Close.
		o.stats.PipelineStalls.Add(1)
		select {
		case b := <-o.batches:
			return b
		case <-o.tok.Done():
			return &inferBatch{err: o.tok.Cause()}
		}
	}
}

// applyUDF runs the model over rows×width features. A panic in the UDF (a
// malformed weight, a bug in a registered function) is contained here as a
// query error rather than killing the server; the cancellation token is
// forwarded to UDFs that support it.
func (o *InferOp) applyUDF(feats []float32, rows, width int) (out *tensor.Tensor, err error) {
	o.stats.UDFCalls.Add(1)
	o.stats.UDFRows.Add(int64(rows))
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			o.stats.Panics.Add(1)
			out, err = nil, fmt.Errorf("udf: %s: %w", o.udf.Name(), perr)
		}
	}()
	out, err = ApplyCancel(o.udf, o.tok, tensor.FromSlice(feats, rows, width))
	if err != nil {
		// UDFs that contain their own panics (ModelUDF, OperatorUDF) hand
		// the *PanicError back as an ordinary error; count it here so the
		// serving-path stats see every contained panic exactly once.
		var perr *lifecycle.PanicError
		if errors.As(err, &perr) {
			o.stats.Panics.Add(1)
		}
		return nil, err
	}
	if out.Dim(0) != rows {
		return nil, fmt.Errorf("udf: %s returned %d rows for %d inputs", o.udf.Name(), out.Dim(0), rows)
	}
	return out, nil
}

// invoke runs the model over rows×width features and returns the rows'
// predictions as one fresh backing array, plus the prediction width.
func (o *InferOp) invoke(feats []float32, rows, width int) ([]float32, int, error) {
	out, err := o.applyUDF(feats, rows, width)
	if err != nil {
		return nil, 0, err
	}
	return out.Data(), out.Len() / rows, nil
}

// process computes b.preds/b.predW for every row of the batch.
func (o *InferOp) process(b *inferBatch) error {
	rows := len(b.tuples)
	if rows == 0 {
		return nil
	}
	if err := o.tok.Err(); err != nil {
		return err
	}
	o.stats.Batches.Add(1)
	if o.cache == nil {
		// Emitted rows carve disjoint subslices out of the UDF's fresh
		// output.
		preds, predW, err := o.invoke(b.feats, rows, b.width)
		if err != nil {
			return err
		}
		b.preds = preds
		b.predW = predW
		return nil
	}
	return o.processCached(b)
}

// processCached is the stage-2 miss-compaction path; see the package
// comment.
func (o *InferOp) processCached(b *inferBatch) error {
	rows, w := len(b.tuples), b.width
	results := make([][]float32, rows)
	var (
		leaders   []int // row index per compacted miss row
		leaderFls []*cache.Flight
		joinRows  []int // rows waiting on someone else's flight
		joinFls   []*cache.Flight
		missFeats []float32
	)
	cancel := func(err error) {
		for _, fl := range leaderFls {
			fl.Cancel(err)
		}
	}
	for i := 0; i < rows; i++ {
		feat := b.feats[i*w : (i+1)*w]
		pred, ok, fl, err := o.cache.ProbeFlight(feat)
		if err != nil {
			cancel(err)
			return err
		}
		switch {
		case ok:
			results[i] = pred
			o.stats.Hits.Add(1)
		case fl.Leader():
			leaders = append(leaders, i)
			leaderFls = append(leaderFls, fl)
			missFeats = append(missFeats, feat...)
			o.stats.Misses.Add(1)
		default:
			joinRows = append(joinRows, i)
			joinFls = append(joinFls, fl)
		}
	}

	// Run the model once over the compacted miss set, scatter predictions
	// back into row order, and publish them (cache insert + flight commit).
	if len(leaders) > 0 {
		data, predW, err := o.invoke(missFeats, len(leaders), w)
		if err != nil {
			cancel(err)
			return err
		}
		for j, row := range leaders {
			p := data[j*predW : (j+1)*predW : (j+1)*predW]
			results[row] = p
			if cerr := leaderFls[j].Commit(b.feats[row*w:(row+1)*w], p); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
	} else if len(joinRows) == 0 {
		o.stats.BatchesAllHit.Add(1)
	}

	// Only after settling every flight we lead is it safe to wait on
	// flights led by other queries (deadlock rule, cache.Flight).
	var retryRows []int
	for k, fl := range joinFls {
		p, err := fl.WaitCancel(o.tok)
		if err != nil {
			if cerr := o.tok.Err(); cerr != nil {
				// Our own query was cancelled while waiting: abandon the
				// batch. The leader still settles the flight for others.
				return cerr
			}
			// The other query's model run failed (e.g. its memory budget);
			// fall back to computing these rows ourselves.
			retryRows = append(retryRows, joinRows[k])
			continue
		}
		results[joinRows[k]] = p
		o.stats.Shared.Add(1)
	}
	if len(retryRows) > 0 {
		feats := make([]float32, 0, len(retryRows)*w)
		for _, row := range retryRows {
			feats = append(feats, b.feats[row*w:(row+1)*w]...)
		}
		data, predW, err := o.invoke(feats, len(retryRows), w)
		if err != nil {
			return err
		}
		for j, row := range retryRows {
			p := data[j*predW : (j+1)*predW : (j+1)*predW]
			results[row] = p
			if err := o.cache.Insert(feats[j*w:(j+1)*w], p); err != nil {
				return err
			}
			o.stats.Misses.Add(1)
		}
	}

	// All rows resolved: verify a uniform prediction width and pack into
	// one backing array (cached rows are copied so emitted tuples never
	// alias cache-owned memory).
	predW := len(results[0])
	for i, p := range results {
		if len(p) != predW {
			return fmt.Errorf("udf: prediction width mismatch in batch (%d vs %d at row %d)", len(p), predW, i)
		}
	}
	backing := make([]float32, rows*predW)
	for i, p := range results {
		copy(backing[i*predW:(i+1)*predW], p)
	}
	b.preds = backing
	b.predW = predW
	return nil
}

// Next implements exec.Operator.
func (o *InferOp) Next() (table.Tuple, bool, error) {
	for {
		if o.cur != nil && o.pos < len(o.cur.tuples) {
			t := o.cur.tuples[o.pos]
			w := o.cur.predW
			pred := o.cur.preds[o.pos*w : (o.pos+1)*w : (o.pos+1)*w]
			o.pos++
			out := make(table.Tuple, 0, len(t)+1)
			out = append(out, t...)
			out = append(out, table.VecVal(pred))
			return out, true, nil
		}
		if o.done {
			return nil, false, nil
		}
		b := o.nextBatch()
		if b.err != nil {
			o.done = true
			return nil, false, b.err
		}
		if b.eof {
			o.done = true
		}
		if len(b.tuples) == 0 {
			o.cur = nil
			if o.done {
				return nil, false, nil
			}
			continue
		}
		if err := o.process(b); err != nil {
			o.done = true
			return nil, false, err
		}
		o.cur = b
		o.pos = 0
	}
}

// ReportStage implements exec.StageReporter: structured cache-probe
// outcomes for the profile span (hits/misses/shared per input row).
func (o *InferOp) ReportStage(s *exec.StageStat) {
	s.CacheHits = o.stats.Hits.Load()
	s.CacheMisses = o.stats.Misses.Load()
	s.CacheShared = o.stats.Shared.Load()
}

// StageNote implements exec.Noter: a one-line cache/pipeline summary for
// EXPLAIN ANALYZE.
func (o *InferOp) StageNote() string {
	h, m, s := o.stats.Hits.Load(), o.stats.Misses.Load(), o.stats.Shared.Load()
	mode := "serial"
	if o.Pipelined() {
		mode = fmt.Sprintf("pipelined fills=%d stalls=%d",
			o.stats.PipelineFills.Load(), o.stats.PipelineStalls.Load())
	}
	if o.cache == nil {
		return mode
	}
	return fmt.Sprintf("%s cache hits=%d misses=%d shared=%d model-batches=%d",
		mode, h, m, s, o.stats.UDFCalls.Load())
}

// Close implements exec.Operator.
func (o *InferOp) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	if o.batches != nil {
		close(o.quit)
		// Unblock a producer waiting to hand off a batch.
		select {
		case <-o.batches:
		default:
		}
		o.wg.Wait()
		o.batches = nil
		o.quit = nil
	}
	if o.tokens > 0 {
		o.budget.Release(o.tokens)
		o.tokens = 0
	}
	o.stats.AddTo(o.sink)
	o.cur = nil
	return o.in.Close()
}
