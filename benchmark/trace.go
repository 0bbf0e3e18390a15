package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/exec"
	"tensorbase/internal/shard"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
	"tensorbase/internal/udf"
)

// The layers spans are attributed to: this repository's packages, from the
// outside in. layerWire is what is left of the client's latency once the
// handler's time is taken out — loopback, net/http, and the client's own
// encoding and checking.
const (
	layerWire    = "wire"
	layerServer  = "server"
	layerRouter  = "router"
	layerShard   = "shard"
	layerSQL     = "sql"
	layerEngine  = "engine"
	layerExec    = "exec"
	layerStorage = "table+storage"
	layerUDF     = "udf"
	layerCache   = "cache+ann"
	layerNN      = "nn+tensor"
)

var layers = []string{
	layerWire, layerServer, layerRouter, layerShard, layerSQL, layerEngine,
	layerExec, layerStorage, layerUDF, layerCache, layerNN,
}

// spanHeaderName carries the index of the client's round-trip span to the
// handler wrapper, so the handler's span can name its parent.
const spanHeaderName = "X-Bench-Span"

// inferBatch is the engine's default PREDICT micro-batch, which the forward
// pass re-executed alone must reproduce.
const inferBatch = 256

// tracer keeps spans in memory until the benchmark ends. Every span is
// recorded by the harness around a call it makes itself.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) add(name, layer string, req, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Request: req, Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	return len(t.spans) - 1
}

// timed records a span around f.
func (t *tracer) timed(name, layer string, req, parent int, f func()) int {
	start := time.Now()
	f()
	return t.add(name, layer, req, parent, start, time.Now())
}

// wrap times the server's handler for requests that carry a span header;
// other requests (warm-up, untraced phases) pass straight through.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeaderName))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.mu.Lock()
		req := t.spans[parent].Request
		t.mu.Unlock()
		t.add("handler", layerServer, req, parent, start, time.Now())
	})
}

// tracedPass is the state of one traced phase: one client, each operation
// sent over HTTP and then taken apart by re-executing it layer by layer.
type tracedPass struct {
	r          *runner
	t          *tracer
	sess       *shard.Session
	udf        *udf.ModelUDF
	requests   int
	directRows int64 // rows written by re-executed INSERTs
	errs       []string
}

func newTracedPass(r *runner, t *tracer) *tracedPass {
	p := &tracedPass{r: r, t: t}
	if r.inst.cluster != nil {
		p.sess = r.inst.cluster.NewSession()
	}
	if r.in.model != nil {
		p.udf = udf.NewModelUDF(r.in.model, nil)
	}
	return p
}

// header opens the client's round-trip span before the request is sent; its
// interval is filled in by after, from the sample the driver measured.
func (p *tracedPass) header(c *client, i int) string {
	idx := p.t.add("http", layerWire, p.requests, -1, p.t.origin, p.t.origin)
	return strconv.Itoa(idx)
}

// after closes the round-trip span and re-executes the operation directly
// against each layer below the handler, recording the spans as descendants
// of the handler's.
func (p *tracedPass) after(c *client, i int, o op, s sample) {
	req := p.requests
	p.requests++
	p.t.mu.Lock()
	httpIdx, handlerIdx := -1, -1
	for k := len(p.t.spans) - 1; k >= 0 && p.t.spans[k].Request == req; k-- {
		switch p.t.spans[k].Name {
		case "http":
			httpIdx = k
			p.t.spans[k].Start = p.r.phaseStart.Add(s.start).Sub(p.t.origin)
			p.t.spans[k].End = p.r.phaseStart.Add(s.end).Sub(p.t.origin)
		case "handler":
			handlerIdx = k
		}
	}
	p.t.mu.Unlock()
	if !s.ok || httpIdx < 0 || handlerIdx < 0 {
		return
	}
	twin := directTwin(p.r.sp, p.r.in, o)
	var err error
	switch inst := p.r.inst; {
	case inst.cluster != nil:
		err = p.traceCluster(req, handlerIdx, twin)
	case inst.router != nil && len(twin.ids) == 0:
		err = p.traceRoute(req, handlerIdx, twin)
	default:
		err = p.traceEngine(req, handlerIdx, inst.db, twin, inst.router == nil)
	}
	if err != nil && len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf("traced op %d (%s): %v", i, o.kind, err))
	}
}

// traceEngine runs the statement straight against db (span "direct"), then
// parses it alone, and — with operators set, for a SELECT — runs it once
// more under EXPLAIN ANALYZE to lay the engine's own per-operator timings
// under the direct span as a chain, with the forward pass and the cache
// probes re-executed alone under the PREDICT operator.
func (p *tracedPass) traceEngine(req, parent int, db *engine.DB, o op, operators bool) error {
	ctx := context.Background()
	var res *engine.Result
	var err error
	direct := p.t.timed("direct", layerEngine, req, parent, func() { res, err = db.QueryContext(ctx, o.sql) })
	if err != nil {
		return err
	}
	p.directRows += int64(len(o.ids))
	p.t.timed("parse", layerSQL, req, direct, func() { _, err = sql.Parse(o.sql) })
	if err != nil || len(o.ids) > 0 || !operators {
		return err
	}
	start := time.Now()
	_, stages, err := db.ExecProfiled(o.sql)
	if err != nil {
		return err
	}
	up := direct
	for _, st := range stages {
		layer := layerExec
		switch st.Name {
		case "scan":
			layer = layerStorage
		case "predict":
			layer = layerUDF
		}
		up = p.t.add("op:"+st.Name, layer, req, up, start, start.Add(st.Elapsed))
		if st.Name == "predict" {
			if err := p.tracePredict(req, up, db, res.Rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracePredict repeats, outside the engine, what the PREDICT operator did
// for these result rows: per micro-batch, probe the model's result cache
// (when the engine has one) row by row, then run the model over the rows
// that missed, through the same udf.ModelUDF.Apply the operator calls.
func (p *tracedPass) tracePredict(req, parent int, db *engine.DB, rows []table.Tuple) error {
	sp, in := p.r.sp, p.r.in
	rc, cached := db.ResultCacheFor(sp.modelName())
	for lo := 0; lo < len(rows); lo += inferBatch {
		batch := rows[lo:min(lo+inferBatch, len(rows))]
		feats := make([][]float32, 0, len(batch))
		for _, row := range batch {
			feats = append(feats, in.features(sp, row[0].Int))
		}
		if cached {
			var err error
			misses := feats[:0:0]
			p.t.timed("probe", layerCache, req, parent, func() {
				for _, f := range feats {
					_, hit, e := rc.Lookup(f)
					if e != nil {
						err = e
					}
					if !hit {
						misses = append(misses, f)
					}
				}
			})
			if err != nil {
				return err
			}
			feats = misses
		}
		if len(feats) == 0 {
			continue
		}
		x := tensor.New(len(feats), sp.width)
		for k, f := range feats {
			copy(x.Row(k), f)
		}
		var err error
		p.t.timed("forward", layerNN, req, parent, func() { _, err = p.udf.Apply(x) })
		if err != nil {
			return err
		}
	}
	return nil
}

// traceRoute sends a read through the router (span "route") and then runs
// it on the node that answered, so that route minus node is the router's
// own time. A read that follows the session's own write carries the
// primary's committed CSN as its floor, as the server's session would.
func (p *tracedPass) traceRoute(req, parent int, o op) error {
	inst := p.r.inst
	ctx := context.Background()
	var floor uint64
	if o.kind == opReadOwn {
		floor = inst.db.CommittedCSN()
	}
	var node string
	var err error
	route := p.t.timed("route", layerRouter, req, parent, func() { _, node, err = inst.router.Route(ctx, o.sql, floor) })
	if err != nil {
		return err
	}
	db := inst.db
	for _, rep := range inst.replicas {
		if rep.Name() == node {
			db = rep.DB()
		}
	}
	p.t.timed("node:"+node, layerEngine, req, route, func() { _, err = db.QueryContext(ctx, o.sql) })
	return err
}

// traceCluster sends the statement through the coordinator (span
// "cluster"), then runs what the coordinator pushes down on the shards it
// went to — all at once, as a scatter does, so the union of those spans is
// the slowest shard's — and rebuilds the coordinator's ordered merge over
// their results.
func (p *tracedPass) traceCluster(req, parent int, o op) error {
	cl := p.r.inst.cluster
	ctx := context.Background()
	var err error
	top := p.t.timed("cluster", layerShard, req, parent, func() { _, err = cl.Exec(ctx, o.sql, p.sess) })
	if err != nil {
		return err
	}
	st, err := sql.Parse(o.sql)
	if err != nil {
		return err
	}
	pushed := sql.Render(st)
	nodes := cl.Nodes()
	targets := make([]int, 0, len(nodes))
	if o.kind == opPinned {
		targets = append(targets, shard.ShardOf(table.IntVal(o.key), len(nodes)))
	} else {
		for i := range nodes {
			targets = append(targets, i)
		}
	}
	results := make([]*engine.Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, i := range targets {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			db := nodes[i].(*shard.LocalNode).DB()
			p.t.timed("shard-"+strconv.Itoa(i), layerEngine, req, top, func() {
				results[k], errs[k] = db.QueryContext(ctx, pushed)
			})
		}(k, i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if o.kind != opScatter {
		return nil
	}
	p.t.timed("merge", layerExec, req, top, func() {
		ins := make([]exec.Operator, len(results))
		for k, r := range results {
			ins[k] = exec.NewMemScan(r.Schema, r.Rows)
		}
		var om *exec.OrderedMerge
		if om, err = exec.NewOrderedMerge(ins, "id", false); err == nil {
			_, err = exec.Collect(exec.NewLimit(om, scatterRows))
		}
	})
	return err
}

// layerSummary is the traced pass boiled down: per layer, the median over
// requests of the self time the layer's spans account for, and how much of
// the client's median latency the layers together explain.
type layerSummary struct {
	requests    int
	clientP50   float64            // ms, median round trip of the traced pass
	selfMS      map[string]float64 // layer → median per-request self time
	parseUS     float64            // median duration of sql.Parse alone
	residual    float64            // |clientP50 − Σ selfMS| / clientP50
	sharesOfP50 map[string]float64 // selfMS / clientP50
}

func summarise(spans []span) layerSummary {
	self := selfTimes(spans)
	perReq := make(map[int]map[string]float64)
	var http, parse []float64
	for i, s := range spans {
		m := perReq[s.Request]
		if m == nil {
			m = make(map[string]float64)
			perReq[s.Request] = m
		}
		m[s.Layer] += float64(self[i]) / float64(time.Millisecond)
		switch s.Name {
		case "http":
			http = append(http, float64(s.dur())/float64(time.Millisecond))
		case "parse":
			parse = append(parse, float64(s.dur())/float64(time.Microsecond))
		}
	}
	sum := layerSummary{
		requests: len(perReq), clientP50: median(http), parseUS: median(parse),
		selfMS: make(map[string]float64), sharesOfP50: make(map[string]float64),
	}
	var explained float64
	for _, layer := range layers {
		vals := make([]float64, 0, len(perReq))
		for _, m := range perReq {
			vals = append(vals, m[layer])
		}
		v := median(vals)
		sum.selfMS[layer] = v
		explained += v
	}
	if sum.clientP50 > 0 {
		for layer, v := range sum.selfMS {
			sum.sharesOfP50[layer] = v / sum.clientP50
		}
		sum.residual = math.Abs(sum.clientP50-explained) / sum.clientP50
	}
	return sum
}
