package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of the benchmark; BENCHMARK.json carries the
// same table for the driver and a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // relative worsening that counts as a regression; end-to-end only
}

// endToEnd is what a client of the server sees. failed_frac is not listed:
// it is 0 on a healthy run and travels as attempted/failed beside the
// metrics; any failure makes the command exit non-zero.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports, outside in. Times are medians
// per request from the traced single-client pass; counts are deltas of the
// engines' counters around an untraced two-client phase, per operation.
var perLayer = []metricDef{
	{name: "wire_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "http_rejected", unit: "count", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "engine.self_ms", unit: "ms", better: "lower"},
	{name: "engine.snapshot_reads_per_op", unit: "1/op", better: "lower"},
	{name: "wal.appends_per_insert", unit: "1/op", better: "lower"},
	{name: "wal.syncs_per_insert", unit: "1/op", better: "lower"},
	{name: "wal.group_commits_per_insert", unit: "1/op", better: "higher"},
	{name: "wal.bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "exec.self_ms", unit: "ms", better: "lower"},
	{name: "storage.scan_ms", unit: "ms", better: "lower"},
	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.evictions_per_op", unit: "1/op", better: "lower"},
	{name: "storage.disk_reads_per_op", unit: "1/op", better: "lower"},
	{name: "udf.self_ms", unit: "ms", better: "lower"},
	{name: "udf.batches_per_op", unit: "1/op", better: "lower"},
	{name: "udf.model_calls_per_op", unit: "1/op", better: "lower"},
	{name: "udf.pipeline_fills_per_op", unit: "1/op", better: "higher"},
	{name: "udf.pipeline_stalls_per_op", unit: "1/op", better: "lower"},
	{name: "udf.coalesced_calls_per_op", unit: "1/op", better: "higher"},
	{name: "cache.probe_us", unit: "us", better: "lower"},
	{name: "cache.hits_per_op", unit: "1/op", better: "higher"},
	{name: "cache.misses_per_op", unit: "1/op", better: "lower"},
	{name: "cache.shared_per_op", unit: "1/op", better: "higher"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "nn.forward_ms", unit: "ms", better: "lower"},
	{name: "nn.mflop_per_op", unit: "MFLOP/op", better: "lower"},
	{name: "router.self_ms", unit: "ms", better: "lower"},
	{name: "router.replica_read_share", unit: "ratio", better: "higher"},
	{name: "router.lag_csn", unit: "csn", better: "lower"},
	{name: "router.lagged", unit: "count", better: "lower"},
	{name: "shard.self_ms", unit: "ms", better: "lower"},
	{name: "shard.pinned_per_op", unit: "1/op", better: "higher"},
	{name: "shard.scatter_per_op", unit: "1/op", better: "lower"},
	{name: "residual_frac", unit: "ratio", better: "lower"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, as written to -out and read by -compare.
// Metrics holds the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.
type result struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Traced      bool                 `json:"traced"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Metrics     map[string]value     `json:"metrics"`
	Windows     map[string][]float64 `json:"windows,omitempty"`     // per end-to-end metric, the values its median was taken over
	Spread      map[string]float64   `json:"spread,omitempty"`      // (max-min)/median of Windows
	Diagnostics map[string]float64   `json:"diagnostics,omitempty"` // tails, per-kind medians, calibration: never gated
	Counts      map[string]int64     `json:"counts,omitempty"`      // totals of the measured phase; exact under -smoke
	Layers      map[string]float64   `json:"layer_share_of_p50,omitempty"`
	Noisy       bool                 `json:"noisy"`
	Failures    []string             `json:"failures,omitempty"`

	spans []span
}

// set records one metric under the unit its definition names.
func (res *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				res.Metrics[name] = value{v, m.unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " has no definition")
}

// setUps is how often the system is set up per untraced run; setup_s is the
// median.
const setUps = 3

// runWorkload sets the workload's system up, drives it, checks every
// answer, and tears it down again.
func runWorkload(sp *spec, cfg config) (*result, error) {
	res := &result{
		Workload: sp.name, Seed: cfg.seed, Traced: cfg.trace,
		Metrics: make(map[string]value), Diagnostics: make(map[string]float64), Counts: make(map[string]int64),
	}
	reps := calibReps
	if cfg.smoke {
		reps = 8
	}
	calibBefore := calibrate(reps)
	in, err := generate(sp, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", sp.name, err)
	}

	n := setUps
	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		tr = &tracer{origin: time.Now()}
		n, wrap = 1, tr.wrap
	} else if cfg.smoke {
		n = 1
	}
	warm := budget{ops: sp.warmup * len(sp.cycle)}
	if cfg.smoke {
		warm.ops = len(sp.cycle)
	}
	var r *runner
	var setups []float64
	for k := 0; k < n; k++ {
		if r != nil {
			if err := res.retire(r); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		inst, err := boot(sp, in, wrap)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		r = newRunner(sp, in, inst, cfg.smoke)
		r.drive(nClients, warm, nil, nil)
		setups = append(setups, time.Since(start).Seconds())
	}

	if cfg.trace {
		err = res.traced(r, tr, cfg)
	} else {
		res.untraced(r, setups, cfg)
	}
	if rerr := res.retire(r); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0

	calibAfter := calibrate(reps)
	res.Diagnostics["calib_ms_before"] = calibBefore
	res.Diagnostics["calib_ms_after"] = calibAfter
	res.Noisy = math.Abs(calibAfter-calibBefore) > 0.10*min(calibBefore, calibAfter)
	return res, nil
}

// retire tears r's system down and folds its operation counts into res.
func (res *result) retire(r *runner) error {
	res.Attempted, res.Failed = res.Attempted+r.attempted, res.Failed+r.failed
	res.Failures = append(res.Failures, r.failures...)
	r.closeClients()
	if err := r.inst.close(); err != nil {
		return fmt.Errorf("%s: tear-down: %w", r.sp.name, err)
	}
	return nil
}

// phase returns a timed budget, or under -smoke a counted one of the given
// number of cycles.
func (cfg config) phase(sp *spec, share float64, smokeCycles int) budget {
	if cfg.smoke {
		// At least 3 operations per client, so that every window has a sample.
		return budget{ops: max(smokeCycles*len(sp.cycle), 3)}
	}
	return budget{dur: time.Duration(share * float64(cfg.seconds) * float64(time.Second))}
}

// untraced is the measured run: two closed-loop clients for the whole
// budget, cut into nWindows equal windows.
func (res *result) untraced(r *runner, setups []float64, cfg config) {
	before := r.inst.counters()
	samples := r.drive(nClients, cfg.phase(r.sp, 1, 2), nil, nil)
	after := r.inst.counters()
	r.finalCount(0)

	ws := windows(samples)
	res.Windows = map[string][]float64{
		"throughput_ops_s": windowValues(ws, func(w window) float64 { return w.throughput }),
		"p50_ms":           windowValues(ws, func(w window) float64 { return w.p50 }),
		"setup_s":          setups,
	}
	res.Spread = make(map[string]float64)
	for _, m := range endToEnd {
		res.set(m.name, median(res.Windows[m.name]))
		res.Spread[m.name] = spread(res.Windows[m.name])
	}

	var lat []float64
	byKind := make(map[string][]float64)
	for _, s := range samples {
		if s.ok {
			lat = append(lat, s.ms())
			byKind[s.kind] = append(byKind[s.kind], s.ms())
		}
	}
	sort.Float64s(lat)
	d := res.Diagnostics
	d["samples"] = float64(len(lat))
	d["p95_ms"], d["p99_ms"], d["max_ms"] = percentile(lat, 95), percentile(lat, 99), percentile(lat, 100)
	for kind, v := range byKind {
		d["p50_ms."+kind] = median(v)
	}
	// How much of the model's work the two clients shared depends on how
	// their statements happened to overlap, so it explains a fast or slow
	// run and belongs with the diagnostics, not the counts.
	for short, name := range map[string]string{
		"model_calls_per_op":  "tensorbase_predict_udf_calls_total",
		"cache_shared_per_op": "tensorbase_cache_shared_total",
	} {
		d[short] = float64(after[name]-before[name]) / max(1, float64(len(lat)))
	}
	res.Counts["ops"] = int64(len(samples))
	for _, c := range r.clients {
		res.Counts["rows_inserted"] += c.acked
	}
	for short, name := range map[string]string{
		"wal_bytes": "tensorbase_wal_bytes_total", "wal_appends": "tensorbase_wal_appends_total",
		"shard_pinned": "tensorbase_shard_pinned_total", "shard_scatter": "tensorbase_shard_scatter_total",
		"snapshot_reads": "tensorbase_snapshot_reads_total",
	} {
		res.Counts[short] = after[name] - before[name]
	}
}

// traced is the run behind the per-layer metrics, in three phases over one
// set-up: two clients untraced (the counters), one client untraced (the
// baseline the tracing overhead is measured against), one client traced.
func (res *result) traced(r *runner, tr *tracer, cfg config) error {
	sp := r.sp
	before := r.inst.counters()
	loaded := r.drive(nClients, cfg.phase(sp, 0.3, 2), nil, nil)
	after := r.inst.counters()
	res.layerCounts(r, loaded, before, after)

	base := r.drive(1, cfg.phase(sp, 0.2, 1), nil, nil)
	pass := newTracedPass(r, tr)
	traced := r.drive(1, cfg.phase(sp, 0.5, 1), pass.header, pass.after)
	r.finalCount(pass.directRows)
	if len(pass.errs) > 0 {
		return fmt.Errorf("%s: traced pass: %s", sp.name, strings.Join(pass.errs, "; "))
	}

	sum := summarise(tr.spans)
	set := res.set
	set("wire_ms", sum.selfMS[layerWire])
	set("server.self_ms", sum.selfMS[layerServer])
	set("sql.parse_us", sum.parseUS)
	set("engine.self_ms", sum.selfMS[layerEngine])
	set("exec.self_ms", sum.selfMS[layerExec])
	set("storage.scan_ms", sum.selfMS[layerStorage])
	set("udf.self_ms", sum.selfMS[layerUDF])
	set("cache.probe_us", sum.selfMS[layerCache]*1000)
	set("nn.forward_ms", sum.selfMS[layerNN])
	set("router.self_ms", sum.selfMS[layerRouter])
	set("shard.self_ms", sum.selfMS[layerShard])
	set("residual_frac", sum.residual)
	// One closed-loop client: throughput is the reciprocal of mean latency.
	overhead := 0.0
	if b := meanOK(base); b > 0 {
		overhead = meanOK(traced)/b - 1
	}
	set("trace_overhead_frac", overhead)
	res.Layers = sum.sharesOfP50
	res.Diagnostics["traced_requests"] = float64(sum.requests)
	res.Diagnostics["traced_client_p50_ms"] = sum.clientP50
	res.spans = tr.spans
	return nil
}

// meanOK is the mean latency of the successful samples, in ms.
func meanOK(samples []sample) float64 {
	var sum float64
	var n int
	for _, s := range samples {
		if s.ok {
			sum += s.ms()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layerCounts turns the counter deltas around the loaded phase into the
// per-operation counts of each layer.
func (res *result) layerCounts(r *runner, samples []sample, before, after map[string]int64) {
	d := func(name string) float64 { return float64(after["tensorbase_"+name] - before["tensorbase_"+name]) }
	var ops, inserts float64
	for _, s := range samples {
		if s.ok {
			ops++
			if s.kind == opInsert8 || s.kind == opInsert1 {
				inserts++
			}
		}
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	set := res.set

	var rejected float64
	for name, v := range after {
		if strings.HasPrefix(name, "tensorbase_http_rejected_total") || name == "tensorbase_http_sessions_rejected_total" {
			rejected += float64(v - before[name])
		}
	}
	set("http_rejected", rejected)
	set("engine.snapshot_reads_per_op", per(d("snapshot_reads_total"), ops))

	set("wal.appends_per_insert", per(d("wal_appends_total"), inserts))
	set("wal.syncs_per_insert", per(d("wal_fsyncs_total"), inserts))
	set("wal.group_commits_per_insert", per(d("wal_fsync_waits_total"), inserts))
	var userBytes float64
	for _, c := range r.clients {
		userBytes += float64(c.acked) * float64(r.sp.userBytes())
	}
	set("wal.bytes_per_user_byte", per(d("wal_bytes_total"), userBytes))

	hits, misses := d("pool_hits_total"), d("pool_misses_total")
	set("storage.pool_hit_ratio", per(hits, hits+misses))
	set("storage.evictions_per_op", per(d("pool_evictions_total"), ops))
	set("storage.disk_reads_per_op", per(d("disk_reads_total"), ops))

	set("udf.batches_per_op", per(d("predict_batches_total"), ops))
	set("udf.model_calls_per_op", per(d("predict_udf_calls_total"), ops))
	set("udf.pipeline_fills_per_op", per(d("pipeline_fills_total"), ops))
	set("udf.pipeline_stalls_per_op", per(d("pipeline_stalls_total"), ops))
	set("udf.coalesced_calls_per_op", per(d("coalesce_multi_total"), ops))

	ch, cm, cs := d("cache_hits_total"), d("cache_misses_total"), d("cache_shared_total")
	set("cache.hits_per_op", per(ch, ops))
	set("cache.misses_per_op", per(cm, ops))
	set("cache.shared_per_op", per(cs, ops))
	set("cache.hit_ratio", per(ch+cs, ch+cm+cs))

	// Rows the model ran over: with a result cache, the rows that missed;
	// without one, every row a PREDICT returned.
	modelRows := cm
	if !r.sp.engine.ResultCache {
		modelRows = 0
		for _, s := range samples {
			if s.ok {
				modelRows += float64(predictedRows(r.sp, s.kind))
			}
		}
	}
	set("nn.mflop_per_op", per(modelRows*r.sp.flopsPerRow(), ops)/1e6)

	var routed, onReplica float64
	for node, n := range r.byNode {
		routed += float64(n)
		if node != "primary" {
			onReplica += float64(n)
		}
	}
	set("router.replica_read_share", per(onReplica, routed))
	set("router.lag_csn", per(float64(r.lagSum.Load()), float64(r.lagN.Load())))
	set("router.lagged", d("router_lagged_total"))

	set("shard.pinned_per_op", per(d("shard_pinned_total"), ops))
	set("shard.scatter_per_op", per(d("shard_scatter_total"), ops))
}

// predictedRows is the number of rows one operation of this kind sends
// through PREDICT (seeded rows only; replica_read's inserted rows add a
// fraction of a percent and are left out).
func predictedRows(sp *spec, kind string) int {
	switch kind {
	case opPredictAll:
		return sp.rows
	case opPredictLow:
		return lowRows
	case opPinned:
		return 1
	case opScatter:
		// PREDICT sits below ORDER BY and LIMIT in the plan, so every shard
		// predicts all of its rows before the top scatterRows are kept.
		return sp.rows
	}
	return 0
}
