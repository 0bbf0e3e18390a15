package tensorbase_test

// testing.B counterparts of every paper artifact (run with
// `go test -bench=. -benchmem`):
//
//	Table 1  BenchmarkTable1FC/*          forward pass per FC model
//	Table 2  BenchmarkTable2Conv/*        forward pass per conv model
//	Fig. 2   BenchmarkFig2/*              serving paths, Fraud-FC-256
//	Fig. 3   BenchmarkFig3/*              serving paths, DeepBench-CONV1
//	Table 3  BenchmarkTable3/*            whole-tensor vs relation-centric
//	7.2.1    BenchmarkPushdown/*          join-then-infer vs decompose+pushdown
//	7.2.2    BenchmarkCache/*             full inference vs HNSW cache lookup
//
// plus the DESIGN.md ablations: block size, buffer pool frames, connector
// batch size, HNSW efSearch, optimizer threshold.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytes"

	"tensorbase/internal/ann"
	"tensorbase/internal/blocked"
	"tensorbase/internal/cache"
	"tensorbase/internal/connector"
	"tensorbase/internal/core"
	"tensorbase/internal/data"
	"tensorbase/internal/dlruntime"
	"tensorbase/internal/engine"
	"tensorbase/internal/exec"
	"tensorbase/internal/experiments"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/parallel"
	"tensorbase/internal/shard"
	"tensorbase/internal/sql"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
	"tensorbase/internal/udf"
)

func benchPool(b *testing.B, frames int) *storage.BufferPool {
	b.Helper()
	d, err := storage.OpenDisk(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return storage.NewBufferPool(d, frames)
}

// ---- Table 1: fully connected model zoo ----

func BenchmarkTable1FC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		model *nn.Model
		batch int
	}{
		{nn.FraudFC(rng, 256), 256},
		{nn.FraudFC(rng, 512), 256},
		{nn.EncoderFC(rng), 16},
		{nn.Amazon14kFC(rng, 1024), 16}, // 583/1024/14 at benchmark scale
	}
	for _, c := range cases {
		in := c.model.InShape[1]
		x := data.Dense(2, c.batch, in)
		b.Run(c.model.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.model.Forward(x.Clone())
			}
		})
	}
}

// ---- Table 2: convolutional model zoo ----

func BenchmarkTable2Conv(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.Run("DeepBench-CONV1", func(b *testing.B) {
		m := nn.DeepBenchConv1(rng)
		x := data.Images(3, 1, 112, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Forward(x.Clone())
		}
	})
	b.Run("LandCover", func(b *testing.B) {
		m := nn.LandCover(rng, 20)
		hw, _ := nn.LandCoverDims(20)
		x := data.Images(4, 1, hw, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Forward(x.Clone())
		}
	})
}

// ---- Figure 2: FFNN serving paths ----

// storeFeatures writes an (n, width) tensor as (id, features) rows.
func storeFeatures(pool *storage.BufferPool, x *tensor.Tensor) (*table.Heap, error) {
	schema := table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "features", Type: table.FloatVec},
	)
	h, err := table.NewHeap(pool, schema)
	if err != nil {
		return nil, err
	}
	for i := 0; i < x.Dim(0); i++ {
		if _, err := h.Insert(table.Tuple{table.IntVal(int64(i)), table.VecVal(x.Row(i))}); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// heapFeatures adapts the features column of a heap scan to the connector.
type heapFeatures struct{ scan *table.Scanner }

func (s *heapFeatures) NextRow() ([]float32, bool, error) {
	t, ok, err := s.scan.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return t[1].Vec, true, nil
}

func BenchmarkFig2(b *testing.B) {
	const rows = 2000
	rng := rand.New(rand.NewSource(5))
	model := nn.FraudFC(rng, 256)
	pool := benchPool(b, 2048)
	x := data.Dense(6, rows, 28)
	heap, err := storeFeatures(pool, x)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("ours-in-db", func(b *testing.B) {
		u := core.NewAdaptiveUDF(model, core.NewOptimizer(2<<30), pool, memlimit.Unlimited())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op, err := udf.NewInferOp(exec.NewHeapScan(heap), u, "features", 256)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(op); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, profile := range []dlruntime.Profile{dlruntime.Graph, dlruntime.Eager} {
		b.Run("dl-centric-"+profile.String(), func(b *testing.B) {
			rt := dlruntime.New(profile, 0)
			sess, err := rt.Load(model)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			wire := experiments.DefaultWire()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := &heapFeatures{scan: heap.Scan()}
				var stats connector.Stats
				xt, err := connector.Transfer(src, 28, 1024, &stats)
				if err != nil {
					b.Fatal(err)
				}
				rows, _, bytes := stats.Snapshot()
				wire.Delay(rows, rows*28, bytes)
				out, err := sess.Infer(xt)
				if err != nil {
					b.Fatal(err)
				}
				wire.Delay(int64(out.Dim(0)), int64(out.Len()), out.Bytes())
			}
		})
	}
}

// ---- Figure 3: CNN serving paths ----

func BenchmarkFig3(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	model := nn.DeepBenchConv1(rng)
	x := data.Images(8, 1, 112, 64)
	flat := x.Reshape(1, 112*112*64)

	b.Run("ours-in-db", func(b *testing.B) {
		pool := benchPool(b, 2048)
		u := core.NewAdaptiveUDF(model, core.NewOptimizer(2<<30), pool, memlimit.Unlimited())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Apply(flat.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dl-centric-graph", func(b *testing.B) {
		rt := dlruntime.New(dlruntime.Graph, 0)
		sess, err := rt.Load(model)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		wire := experiments.DefaultWire()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var stats connector.Stats
			xt, err := connector.Transfer(connector.NewTensorSource(flat), flat.Dim(1), 1, &stats)
			if err != nil {
				b.Fatal(err)
			}
			rows, _, bytes := stats.Snapshot()
			wire.Delay(rows, rows*int64(flat.Dim(1)), bytes)
			out, err := sess.Infer(xt.Reshape(1, 112, 112, 64))
			if err != nil {
				b.Fatal(err)
			}
			wire.Delay(1, int64(out.Len()), out.Bytes())
		}
	})
}

// ---- Table 3: whole-tensor vs relation-centric under the memory budget ----

func BenchmarkTable3(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := nn.Amazon14kFC(rng, 1024) // 583/1024/14
	in := m.InShape[1]
	const batch = 512
	x := data.Dense(10, batch, in)

	b.Run("whole-tensor-udf", func(b *testing.B) {
		u := udf.NewModelUDF(m, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Apply(x.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relation-centric", func(b *testing.B) {
		pool := benchPool(b, 2048)
		ex := core.NewExecutor(pool, nil)
		plan, err := core.NewOptimizer(1).Plan(m, batch) // force relational
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(plan, x.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Sec. 7.2.1: decomposition + push-down ----

func BenchmarkPushdown(b *testing.B) {
	const rowsPerSide, features = 400, 96
	d1, d2 := data.BoschTables(11, rowsPerSide, features, 4)
	rng := rand.New(rand.NewSource(12))
	model := nn.BoschFC(rng, 2*features)
	newQuery := func() *core.FeatureJoinQuery {
		return &core.FeatureJoinQuery{
			Left:    exec.NewMemScan(data.BoschSchema("s1", "v1"), d1),
			Right:   exec.NewMemScan(data.BoschSchema("s2", "v2"), d2),
			LeftSim: "s1", RightSim: "s2",
			LeftVec: "v1", RightVec: "v2",
			Eps: 0.25, Model: model, Batch: 256,
		}
	}
	b.Run("join-then-infer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op, err := newQuery().BuildNaive()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompose-pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op, err := newQuery().BuildPushdown()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Sec. 7.2.2: full inference vs result cache ----

func BenchmarkCache(b *testing.B) {
	const side = 12
	d := data.MNISTLikeNoisy(13, 600, side, 0.25)
	rng := rand.New(rand.NewSource(14))
	model := nn.CacheCNN(rng, side)
	pix := side * side
	flat := d.X.Reshape(600, pix)

	b.Run("full-inference", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := flat.SliceRows(i%600, i%600+1).Clone().Reshape(1, side, side, 1)
			model.Forward(row)
		}
	})
	b.Run("hnsw-cache", func(b *testing.B) {
		rc, err := cache.NewHNSW(pix, float64(pix)*0.25*0.25*3.0)
		if err != nil {
			b.Fatal(err)
		}
		cm := cache.NewCachedModel(model, rc)
		for i := 0; i < 500; i++ {
			if _, err := cm.PredictRow(flat.Row(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cm.PredictRow(flat.Row(500 + i%100)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablations ----

// BenchmarkBlockSize sweeps the tensor-block edge for the relation-centric
// matmul (DESIGN.md ablation 1).
func BenchmarkBlockSize(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	a := tensor.New(512, 512)
	w := tensor.New(512, 512)
	for i := range a.Data() {
		a.Data()[i] = float32(rng.NormFloat64())
		w.Data()[i] = float32(rng.NormFloat64())
	}
	for _, bs := range []int{16, 32, 64, 90} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			pool := benchPool(b, 4096)
			am, err := blocked.Store(pool, a, bs)
			if err != nil {
				b.Fatal(err)
			}
			wm, err := blocked.Store(pool, w, bs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blocked.MultiplyStreaming(pool, am, wm, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBufferPoolFrames sweeps pool size / spill pressure (ablation 2).
func BenchmarkBufferPoolFrames(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	a := tensor.New(384, 384)
	for i := range a.Data() {
		a.Data()[i] = float32(rng.NormFloat64())
	}
	for _, frames := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			pool := benchPool(b, frames)
			am, err := blocked.Store(pool, a, 64)
			if err != nil {
				b.Fatal(err)
			}
			wm, err := blocked.Store(pool, a, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blocked.MultiplyStreaming(pool, am, wm, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockedParallel sweeps the worker count of the parallel
// block-streaming multiply on a 1024² problem (DESIGN.md parallel
// execution section). Each sub-benchmark reports a "speedup" metric
// relative to the measured workers=1 run of the same sweep; on a
// single-core machine expect ~1.0 across the board (the sweep then mostly
// measures scheduler overhead).
func BenchmarkBlockedParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	const n = 1024
	a := tensor.New(n, n)
	w := tensor.New(n, n)
	for i := range a.Data() {
		a.Data()[i] = float32(rng.NormFloat64())
		w.Data()[i] = float32(rng.NormFloat64())
	}
	workerCounts := []int{1, 2, 4}
	if cpus := runtime.NumCPU(); cpus > 4 {
		workerCounts = append(workerCounts, cpus)
	}
	var serialNsPerOp float64
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := benchPool(b, 4096)
			am, err := blocked.Store(pool, a, 64)
			if err != nil {
				b.Fatal(err)
			}
			wm, err := blocked.Store(pool, w, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blocked.MultiplyStreamingWorkers(pool, am, wm, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				serialNsPerOp = nsPerOp
			}
			if serialNsPerOp > 0 {
				b.ReportMetric(serialNsPerOp/nsPerOp, "speedup")
			}
		})
	}
}

// BenchmarkConnectorBatch sweeps the transfer batch size (ablation 3).
func BenchmarkConnectorBatch(b *testing.B) {
	rows := make([][]float32, 4096)
	for i := range rows {
		rows[i] = make([]float32, 28)
	}
	for _, batch := range []int{32, 256, 2048} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := connector.Transfer(connector.NewSliceSource(rows), 28, batch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHNSWEf sweeps the search beam width (ablation 4).
func BenchmarkHNSWEf(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	h := ann.NewHNSW(32, ann.HNSWConfig{Seed: 18})
	vecs := make([][]float32, 4000)
	for i := range vecs {
		v := make([]float32, 32)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = v
		if err := h.Add(int64(i), v); err != nil {
			b.Fatal(err)
		}
	}
	for _, ef := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ef=%d", ef), func(b *testing.B) {
			h.SetEfSearch(ef)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Search(vecs[i%len(vecs)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThreshold sweeps the adaptive optimizer's memory threshold for a
// mid-size model: high thresholds fuse everything into one UDF, low ones
// force the relation-centric path (ablation 5).
func BenchmarkThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	m := nn.MustModel("mid", []int{1, 512},
		nn.NewLinear(rng, 512, 512), nn.ReLU{}, nn.NewLinear(rng, 512, 16))
	x := data.Dense(20, 256, 512)
	for _, thr := range []int64{1 << 10, 1 << 22, 1 << 30} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			pool := benchPool(b, 2048)
			u := core.NewAdaptiveUDF(m, core.NewOptimizer(thr), pool, memlimit.Unlimited())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.Apply(x.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Extension benchmarks ----

// BenchmarkModelSerialization measures writing a model in the TBM1 format.
func BenchmarkModelSerialization(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	m := nn.FraudFC(rng, 512)
	b.Run("tbm1-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := nn.Save(&buf, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDedupStore measures block storage with and without sharing.
func BenchmarkDedupStore(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	w := tensor.New(128, 128)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64())
	}
	b.Run("plain-store", func(b *testing.B) {
		pool := benchPool(b, 1024)
		for i := 0; i < b.N; i++ {
			if _, err := blocked.Store(pool, w, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dedup-store", func(b *testing.B) {
		pool := benchPool(b, 1024)
		ds, err := blocked.NewDedupStore(pool, 32, 0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := ds.Store(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCache compares AoT-cached plan selection with fresh
// optimization (Sec. 2).
func BenchmarkPlanCache(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	m := nn.CacheFFNN(rng, 196)
	opt := core.NewOptimizer(64 << 20)
	b.Run("fresh-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := opt.Plan(m, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aot-cached", func(b *testing.B) {
		pc, err := core.NewPlanCache(opt, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pc.PlanFor(256); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplacementPolicy compares LRU and Clock page replacement under
// a scanning workload larger than the pool.
func BenchmarkReplacementPolicy(b *testing.B) {
	for _, policy := range []storage.Policy{storage.LRU, storage.Clock} {
		name := "lru"
		if policy == storage.Clock {
			name = "clock"
		}
		b.Run(name, func(b *testing.B) {
			d, err := storage.OpenDisk(filepath.Join(b.TempDir(), "pol.db"))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			pool := storage.NewBufferPoolWithPolicy(d, 16, policy)
			const pages = 128
			ids := make([]storage.PageID, pages)
			for i := range ids {
				f, err := pool.NewPage()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = f.ID()
				pool.Unpin(f.ID(), true)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%pages]
				f, err := pool.Fetch(id)
				if err != nil {
					b.Fatal(err)
				}
				_ = f.Data()[0]
				pool.Unpin(id, false)
			}
		})
	}
}

// BenchmarkPredictServing measures the SQL-integrated PREDICT serving path
// end-to-end under concurrent clients: engine.Exec with the pipelined
// inference operator and, when enabled, the per-model ANN result cache.
// Cache cases pin the hit ratio across iterations with an admission cap:
// the warm-up query fills the cache up to the cap, after which further
// inserts are rejected, so every timed query sees the same hit mix.
// Reports rows served per second and the observed cache hit rate.
func BenchmarkPredictServing(b *testing.B) {
	const nRows, hidden, batch = 256, 1024, 32
	d := data.Fraud(11, nRows)
	rng := rand.New(rand.NewSource(12))
	model := nn.FraudFC(rng, hidden)
	query := fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM txns", model.Name())

	open := func(b *testing.B, opts engine.Options) *engine.DB {
		b.Helper()
		db, err := engine.Open(filepath.Join(b.TempDir(), "bench.db"), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		rows, schema, err := d.FeatureRows()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateTable("txns", schema); err != nil {
			b.Fatal(err)
		}
		if _, err := db.InsertRows("txns", rows); err != nil {
			b.Fatal(err)
		}
		if err := db.LoadModel(model, 0); err != nil {
			b.Fatal(err)
		}
		return db
	}

	run := func(b *testing.B, db *engine.DB) {
		// Warm-up fills the cache up to its admission cap (a no-op for
		// the uncached cases) so timed iterations see a steady hit mix.
		if _, err := db.Exec(query); err != nil {
			b.Fatal(err)
		}
		before := db.Stats()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				res, err := db.Exec(query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != nRows {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
		b.StopTimer()
		after := db.Stats()
		rows := float64(b.N) * nRows
		b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
		served := after.CacheHits - before.CacheHits + after.CacheShared - before.CacheShared
		probes := served + after.CacheMisses - before.CacheMisses
		if probes > 0 {
			b.ReportMetric(float64(served)/float64(probes), "hit-rate")
		}
	}

	b.Run("serial_nocache", func(b *testing.B) {
		// Drain the compute budget: with no worker token free, PREDICT
		// takes InferOp's serial fallback, as in production.
		drained := parallel.NewBudget(1)
		drained.Acquire(1)
		prev := parallel.SetDefault(drained)
		b.Cleanup(func() { parallel.SetDefault(prev) })
		db := open(b, engine.Options{InferBatch: batch})
		_, stats, err := db.ExecProfiled(query)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range stats {
			if s.Name == "predict" && s.Note != "serial" {
				b.Fatalf("predict ran %q with the budget drained, want serial", s.Note)
			}
		}
		run(b, db)
	})
	b.Run("pipelined_nocache", func(b *testing.B) {
		run(b, open(b, engine.Options{InferBatch: batch}))
	})
	for _, pct := range []int{0, 50, 100} {
		cap := nRows * pct / 100
		if pct == 0 {
			cap = 1 // cap ≈ 0: one admitted entry, everything else misses
		}
		b.Run(fmt.Sprintf("cached_hit%d", pct), func(b *testing.B) {
			run(b, open(b, engine.Options{
				InferBatch:            batch,
				ResultCache:           true,
				ResultCacheDistance:   1e-9,
				ResultCacheMaxEntries: cap,
			}))
		})
	}
}

// BenchmarkQuantizedPredict compares end-to-end PREDICT over Fraud-FC-256 in
// f32 against the int8-resident quantized twin (int16-pair int8 GEMM +
// columnar batch decode). The micro-batch matches the table width of the kernel
// benchmarks (256×28 × 28×256), so the end-to-end delta here is the kernel
// win minus everything the serving path adds around it.
func BenchmarkQuantizedPredict(b *testing.B) {
	const nRows, hidden, batch = 1024, 256, 256
	d := data.Fraud(13, nRows)
	rng := rand.New(rand.NewSource(14))
	model := nn.FraudFC(rng, hidden)

	open := func(b *testing.B) *engine.DB {
		b.Helper()
		db, err := engine.Open(filepath.Join(b.TempDir(), "bench.db"), engine.Options{InferBatch: batch})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		rows, schema, err := d.FeatureRows()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateTable("txns", schema); err != nil {
			b.Fatal(err)
		}
		if _, err := db.InsertRows("txns", rows); err != nil {
			b.Fatal(err)
		}
		if err := db.LoadModel(model, 0); err != nil {
			b.Fatal(err)
		}
		return db
	}

	run := func(b *testing.B, query string) {
		db := open(b)
		if _, err := db.Exec(query); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != nRows {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*nRows/b.Elapsed().Seconds(), "rows/s")
	}

	b.Run("f32", func(b *testing.B) {
		run(b, fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM txns", model.Name()))
	})
	b.Run("quantized", func(b *testing.B) {
		run(b, fmt.Sprintf("SELECT id, PREDICT(%s, features) OPTIONS (quantized) FROM txns", model.Name()))
	})
}

// BenchmarkSnapshotReadUnderWrites measures the lock-free serving path:
// PREDICT over a snapshot-pinned scan, with and without a concurrent
// writer appending batches. Under the old two-phase locking path the
// writer's exclusive lock serialized every read behind it; with MVCC
// snapshot reads the two sub-benchmarks should be within noise of each
// other (the CI gate requires underwrites ≥ 0.8× readonly throughput).
// LIMIT pins the per-query work so writer-grown tables don't skew ns/op.
func BenchmarkSnapshotReadUnderWrites(b *testing.B) {
	const nRows, hidden, scanLimit = 2048, 32, 1024
	d := data.Fraud(17, nRows)
	rng := rand.New(rand.NewSource(18))
	model := nn.FraudFC(rng, hidden)
	query := fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM txns LIMIT %d", model.Name(), scanLimit)

	open := func(b *testing.B) (*engine.DB, []table.Tuple) {
		b.Helper()
		db, err := engine.Open(filepath.Join(b.TempDir(), "bench.db"), engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		rows, schema, err := d.FeatureRows()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateTable("txns", schema); err != nil {
			b.Fatal(err)
		}
		if _, err := db.InsertRows("txns", rows); err != nil {
			b.Fatal(err)
		}
		if err := db.LoadModel(model, 0); err != nil {
			b.Fatal(err)
		}
		return db, rows
	}

	read := func(b *testing.B, db *engine.DB) {
		if _, err := db.Exec(query); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != scanLimit {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)*scanLimit/b.Elapsed().Seconds(), "rows/s")
	}

	b.Run("readonly", func(b *testing.B) {
		db, _ := open(b)
		read(b, db)
	})
	b.Run("underwrites", func(b *testing.B) {
		db, rows := open(b)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A steady writer, throttled so it contends without saturating
			// the single CI core: 64-row committed batches, ~5ms apart.
			for !stop.Load() {
				if _, err := db.InsertRows("txns", rows[:64]); err != nil {
					b.Error(err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
		read(b, db)
		stop.Store(true)
		wg.Wait()
	})
}

// ---- PR 9: sharded scatter-gather scan ----

// BenchmarkShardedScan measures a full PREDICT table scan through the
// scatter-gather coordinator at 1, 2, and 4 shards. Each shard owns a
// hash slice of the rows and runs its subplan (decode, inference,
// projection) on its own engine, so on a multi-core host throughput
// should scale toward linear until the coordinator merge dominates; on a
// single-core runner the numbers are informational (the sub-benchmarks
// still validate bit-stable row counts through the merge).
func BenchmarkShardedScan(b *testing.B) {
	const nRows, hidden = 4096, 32
	d := data.Fraud(21, nRows)
	model := nn.FraudFC(rand.New(rand.NewSource(22)), hidden)
	query := fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM txns ORDER BY id", model.Name())
	rows, schema, err := d.FeatureRows()
	if err != nil {
		b.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl, err := shard.NewLocalCluster(filepath.Join(b.TempDir(), "cluster"), shards, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { cl.Close() })
			ctx := context.Background()
			if _, err := cl.Exec(ctx, sql.Render(&sql.CreateTable{Name: "txns", Cols: schema.Cols}), nil); err != nil {
				b.Fatal(err)
			}
			ins := &sql.Insert{Table: "txns", Rows: make([][]sql.Literal, len(rows))}
			for i, r := range rows {
				lits := make([]sql.Literal, len(r))
				for j, v := range r {
					lits[j] = sql.Literal{Value: v}
				}
				ins.Rows[i] = lits
			}
			if _, err := cl.Exec(ctx, sql.Render(ins), nil); err != nil {
				b.Fatal(err)
			}
			if err := cl.LoadModel(model, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Exec(ctx, query, nil); err != nil { // warm pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cl.Exec(ctx, query, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != nRows {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*nRows/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// ---- PR 10: content-addressed weight-block store ----

// BenchmarkModelLoadDedup measures many-model capacity through the
// content-addressed block store: each iteration loads 8 fine-tuned
// Fraud-FC variants (shared trunk, fresh classifier head) against a
// resident base model, then drops them. Reported metrics feed the CI
// dedup gate: marginal_frac_of_model — the resident bytes one extra
// variant costs, as a fraction of a full model — must stay at or under
// 0.30, and dedup_hit_rate is the block-level hit rate across the run.
func BenchmarkModelLoadDedup(b *testing.B) {
	const hidden, variants = 2048, 8
	db, err := engine.Open(filepath.Join(b.TempDir(), "bench.db"), engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(23))
	base := nn.FraudFC(rng, hidden)
	if err := db.LoadModel(base, 0); err != nil {
		b.Fatal(err)
	}
	single := db.BlockStats().ResidentBytes
	vs := make([]*nn.Model, variants)
	for i := range vs {
		m, err := nn.NewModel(fmt.Sprintf("Fraud-FC-v%d", i), []int{1, 28},
			base.Layers[0], base.Layers[1],
			nn.NewLinear(rng, hidden, 2), nn.Softmax{},
		)
		if err != nil {
			b.Fatal(err)
		}
		vs[i] = m
	}
	var peak int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vs {
			if err := db.LoadModel(v, 0); err != nil {
				b.Fatal(err)
			}
		}
		peak = db.BlockStats().ResidentBytes
		for _, v := range vs {
			if err := db.DropModel(v.Name()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := db.BlockStats()
	marginal := float64(peak-single) / variants
	b.ReportMetric(marginal, "marginal_bytes_per_variant")
	b.ReportMetric(marginal/float64(single), "marginal_frac_of_model")
	b.ReportMetric(float64(peak)/float64(variants+1), "resident_bytes_per_model")
	b.ReportMetric(float64(st.DedupHits)/float64(st.DedupHits+st.BlocksAdded), "dedup_hit_rate")
}
