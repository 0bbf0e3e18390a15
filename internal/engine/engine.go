// Package engine is the embedded database: it wires the paged storage
// layer, the catalog, the SQL front end, and the adaptive inference stack
// (optimizer + executor + UDF registry) into a single embeddable object.
// This is the public face of the system — open a database, create tables,
// load models, and run SQL with PREDICT() nested in it.
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/cache"
	"tensorbase/internal/catalog"
	"tensorbase/internal/core"
	"tensorbase/internal/dlruntime"
	"tensorbase/internal/exec"
	"tensorbase/internal/fault"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/lockmgr"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/obs"
	"tensorbase/internal/parallel"
	"tensorbase/internal/sql"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
	"tensorbase/internal/udf"
	"tensorbase/internal/wal"
)

// Options configures an engine instance.
type Options struct {
	// BufferFrames is the buffer pool size in pages (default 1024,
	// i.e. 32 MiB at the 32 KiB page size).
	BufferFrames int
	// MemoryBudget caps whole-tensor (UDF-centric) working sets in
	// bytes; 0 means unlimited. Exceeding it yields memlimit.ErrOOM.
	MemoryBudget int64
	// MemoryThreshold is the adaptive optimizer's per-operator limit:
	// operators estimated above it run relation-centrically. 0 disables
	// the relation-centric switch.
	MemoryThreshold int64
	// InferBatch is the micro-batch size for PREDICT (default 256).
	InferBatch int
	// ResultCache enables the ANN inference-result cache (Sec. 5/7.2.2)
	// on the PREDICT path: one HNSW-indexed cache per loaded model, probed
	// per row before the model runs.
	ResultCache bool
	// ResultCacheDistance is the squared-L2 threshold within which a
	// cached prediction is reused. 0 reuses exact feature matches only.
	ResultCacheDistance float64
	// ResultCacheMaxEntries caps each model's cache; once full, new
	// results are served but no longer admitted. 0 means unbounded.
	ResultCacheMaxEntries int
	// PredictQuantized serves every PREDICT from the model's int8-resident
	// quantized twin by default, as if each query said OPTIONS (quantized).
	// Queries over models without a quantized twin fail.
	PredictQuantized bool
	// QueryTimeout bounds every statement's execution; a query past the
	// deadline fails with context.DeadlineExceeded. 0 means no limit.
	// Contexts passed to ExecContext/QueryContext compose with it (the
	// earlier deadline wins).
	QueryTimeout time.Duration
	// SlowQueryThreshold enables the slow-query log: any statement whose
	// wall time crosses it produces exactly one log line carrying the
	// statement, its latency, row count, and per-operator span summary.
	// SELECTs are instrumented whenever the threshold is set (two clock
	// reads per operator call), so the log line has real spans; leave it 0
	// on latency-critical deployments that do not want that overhead.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is where slow-query lines go (default os.Stderr).
	SlowQueryLog io.Writer
	// CheckpointInterval runs the background checkpointer (flush pages,
	// commit the catalog, truncate the WAL) on a timer. 0 disables the
	// timer; the WAL-size trigger below still applies.
	CheckpointInterval time.Duration
	// CheckpointWALBytes triggers a checkpoint once the WAL grows past
	// this size (default 64 MiB; negative disables the size trigger).
	CheckpointWALBytes int64
	// Faults installs a fault injector before Open-time recovery runs, so
	// tests can schedule crashes inside WAL replay (see SetFaults for
	// points installed after Open).
	Faults *fault.Injector
	// Follower opens the engine as a replication replica (see follower.go):
	// local writes are rejected, and recovery resumes at the highest
	// COMMITTED CSN rather than the highest CSN the log mentions — a group
	// whose apply crashed mid-way must not count as applied, or the stream
	// would skip re-delivering it. A primary must NOT set this: its burned
	// (aborted) CSNs may never be reissued.
	Follower bool
}

func (o Options) withDefaults() Options {
	if o.BufferFrames <= 0 {
		o.BufferFrames = 1024
	}
	if o.InferBatch <= 0 {
		o.InferBatch = 256
	}
	if o.CheckpointWALBytes == 0 {
		o.CheckpointWALBytes = 64 << 20
	}
	return o
}

// DB is an open database instance. It is safe for concurrent use,
// including DDL: every statement acquires statement-scoped table locks
// (shared for SELECT/PREDICT, exclusive for INSERT) and CREATE/DROP take
// the catalog DDL latch, so queries over distinct tables run concurrently
// while a DROP waits out in-flight scans of its table.
type DB struct {
	path   string
	disk   *storage.DiskManager
	pool   *storage.BufferPool
	cat    *catalog.Catalog
	budget *memlimit.Budget
	opt    *core.Optimizer
	udfs   *udf.Registry
	opts   Options

	// locks serializes conflicting statements (see internal/lockmgr):
	// per-table reader/writer locks plus the catalog DDL latch, acquired
	// per statement in deterministic order.
	locks *lockmgr.Manager

	// Vector indexes (Sec. 5), keyed by (table, column).
	vmu      sync.Mutex
	vindexes map[vindexKey]*vectorIndex

	// Per-model inference-result caches (Sec. 5), present when
	// Options.ResultCache is set.
	cmu    sync.Mutex
	caches map[string]*cache.ResultCache

	// Serving-path counters aggregated across every PREDICT.
	inferStats udf.InferStats

	// panics counts query-level panics contained by Exec (panics inside
	// UDF invocations are contained deeper and counted in inferStats).
	panics atomic.Int64

	// Observability: the metrics registry unifying every component's
	// counters (exported via DB.Metrics and /metrics), the slow-query log,
	// and the handles pushed on the query path.
	reg           *obs.Registry
	slow          *obs.SlowLog
	mQueries      *obs.Counter
	mQueryErrors  *obs.Counter
	mSlowQueries  *obs.Counter
	mVindexStale  *obs.Counter
	mQueryLatency *obs.Histogram
	// mPredictQuantized counts PREDICTs served by an int8-resident twin.
	mPredictQuantized *obs.Counter

	// blocks is the content-addressed weight-block store: every loaded
	// model's tensors alias assemblies of refcounted 64 KiB blocks, shared
	// across fine-tuned variants (see internal/blockstore). manifests maps
	// each durable model to the manifest whose references it holds; models
	// with a nil manifest entry are memory-resident only (unserializable
	// layers) and skipped by the catalog checkpoint and the WAL.
	blocks    *blockstore.Store
	manMu     sync.Mutex
	manifests map[string]*nn.Manifest
	// persistedBlocks tracks which block files already exist under
	// .blocks/, so an unchanged checkpoint writes zero model bytes. Only
	// loadCatalog (open) and saveCatalog (serialized by the checkpoint
	// path) touch it.
	persistedBlocks map[blockstore.Hash]bool

	// gen is the committed catalog generation (see persist.go).
	gen uint64
	// faults injects crashes into catalog persistence (tests only).
	faults *fault.Injector

	// The lock-free serving substrate (see txn.go / recovery.go /
	// checkpoint.go): the write-ahead log, the commit-sequence-number
	// allocator, and the atomically published committed horizon that read
	// statements pin their snapshots to.
	wal          *wal.Log
	csnMu        sync.Mutex // guards nextCSN
	nextCSN      uint64
	committedCSN atomic.Uint64
	pubMu        sync.Mutex // guards in-order CSN publication and shipper
	pubCond      *sync.Cond

	// shipper, when set, receives every published commit in CSN order (see
	// publish in txn.go) — the replication primary's tap into the commit
	// protocol. follower marks this engine a replication replica: local
	// writes are rejected and ApplyReplicated (follower.go) is the only
	// mutation path.
	shipper  Shipper
	follower atomic.Bool

	// Background checkpointer lifecycle and counters.
	ckptMu      sync.Mutex // one checkpoint at a time
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	ckptOnce    sync.Once // stopCheckpointer is called by Crash and Close
	checkpoints atomic.Uint64
	crashed     atomic.Bool

	// mSnapshotReads counts read statements served lock-free off a
	// pinned snapshot.
	mSnapshotReads *obs.Counter
	// mIndexLookups counts the reads among them that went through a heap's
	// key index (`WHERE firstcol = k`) instead of scanning it.
	mIndexLookups *obs.Counter

	// ckptInfo carries the last checkpoint's recovery inputs from
	// loadCatalog to recover (nil on a fresh database or a v1 meta).
	ckptInfo *checkpointInfo
}

// Open creates or opens the database file at path, restoring the catalog
// written by the last checkpoint and replaying the write-ahead log: every
// statement whose commit record reached the log before the crash is
// restored; uncommitted work is discarded (see recovery.go).
func Open(path string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	disk, err := storage.OpenDisk(path)
	if err != nil {
		return nil, err
	}
	wlog, err := wal.Open(path+".wal", opts.Faults)
	if err != nil {
		disk.Close()
		return nil, err
	}
	db := &DB{
		path:   path,
		disk:   disk,
		pool:   storage.NewBufferPool(disk, opts.BufferFrames),
		cat:    catalog.New(),
		budget: memlimit.NewBudget(opts.MemoryBudget),
		opt:    core.NewOptimizer(opts.MemoryThreshold),
		udfs:   udf.NewRegistry(),
		opts:   opts,
		locks:  lockmgr.New(),
		caches: make(map[string]*cache.ResultCache),
		reg:    obs.NewRegistry(),
		wal:    wlog,
		faults: opts.Faults,

		blocks:          blockstore.New(),
		manifests:       make(map[string]*nn.Manifest),
		persistedBlocks: make(map[blockstore.Hash]bool),
	}
	db.pubCond = sync.NewCond(&db.pubMu)
	db.registerMetrics()
	if opts.SlowQueryThreshold > 0 {
		w := opts.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		db.slow = obs.NewSlowLog(w, opts.SlowQueryThreshold, db.mSlowQueries)
	}
	if err := db.loadCatalog(); err != nil {
		wlog.Close()
		disk.Close()
		return nil, err
	}
	if opts.Follower {
		db.follower.Store(true)
	}
	if err := db.recover(); err != nil {
		wlog.Close()
		disk.Close()
		return nil, fmt.Errorf("engine: WAL recovery: %w", err)
	}
	db.startCheckpointer()
	return db, nil
}

// registerMetrics builds the engine's metric set: pushed metrics for the
// query path, and pull-model (func) metrics absorbing the counters the
// storage, cache, udf, and parallel packages already keep. The hot paths
// pay nothing — func metrics are read at scrape time only.
func (db *DB) registerMetrics() {
	r := db.reg
	db.mQueries = r.Counter("tensorbase_queries_total", "SQL statements executed")
	db.mQueryErrors = r.Counter("tensorbase_query_errors_total", "SQL statements that returned an error")
	db.mSlowQueries = r.Counter("tensorbase_slow_queries_total", "statements that crossed SlowQueryThreshold")
	db.mVindexStale = r.Counter("tensorbase_vindex_stale_queries_total", "nearest-neighbour lookups served by a vector index missing newer rows")
	db.mQueryLatency = r.Histogram("tensorbase_query_seconds", "statement wall time", obs.LatencyBuckets)
	db.mPredictQuantized = r.Counter("tensorbase_predict_quantized_total", "PREDICTs served by an int8-resident quantized twin")

	r.CounterFunc("tensorbase_pool_hits_total", "buffer pool page hits", func() float64 { return float64(db.pool.Stats().Hits) })
	r.CounterFunc("tensorbase_pool_misses_total", "buffer pool page misses", func() float64 { return float64(db.pool.Stats().Misses) })
	r.CounterFunc("tensorbase_pool_evictions_total", "buffer pool evictions", func() float64 { return float64(db.pool.Stats().Evictions) })
	r.CounterFunc("tensorbase_pool_dirty_writebacks_total", "evictions that wrote a dirty page back", func() float64 { return float64(db.pool.Stats().DirtyOut) })
	r.GaugeFunc("tensorbase_pool_pinned_frames", "buffer frames currently pinned", func() float64 { return float64(db.pool.Pinned()) })
	r.CounterFunc("tensorbase_disk_reads_total", "pages read from disk", func() float64 { r, _ := db.disk.IOStats(); return float64(r) })
	r.CounterFunc("tensorbase_disk_writes_total", "pages written to disk", func() float64 { _, w := db.disk.IOStats(); return float64(w) })
	r.GaugeFunc("tensorbase_mem_reserved_bytes", "whole-tensor memory currently reserved", func() float64 { return float64(db.budget.Reserved()) })
	r.GaugeFunc("tensorbase_mem_peak_bytes", "peak whole-tensor memory reservation", func() float64 { return float64(db.budget.Peak()) })

	r.CounterFunc("tensorbase_cache_hits_total", "PREDICT rows answered from a result cache", func() float64 { return float64(db.inferStats.Hits.Load()) })
	r.CounterFunc("tensorbase_cache_misses_total", "PREDICT rows that ran the model", func() float64 { return float64(db.inferStats.Misses.Load()) })
	r.CounterFunc("tensorbase_cache_shared_total", "PREDICT rows that joined another request's flight", func() float64 { return float64(db.inferStats.Shared.Load()) })
	// sumCaches reads one counter summed over every model's result cache.
	sumCaches := func(get func(cache.Counters) int64) func() float64 {
		return func() float64 {
			var n int64
			db.cmu.Lock()
			for _, rc := range db.caches {
				n += get(rc.Counters())
			}
			db.cmu.Unlock()
			return float64(n)
		}
	}
	r.CounterFunc("tensorbase_cache_rejected_total", "result-cache inserts rejected by the admission cap",
		sumCaches(func(c cache.Counters) int64 { return c.Rejected }))
	r.CounterFunc("tensorbase_cache_ann_searches_total", "result-cache lookups that ran the ANN search",
		sumCaches(func(c cache.Counters) int64 { return c.Searches }))
	r.GaugeFunc("tensorbase_cache_entries", "entries across all result caches",
		sumCaches(func(c cache.Counters) int64 { return int64(c.Entries) }))
	r.CounterFunc("tensorbase_predict_udf_calls_total", "model batch invocations", func() float64 { return float64(db.inferStats.UDFCalls.Load()) })
	r.CounterFunc("tensorbase_predict_batches_total", "PREDICT micro-batches processed", func() float64 { return float64(db.inferStats.Batches.Load()) })
	r.CounterFunc("tensorbase_predict_batches_allhit_total", "batches that skipped the model entirely", func() float64 { return float64(db.inferStats.BatchesAllHit.Load()) })
	r.CounterFunc("tensorbase_pipeline_fills_total", "producer finished a batch before it was asked", func() float64 { return float64(db.inferStats.PipelineFills.Load()) })
	r.CounterFunc("tensorbase_pipeline_stalls_total", "consumer waits on the batch producer", func() float64 { return float64(db.inferStats.PipelineStalls.Load()) })
	r.CounterFunc("tensorbase_predict_colbatches_total", "PREDICT micro-batches decoded columnarly (no per-row copy)", func() float64 { return float64(db.inferStats.ColBatches.Load()) })
	r.CounterFunc("tensorbase_kernel_serial_runs_total", "matmul kernels run on the caller's goroutine alone", func() float64 { return float64(tensor.Kernels().SerialRuns) })
	r.CounterFunc("tensorbase_kernel_fanouts_total", "matmul kernels that drew extra workers from the compute budget", func() float64 { return float64(tensor.Kernels().FanOuts) })
	r.CounterFunc("tensorbase_kernel_q8_calls_total", "int8 GEMM kernel invocations", func() float64 { return float64(tensor.Kernels().Q8Calls) })
	r.CounterFunc("tensorbase_kernel_vector_calls_total", "dense-layer kernels that ran on the AVX2 tiles or SSE tail dots", func() float64 { return float64(tensor.Kernels().VectorCalls) })
	r.CounterFunc("tensorbase_panics_total", "panics contained as query errors", func() float64 { return float64(db.panics.Load() + db.inferStats.Panics.Load()) })

	r.CounterFunc("tensorbase_lock_acquisitions_total", "statement lock sets acquired", func() float64 { return float64(db.locks.Stats().Acquired) })
	r.CounterFunc("tensorbase_lock_waits_total", "lock acquisitions that had to block", func() float64 { return float64(db.locks.Stats().Waits) })
	r.CounterFunc("tensorbase_lock_cancelled_total", "lock waits abandoned by cancelled statements", func() float64 { return float64(db.locks.Stats().Cancelled) })

	r.CounterFunc("tensorbase_disk_page_frees_total", "heap pages handed to the storage free list", func() float64 { f, _, _ := db.disk.FreeStats(); return float64(f) })
	r.CounterFunc("tensorbase_disk_page_reuses_total", "allocations served from the free list", func() float64 { _, ru, _ := db.disk.FreeStats(); return float64(ru) })
	r.GaugeFunc("tensorbase_disk_free_pages", "pages currently on the free list", func() float64 { _, _, n := db.disk.FreeStats(); return float64(n) })

	db.mSnapshotReads = r.Counter("tensorbase_snapshot_reads_total", "read statements served lock-free off a pinned MVCC snapshot")
	db.mIndexLookups = r.Counter("tensorbase_index_lookups_total", "read statements served by a key lookup instead of a heap scan")
	r.CounterFunc("tensorbase_wal_appends_total", "WAL records appended", func() float64 { return float64(db.wal.Stats().Appends) })
	r.CounterFunc("tensorbase_wal_bytes_total", "WAL bytes appended (framed)", func() float64 { return float64(db.wal.Stats().Bytes) })
	r.CounterFunc("tensorbase_wal_fsyncs_total", "WAL fsyncs issued", func() float64 { return float64(db.wal.Stats().Syncs) })
	r.CounterFunc("tensorbase_wal_fsync_waits_total", "commits that rode another commit's fsync (group-commit numerator)", func() float64 { return float64(db.wal.Stats().SyncWaits) })
	r.CounterFunc("tensorbase_wal_commits_total", "statement commits made durable through the WAL", func() float64 { return float64(db.wal.Stats().Commits) })
	r.CounterFunc("tensorbase_wal_replayed_records_total", "WAL records replayed by recovery", func() float64 { return float64(db.wal.Stats().Replayed) })
	r.CounterFunc("tensorbase_wal_truncates_total", "WAL truncations by checkpoints", func() float64 { return float64(db.wal.Stats().Truncates) })
	r.CounterFunc("tensorbase_checkpoints_total", "checkpoints completed", func() float64 { return float64(db.checkpoints.Load()) })
	r.GaugeFunc("tensorbase_wal_bytes", "current WAL length", func() float64 { return float64(db.wal.Size()) })
	r.GaugeFunc("tensorbase_committed_csn", "latest published commit sequence number", func() float64 { return float64(db.committedCSN.Load()) })

	r.CounterFunc("tensorbase_blockstore_blocks_total", "distinct weight blocks admitted to the block store", func() float64 { return float64(db.blocks.Stats().BlocksAdded) })
	r.CounterFunc("tensorbase_blockstore_bytes_total", "payload bytes of distinct weight blocks admitted", func() float64 { return float64(db.blocks.Stats().BytesAdded) })
	r.CounterFunc("tensorbase_blockstore_dedup_hits_total", "model-load tensor chunks deduplicated against resident blocks", func() float64 { return float64(db.blocks.Stats().DedupHits) })
	r.GaugeFunc("tensorbase_blockstore_resident_bytes", "weight bytes resident in the block store (assemblies + standalone blocks)", func() float64 { return float64(db.blocks.Stats().ResidentBytes) })
	r.GaugeFunc("tensorbase_blockstore_resident_blocks", "weight blocks currently resident", func() float64 { return float64(db.blocks.Stats().ResidentBlocks) })

	r.GaugeFunc("tensorbase_compute_tokens_total", "process-wide compute token budget", func() float64 { return float64(parallel.Default().Total()) })
	r.GaugeFunc("tensorbase_compute_tokens_in_use", "compute tokens currently held", func() float64 { return float64(parallel.Default().InUse()) })
	r.GaugeFunc("tensorbase_compute_tokens_highwater", "peak compute tokens simultaneously held", func() float64 { return float64(parallel.Default().HighWater()) })
}

// Shipper taps the engine's commit protocol for replication: Ship is
// called once per published CSN, strictly in CSN order, inside the
// publication critical section, with the statement's WAL records (nil for
// an abort — a pure CSN advance). Truncated is called after a checkpoint
// truncates the WAL, with the committed horizon the checkpoint folded in.
// Implementations must not call back into the engine's write path.
type Shipper interface {
	Ship(csn uint64, recs []*wal.Record)
	Truncated(throughCSN uint64)
}

// SetShipper installs (or, with nil, removes) the commit-stream tap. The
// swap synchronizes with in-flight publications, so after SetShipper
// returns the shipper sees every later commit exactly once.
func (db *DB) SetShipper(s Shipper) {
	db.pubMu.Lock()
	db.shipper = s
	db.pubMu.Unlock()
}

// Registry exposes the metrics registry (the export surface mounts it).
func (db *DB) Registry() *obs.Registry { return db.reg }

// Metrics returns a point-in-time snapshot of every registered metric —
// the programmatic twin of the /metrics endpoint.
func (db *DB) Metrics() obs.Snapshot { return db.reg.Snapshot() }

// SetFaults installs a fault injector on catalog persistence (the
// "persist.*" points; see persist.go) and on the write-ahead log (the
// "wal.*" points). Tests only; use Options.Faults to also cover Open-time
// recovery.
func (db *DB) SetFaults(inj *fault.Injector) {
	db.faults = inj
	db.wal.SetFaults(inj)
}

// Close runs a final checkpoint (flush dirty pages, commit the catalog,
// truncate the WAL) and closes the database.
//
// Ordering matters: page data must reach the file (and be synced) BEFORE
// the catalog commit that names those pages. Committing first would let a
// crash between the commit and the flush leave a catalog referencing page
// contents that never made it to disk. The meta-file rename inside
// saveCatalog is the sole commit point; if the flush or sync fails, the
// previous catalog generation stays committed — and the WAL, which is only
// truncated after the rename, still replays everything committed since it.
func (db *DB) Close() error {
	db.stopCheckpointer()
	// Quiesce: the DDL latch first (no table can appear or vanish under
	// us), then an exclusive lock on every table — waits out in-flight
	// writers and blocks new ones for the duration. Same DDL-then-tables
	// order every statement uses, so this cannot deadlock against them.
	if ddl, lerr := db.locks.Acquire(nil, lockmgr.Request{DDL: true}); lerr == nil {
		defer ddl.Release()
	}
	tls := make([]lockmgr.TableLock, 0)
	for _, name := range db.cat.Tables() {
		tls = append(tls, lockmgr.TableLock{Table: name, Mode: lockmgr.Exclusive})
	}
	if held, lerr := db.locks.Acquire(nil, lockmgr.Request{Tables: tls}); lerr == nil {
		defer held.Release()
	}
	// Lock-free readers hold no table locks; drain each heap's read gate
	// so in-flight read statements finish before the file closes.
	for _, name := range db.cat.Tables() {
		if te, terr := db.cat.Table(name); terr == nil {
			te.Heap.Drain()
			defer te.Heap.Release()
		}
	}
	err := db.pool.FlushAll()
	if err == nil {
		err = db.disk.Sync()
	}
	if err == nil {
		err = db.saveCatalog()
	}
	if err == nil {
		err = db.wal.Truncate()
	}
	if werr := db.wal.Close(); err == nil {
		err = werr
	}
	if cerr := db.disk.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the database without flushing, syncing, or committing —
// the crash tests' stand-in for kill -9: dirty pages in the buffer pool,
// the unsynced WAL tail, and the in-memory catalog are all lost; whatever
// the last checkpoint and the synced WAL prefix describe is what a
// subsequent Open recovers.
func (db *DB) Crash() error {
	if !db.crashed.CompareAndSwap(false, true) {
		return nil
	}
	db.stopCheckpointer()
	err := db.wal.Abandon()
	if cerr := db.disk.Close(); err == nil {
		err = cerr
	}
	return err
}

// Pool exposes the buffer pool (for the benchmark harness and tools).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// Catalog exposes the metadata catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Budget exposes the whole-tensor memory budget.
func (db *DB) Budget() *memlimit.Budget { return db.budget }

// Optimizer exposes the adaptive optimizer.
func (db *DB) Optimizer() *core.Optimizer { return db.opt }

// EnableOffload lets the optimizer schedule compute-intensive operators
// onto the external runtime (DL-centric offloading, the third
// representation). Configure before loading models: plans compiled ahead of
// time by earlier LoadModel calls are not recompiled.
func (db *DB) EnableOffload(rt *dlruntime.Runtime, minFlopsPerByte float64) {
	db.opt.Offload = &core.OffloadPolicy{Runtime: rt, MinFlopsPerByte: minFlopsPerByte}
}

// LoadModel registers a model in the catalog and installs its adaptive
// inference UDF, making it available to PREDICT. With Options.ResultCache
// set, the model also gets an HNSW result cache over its flattened input
// width, fused into every PREDICT over it.
//
// LoadModel also builds the model's int8-resident quantized twin (weights
// packed int8 + per-channel scales, served by the packed int8 GEMM) and
// registers it as the "quantized:" UDF behind PREDICT ... OPTIONS
// (quantized). The twin gets its own result cache — quantized predictions
// differ in bits from f32, so the two modes must never share cached
// results.
//
// The load is durable and deduplicated: the model's tensors are split
// into content-addressed 64 KiB blocks, blocks already resident (shared
// with other loaded models) are reused, and only the NEW blocks plus the
// model's manifest are WAL-logged in one commit group — a fine-tuned
// variant costs its delta, not its size. The served model's tensors alias
// the shared block assemblies; inference stays bit-identical because
// blocks are exact byte slices of the original f32 tensors. If the
// durability step fails the model stays registered in memory — still
// served, its blocks pinned, persisted by the next successful checkpoint —
// but LoadModel reports the error.
func (db *DB) LoadModel(m *nn.Model, accuracy float64) error {
	if db.follower.Load() {
		return ErrReadOnly
	}
	held, err := db.locks.Acquire(nil, lockmgr.Request{DDL: true})
	if err != nil {
		return err
	}
	defer held.Release()
	// A model whose layers cannot be blocked (synthetic test layers,
	// runtime-only ops) stays memory-resident — served until Close, exactly
	// the pre-WAL contract — rather than poisoning the log with a load no
	// recovery could replay.
	mf, fresh, err := nn.BlockModel(m, db.blocks)
	if err != nil {
		db.blocks.Sweep()
		return db.registerModel(m, accuracy, nil)
	}
	am, err := nn.ModelFromManifest(mf, db.blocks)
	if err != nil {
		db.blocks.Sweep()
		return fmt.Errorf("engine: reassembling model %q from blocks: %w", m.Name(), err)
	}
	if err := db.registerModel(am, accuracy, mf); err != nil {
		nn.ReleaseManifest(mf, db.blocks)
		db.blocks.Sweep()
		return err
	}
	csn := db.beginCSN()
	recs, err := db.commitModelLoad(mf, fresh, accuracy, csn)
	if err != nil {
		db.abortCSN(csn)
		return fmt.Errorf("engine: model %q is registered but its load did not commit durably: %w", m.Name(), err)
	}
	db.publish(csn, recs)
	return nil
}

// commitModelLoad logs the load's NEW blocks followed by the model
// manifest under one CSN and commits the group — recovery either replays
// the whole load (blocks, then a manifest whose hashes all resolve) or
// none of it.
func (db *DB) commitModelLoad(mf *nn.Manifest, fresh []blockstore.Hash, accuracy float64, csn uint64) ([]*wal.Record, error) {
	recs := make([]*wal.Record, 0, len(fresh)+1)
	for _, h := range fresh {
		data, ok := db.blocks.BlockData(h)
		if !ok {
			return nil, fmt.Errorf("engine: block %s vanished during load", h)
		}
		recs = append(recs, &wal.Record{Type: wal.RecBlock, CSN: csn, Data: blockstore.Encode(data)})
	}
	recs = append(recs, &wal.Record{
		Type: wal.RecLoadModel, CSN: csn,
		Model: mf.Name, Acc: accuracy, Data: nn.EncodeManifest(mf),
	})
	for _, rec := range recs {
		if _, err := db.wal.Append(rec); err != nil {
			return nil, err
		}
	}
	return recs, db.wal.Commit(csn)
}

// DropModel removes a model from serving: the catalog entry, its UDFs and
// serving state go away, its manifest's block references are released, and
// blocks no other model shares are reclaimed (disk reclamation follows at
// the next checkpoint). The drop is WAL-logged and replicated. Blocks
// shared with other loaded models survive untouched.
func (db *DB) DropModel(name string) error {
	if db.follower.Load() {
		return ErrReadOnly
	}
	held, err := db.locks.Acquire(nil, lockmgr.Request{DDL: true})
	if err != nil {
		return err
	}
	defer held.Release()
	if _, err := db.cat.ModelEntryFor(name); err != nil {
		return err
	}
	csn := db.beginCSN()
	rec := &wal.Record{Type: wal.RecDropModel, CSN: csn, Model: name}
	if _, err := db.wal.Append(rec); err != nil {
		db.abortCSN(csn)
		return err
	}
	if err := db.wal.Commit(csn); err != nil {
		db.abortCSN(csn)
		return err
	}
	db.unregisterModel(name)
	db.publish(csn, []*wal.Record{rec})
	db.blocks.Sweep()
	return nil
}

// registerModel installs a model in memory only: the catalog entry, the
// adaptive and quantized UDFs, and the serving state. loadCatalog and WAL
// replay call it directly — their durability is the meta file and the log.
// mf, when non-nil, is the manifest whose block references the model holds;
// a nil manifest marks the model memory-resident (not persisted).
func (db *DB) registerModel(m *nn.Model, accuracy float64, mf *nn.Manifest) error {
	if err := db.cat.RegisterModel(m, accuracy, ""); err != nil {
		return err
	}
	if err := db.udfs.Register(core.NewAdaptiveUDF(m, db.opt, db.pool, db.budget)); err != nil {
		return err
	}
	if err := db.addServingState(m.Name(), m); err != nil {
		return err
	}
	// A model whose layers cannot be quantized simply has no twin; asking
	// for OPTIONS (quantized) over it is a query-time error. The twin is
	// built from the reassembled (block-backed) tensors, so quantized
	// serving is byte-for-byte what it was before deduplication.
	if q, qerr := nn.QuantizeResident(m); qerr == nil {
		if err := db.udfs.Register(udf.NewQuantizedUDF(q, m.Name(), db.budget)); err != nil {
			return err
		}
		if err := db.addServingState(quantizedKey(m.Name()), m); err != nil {
			return err
		}
	}
	if mf != nil {
		db.manMu.Lock()
		db.manifests[m.Name()] = mf
		db.manMu.Unlock()
	}
	return nil
}

// unregisterModel removes a model's in-memory state — catalog entry, UDFs,
// caches — and releases its manifest's block references. The
// caller sweeps the store once its atomic unit (drop statement, replicated
// group, replay) is complete.
func (db *DB) unregisterModel(name string) {
	db.cat.DropModel(name)
	db.udfs.Unregister("adaptive:" + name)
	db.udfs.Unregister("quantized:" + name)
	db.cmu.Lock()
	delete(db.caches, name)
	delete(db.caches, quantizedKey(name))
	db.cmu.Unlock()
	db.manMu.Lock()
	mf := db.manifests[name]
	delete(db.manifests, name)
	db.manMu.Unlock()
	if mf != nil {
		nn.ReleaseManifest(mf, db.blocks)
	}
}

// manifestFor returns the named model's manifest, if it has one.
func (db *DB) manifestFor(name string) (*nn.Manifest, bool) {
	db.manMu.Lock()
	defer db.manMu.Unlock()
	mf, ok := db.manifests[name]
	return mf, ok
}

// BlockStats exposes the weight-block store's counters (tests, tools).
func (db *DB) BlockStats() blockstore.Stats { return db.blocks.Stats() }

// quantizedKey is the result-cache key for a model's quantized serving
// mode; the NUL cannot appear in a model name, so keys never collide.
func quantizedKey(model string) string { return model + "\x00q8" }

// addServingState installs the per-(model, mode) serving infrastructure: a
// result cache when enabled.
func (db *DB) addServingState(key string, m *nn.Model) error {
	if db.opts.ResultCache {
		dim := 1
		for _, d := range m.InShape[1:] {
			dim *= d
		}
		rc, err := cache.NewHNSW(dim, db.opts.ResultCacheDistance)
		if err != nil {
			return err
		}
		rc.SetMaxEntries(db.opts.ResultCacheMaxEntries)
		db.cmu.Lock()
		db.caches[key] = rc
		db.cmu.Unlock()
	}
	return nil
}

// ResultCacheFor returns the named model's inference-result cache, if
// result caching is enabled and the model is loaded.
func (db *DB) ResultCacheFor(model string) (*cache.ResultCache, bool) {
	db.cmu.Lock()
	defer db.cmu.Unlock()
	rc, ok := db.caches[model]
	return rc, ok
}

// LoadModelFile loads a TBM1 model file and registers it.
func (db *DB) LoadModelFile(path string) (*nn.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	defer f.Close()
	m, err := nn.Load(f)
	if err != nil {
		return nil, err
	}
	if err := db.LoadModel(m, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// ExplainPredict returns the adaptive optimizer's plan for running the
// named model at the given batch size.
func (db *DB) ExplainPredict(model string, batch int) (string, error) {
	m, err := db.cat.Model(model)
	if err != nil {
		return "", err
	}
	plan, err := db.opt.Plan(m, batch)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// LowerPredict returns the Graphviz rendering of the named model's lowered
// linear-algebra graph at the given batch size (Sec. 2's graph IR).
func (db *DB) LowerPredict(model string, batch int) (string, error) {
	m, err := db.cat.Model(model)
	if err != nil {
		return "", err
	}
	plan, err := db.opt.Plan(m, batch)
	if err != nil {
		return "", err
	}
	g, err := core.Lower(plan)
	if err != nil {
		return "", err
	}
	return g.Dot(), nil
}

// Stats reports engine-level counters.
type Stats struct {
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	DiskReads     uint64
	DiskWrites    uint64
	MemReserved   int64
	MemPeak       int64

	// PREDICT serving-path counters, cumulative across queries.
	CacheHits       int64 // rows answered from a result cache
	CacheMisses     int64 // rows that ran the model
	CacheShared     int64 // rows that joined another request's flight
	PredictUDFCalls int64 // model batch invocations
	PredictBatches  int64 // micro-batches processed
	ColBatches      int64 // micro-batches decoded columnarly
	BatchesAllHit   int64 // batches that skipped the model entirely
	PipelineFills   int64 // producer finished a batch before it was asked
	PipelineStalls  int64 // consumer waited on the producer
	Panics          int64 // panics contained as query errors (query + UDF level)
}

// Stats returns a snapshot of buffer pool, disk, memory, and serving-path
// counters.
func (db *DB) Stats() Stats {
	ps := db.pool.Stats()
	r, w := db.disk.IOStats()
	return Stats{
		PoolHits:      ps.Hits,
		PoolMisses:    ps.Misses,
		PoolEvictions: ps.Evictions,
		DiskReads:     r,
		DiskWrites:    w,
		MemReserved:   db.budget.Reserved(),
		MemPeak:       db.budget.Peak(),

		CacheHits:       db.inferStats.Hits.Load(),
		CacheMisses:     db.inferStats.Misses.Load(),
		CacheShared:     db.inferStats.Shared.Load(),
		PredictUDFCalls: db.inferStats.UDFCalls.Load(),
		PredictBatches:  db.inferStats.Batches.Load(),
		ColBatches:      db.inferStats.ColBatches.Load(),
		BatchesAllHit:   db.inferStats.BatchesAllHit.Load(),
		PipelineFills:   db.inferStats.PipelineFills.Load(),
		PipelineStalls:  db.inferStats.PipelineStalls.Load(),
		Panics:          db.panics.Load() + db.inferStats.Panics.Load(),
	}
}

// Result is the outcome of Exec: result rows for SELECT, affected count
// for DML/DDL.
type Result struct {
	Schema       *table.Schema
	Rows         []table.Tuple
	RowsAffected int64
}

// Exec parses and runs one SQL statement without a caller deadline (the
// Options.QueryTimeout still applies).
func (db *DB) Exec(sqlText string) (*Result, error) {
	return db.ExecContext(context.Background(), sqlText)
}

// Query is Exec under its conventional database/sql name.
func (db *DB) Query(sqlText string) (*Result, error) {
	return db.Exec(sqlText)
}

// QueryContext is ExecContext under its conventional database/sql name.
func (db *DB) QueryContext(ctx context.Context, sqlText string) (*Result, error) {
	return db.ExecContext(ctx, sqlText)
}

// ExecContext parses and runs one SQL statement under ctx. Cancelling the
// context (or exceeding its deadline, or Options.QueryTimeout) stops the
// query within one batch of work: operators drop their buffer-pool pins,
// compute workers drain, memory reservations are released, and the call
// returns ctx's error (context.Canceled or context.DeadlineExceeded). A
// panic anywhere in the statement's execution is contained as a query error
// carrying the panic value and stack; the database remains usable.
func (db *DB) ExecContext(ctx context.Context, sqlText string) (res *Result, err error) {
	res, _, err = db.exec(ctx, sqlText, false)
	return res, err
}

// exec wraps execInner with statement-level observability: wall time into
// the latency histogram, query/error counters, and the slow-query log.
// With a slow-query threshold configured, SELECTs are instrumented even
// outside EXPLAIN ANALYZE so a slow statement's log line carries real
// per-operator spans.
func (db *DB) exec(ctx context.Context, sqlText string, profile bool) (*Result, []exec.StageStat, error) {
	start := time.Now()
	res, stats, err := db.execInner(ctx, sqlText, profile || db.slow != nil)
	elapsed := time.Since(start)
	db.mQueries.Inc()
	db.mQueryLatency.Observe(elapsed)
	if err != nil {
		db.mQueryErrors.Inc()
	}
	if db.slow != nil && elapsed >= db.slow.Threshold() {
		var rows int64
		if res != nil {
			if res.Schema != nil {
				rows = int64(len(res.Rows))
			} else {
				rows = res.RowsAffected
			}
		}
		db.slow.Observe(sqlText, elapsed, rows, exec.SummarizeProfile(stats))
	}
	if !profile {
		stats = nil
	}
	return res, stats, err
}

func (db *DB) execInner(ctx context.Context, sqlText string, profile bool) (res *Result, stats []exec.StageStat, err error) {
	if db.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.opts.QueryTimeout)
		defer cancel()
	}
	tok, stop := lifecycle.Watch(ctx)
	defer stop()
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			db.panics.Add(1)
			res, stats, err = nil, nil, fmt.Errorf("engine: query panicked: %w", perr)
		}
	}()
	if cerr := tok.Err(); cerr != nil {
		return nil, nil, cerr
	}
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	// Statement-scoped locking: everything a WRITE statement touches is
	// acquired up front in deterministic order (DDL latch, then tables by
	// name) and held to the end of the statement, so conflicting writers
	// serialize and the set as a whole cannot deadlock. Reads request
	// nothing and skip the lock manager entirely — their isolation comes
	// from the snapshot CSN pinned in runSelect.
	if req := lockRequest(st); req.DDL || len(req.Tables) > 0 {
		if db.follower.Load() {
			return nil, nil, ErrReadOnly
		}
		held, err := db.locks.Acquire(tok, req)
		if err != nil {
			return nil, nil, err
		}
		defer held.Release()
	}
	switch st := st.(type) {
	case *sql.CreateTable:
		res, err = db.execCreate(st)
	case *sql.Insert:
		res, err = db.execInsert(st, tok)
	case *sql.Select:
		return db.runSelect(st, profile, tok)
	case *sql.DropTable:
		res, err = db.execDrop(st.Name)
	default:
		return nil, nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
	return res, nil, err
}

// lockRequest maps a parsed statement to the locks it must hold. SELECT
// (with or without PREDICT) takes NO locks: reads run against an MVCC
// snapshot pinned at statement start, so they never queue behind writers
// (the per-heap read gate, not a lock, keeps DROP's reclamation from
// racing them). INSERT writes its table under the FIFO-fair exclusive
// lock, and CREATE/DROP take the catalog DDL latch — DROP also locks its
// table exclusively so reclamation never races an in-flight writer.
func lockRequest(st sql.Statement) lockmgr.Request {
	switch st := st.(type) {
	case *sql.Insert:
		return lockmgr.Request{Tables: []lockmgr.TableLock{{Table: st.Table, Mode: lockmgr.Exclusive}}}
	case *sql.CreateTable:
		return lockmgr.Request{DDL: true}
	case *sql.DropTable:
		return lockmgr.Request{DDL: true, Tables: []lockmgr.TableLock{{Table: st.Name, Mode: lockmgr.Exclusive}}}
	}
	return lockmgr.Request{}
}

// execDrop removes a table and reclaims its storage. The caller holds the
// DDL latch and the table's exclusive lock, so no writer is inside the
// heap. Order: capture the page chain, log and commit the drop (a commit
// failure leaves the table fully intact), unpublish the catalog entry and
// prune vector indexes over the table (a recreated table must never serve
// the old table's ANN rows), then drain the heap's read gate — lock-free
// snapshot scans that started before the drop finish against the still-
// allocated pages — and hand every page to the free list. A failure while
// freeing leaks the remaining pages — a leak, never corruption.
func (db *DB) execDrop(name string) (*Result, error) {
	te, err := db.cat.Table(name)
	if err != nil {
		return nil, err
	}
	pages, err := te.Heap.Pages()
	if err != nil {
		return nil, fmt.Errorf("engine: walking %q page chain: %w", name, err)
	}
	csn := db.beginCSN()
	rec := &wal.Record{Type: wal.RecDropTable, CSN: csn, Table: name}
	if _, err := db.wal.Append(rec); err != nil {
		db.abortCSN(csn)
		return nil, err
	}
	if err := db.wal.Commit(csn); err != nil {
		db.abortCSN(csn)
		return nil, err
	}
	if err := db.cat.DropTable(name); err != nil {
		db.abortCSN(csn)
		return nil, err
	}
	db.vmu.Lock()
	for key := range db.vindexes {
		if key.table == name {
			delete(db.vindexes, key)
		}
	}
	db.vmu.Unlock()
	db.publish(csn, []*wal.Record{rec})
	// Wait out in-flight read statements before the pages change owners;
	// readers arriving after the drain re-check the catalog and fail with
	// "no such table".
	te.Heap.Drain()
	defer te.Heap.Release()
	for _, id := range pages {
		if err := db.pool.FreePage(id); err != nil {
			return nil, fmt.Errorf("engine: reclaiming %q pages: %w", name, err)
		}
	}
	return &Result{}, nil
}

func (db *DB) execCreate(st *sql.CreateTable) (*Result, error) {
	schema, err := table.NewSchema(st.Cols...)
	if err != nil {
		return nil, err
	}
	if _, err := db.createTableLocked(st.Name, schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// createTableLocked creates and logs a table; the caller holds the DDL
// latch. A WAL commit failure undoes the creation entirely.
func (db *DB) createTableLocked(name string, schema *table.Schema) (*table.Heap, error) {
	heap, err := table.NewHeap(db.pool, schema)
	if err != nil {
		return nil, err
	}
	if err := db.cat.CreateTable(name, heap); err != nil {
		db.pool.FreePage(heap.FirstPage())
		return nil, err
	}
	csn := db.beginCSN()
	rec := &wal.Record{Type: wal.RecCreateTable, CSN: csn, Table: name}
	for _, c := range schema.Cols {
		rec.Cols = append(rec.Cols, wal.Col{Name: c.Name, Type: uint8(c.Type)})
	}
	_, err = db.wal.Append(rec)
	if err == nil {
		err = db.wal.Commit(csn)
	}
	if err != nil {
		db.cat.DropTable(name)
		db.pool.FreePage(heap.FirstPage())
		db.abortCSN(csn)
		return nil, err
	}
	db.publish(csn, []*wal.Record{rec})
	return heap, nil
}

// CreateTable registers a table programmatically (the API twin of
// CREATE TABLE). Like the statement, it runs under the catalog DDL latch.
func (db *DB) CreateTable(name string, schema *table.Schema) (*table.Heap, error) {
	if db.follower.Load() {
		return nil, ErrReadOnly
	}
	held, err := db.locks.Acquire(nil, lockmgr.Request{DDL: true})
	if err != nil {
		return nil, err
	}
	defer held.Release()
	return db.createTableLocked(name, schema)
}

// InsertRows bulk-inserts tuples into a named table under the table's
// exclusive lock (the API twin of INSERT). The batch commits atomically:
// either every row is durable and visible, or none is.
func (db *DB) InsertRows(name string, rows []table.Tuple) (int64, error) {
	if db.follower.Load() {
		return 0, ErrReadOnly
	}
	held, err := db.locks.Acquire(nil, lockmgr.Request{
		Tables: []lockmgr.TableLock{{Table: name, Mode: lockmgr.Exclusive}},
	})
	if err != nil {
		return 0, err
	}
	defer held.Release()
	te, err := db.cat.Table(name)
	if err != nil {
		return 0, err
	}
	n, err := db.insertTuples(name, te.Heap, rows, nil)
	if err != nil {
		return 0, err
	}
	return n, nil
}

func (db *DB) execInsert(st *sql.Insert, tok *lifecycle.Token) (*Result, error) {
	te, err := db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := te.Heap.Schema()
	rows := make([]table.Tuple, 0, len(st.Rows))
	for ri, row := range st.Rows {
		if err := tok.Err(); err != nil {
			return nil, err
		}
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("engine: row %d has %d values, table %q has %d columns", ri, len(row), st.Table, schema.Len())
		}
		tup := make(table.Tuple, len(row))
		for ci, lit := range row {
			v, err := coerce(lit.Value, schema.Cols[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("engine: row %d column %q: %w", ri, schema.Cols[ci].Name, err)
			}
			tup[ci] = v
		}
		rows = append(rows, tup)
	}
	inserted, err := db.insertTuples(st.Table, te.Heap, rows, tok)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: inserted}, nil
}

// coerce converts a literal to the column type, allowing INT → DOUBLE.
func coerce(v table.Value, want table.ColType) (table.Value, error) {
	if v.Type == want {
		return v, nil
	}
	if v.Type == table.Int64 && want == table.Float64 {
		return table.FloatVal(float64(v.Int)), nil
	}
	return table.Value{}, fmt.Errorf("value of type %v does not fit column type %v", v.Type, want)
}
