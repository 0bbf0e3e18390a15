package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tensorbase/internal/catalog"
	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/obs"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// Cluster is the scatter-gather coordinator over a fixed set of shard
// nodes. It owns the shard map (table → key column) and plans every
// statement: pinned single-shard reads, scattered reads merged at the
// coordinator, hash-split INSERTs, and broadcast DDL/model loads.
type Cluster struct {
	nodes     []Node
	smap      *catalog.ShardMap
	pinned    atomic.Uint64
	scattered atomic.Uint64
}

// NewCluster wraps nodes with a coordinator using smap for placement.
func NewCluster(nodes []Node, smap *catalog.ShardMap) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one node")
	}
	if smap == nil {
		smap = catalog.NewShardMap(len(nodes))
	}
	if smap.Shards() != len(nodes) {
		return nil, fmt.Errorf("shard: map is over %d shards, cluster has %d nodes", smap.Shards(), len(nodes))
	}
	return &Cluster{nodes: nodes, smap: smap}, nil
}

// NewLocalCluster opens n in-process shard nodes under dir (one engine per
// shard-i subdirectory) and rebuilds the shard map from node 0's catalog
// using the package convention: the shard key is the first schema column.
// That convention is what makes the map recoverable — it is derivable from
// any node's durable catalog rather than separately persisted state.
func NewLocalCluster(dir string, n int, opts engine.Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cluster size %d < 1", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		ln, err := NewLocalNode(fmt.Sprintf("shard-%d", i), filepath.Join(dir, fmt.Sprintf("shard-%d", i)), opts)
		if err != nil {
			(&Cluster{nodes: nodes[:i]}).Close()
			return nil, err
		}
		nodes[i] = ln
	}
	smap := catalog.NewShardMap(n)
	cat := nodes[0].(*LocalNode).DB().Catalog()
	for _, name := range cat.Tables() {
		te, err := cat.Table(name)
		if err != nil {
			continue
		}
		s := te.Heap.Schema()
		smap.Set(name, s.Cols[0].Name, s)
	}
	return &Cluster{nodes: nodes, smap: smap}, nil
}

// Nodes returns the cluster's nodes in shard order.
func (c *Cluster) Nodes() []Node { return c.nodes }

// PinnedCount and ScatterCount report how many reads took each path.
func (c *Cluster) PinnedCount() uint64  { return c.pinned.Load() }
func (c *Cluster) ScatterCount() uint64 { return c.scattered.Load() }

// RegisterMetrics exposes the pinned/scatter split on reg, so the serving
// fast path is observable: a workload that should pin but scatters shows
// up immediately in the counter ratio.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("tensorbase_shard_pinned_total",
		"Reads routed to exactly one shard via a shard-key pin.",
		func() float64 { return float64(c.pinned.Load()) })
	reg.CounterFunc("tensorbase_shard_scatter_total",
		"Reads scattered to all shards and merged at the coordinator.",
		func() float64 { return float64(c.scattered.Load()) })
}

// Close shuts down every node and returns the first failure.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Session carries a client's per-shard read-your-writes floors: the
// committed CSN each shard must have applied before serving this client a
// read. A nil *Session is a floorless (best-effort) client.
type Session struct {
	mu     sync.Mutex
	floors []uint64
}

// NewSession returns a fresh session over the cluster's shards.
func (c *Cluster) NewSession() *Session {
	return &Session{floors: make([]uint64, len(c.nodes))}
}

func (s *Session) floor(i int) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floors[i]
}

// observe raises shard i's floor to csn (floors never regress).
func (s *Session) observe(i int, csn uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if csn > s.floors[i] {
		s.floors[i] = csn
	}
}

// Exec parses one SQL statement and runs it against the cluster: the
// cluster's only parse.
func (c *Cluster) Exec(ctx context.Context, sqlText string, sess *Session) (*engine.Result, error) {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, st, sess)
}

// Run plans and runs one parsed statement against the cluster. The shards
// only read st, so it may be shared.
func (c *Cluster) Run(ctx context.Context, st sql.Statement, sess *Session) (*engine.Result, error) {
	switch st := st.(type) {
	case *sql.Select:
		return c.Select(ctx, st, sess)
	case *sql.Insert:
		return c.insert(ctx, st, sess)
	case *sql.CreateTable:
		return c.createTable(ctx, st, sess)
	case *sql.DropTable:
		res, err := c.execEach(ctx, sess, func(int) sql.Statement { return st })
		if err == nil {
			c.smap.Drop(st.Name)
		}
		return res, err
	default:
		return nil, fmt.Errorf("shard: unsupported statement %T", st)
	}
}

// fanOut runs f on every node in parallel and returns the first failure in
// shard order, as "shard NAME: err".
func (c *Cluster) fanOut(f func(i int, n Node) error) error {
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, n)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %s: %w", c.nodes[i].Name(), err)
		}
	}
	return nil
}

// execEach runs stmt(i) on shard i for every shard in parallel, skipping
// shards whose statement is nil, raises the session's floor on each shard
// that commits, and sums the affected rows. Any failure fails the statement
// (shards that already applied theirs stay applied — broadcast DDL and
// split INSERTs are not atomic across shards).
func (c *Cluster) execEach(ctx context.Context, sess *Session, stmt func(i int) sql.Statement) (*engine.Result, error) {
	affected := make([]int64, len(c.nodes))
	err := c.fanOut(func(i int, n Node) error {
		st := stmt(i)
		if st == nil {
			return nil
		}
		res, csn, err := n.Exec(ctx, st)
		if err != nil {
			return err
		}
		sess.observe(i, csn)
		affected[i] = res.RowsAffected
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := &engine.Result{}
	for _, a := range affected {
		total.RowsAffected += a
	}
	return total, nil
}

// createTable broadcasts the DDL and records the placement: the first
// column is the shard key.
func (c *Cluster) createTable(ctx context.Context, st *sql.CreateTable, sess *Session) (*engine.Result, error) {
	if len(st.Cols) == 0 {
		return nil, fmt.Errorf("shard: CREATE TABLE with no columns")
	}
	schema, err := table.NewSchema(st.Cols...)
	if err != nil {
		return nil, err
	}
	res, err := c.execEach(ctx, sess, func(int) sql.Statement { return st })
	if err != nil {
		return nil, err
	}
	c.smap.Set(st.Name, st.Cols[0].Name, schema)
	return res, nil
}

// insert checks every row as a single node would, before any shard applies
// one, then sends each shard the rows its key hashes to. A shard failing to
// apply its slice leaves the others' applied, and the error says so.
func (c *Cluster) insert(ctx context.Context, st *sql.Insert, sess *Session) (*engine.Result, error) {
	info, ok := c.smap.Info(st.Table)
	if !ok {
		return nil, fmt.Errorf("%w %q", catalog.ErrNoTable, st.Table)
	}
	tuples, err := engine.InsertTuples(st, info.Schema)
	if err != nil {
		return nil, err
	}
	keyIdx := info.Schema.ColIndex(info.Key)
	parts := make([][][]sql.Literal, len(c.nodes))
	for ri, tup := range tuples {
		i := ShardOf(tup[keyIdx], len(c.nodes))
		parts[i] = append(parts[i], st.Rows[ri])
	}
	res, err := c.execEach(ctx, sess, func(i int) sql.Statement {
		if len(parts[i]) == 0 {
			return nil
		}
		return &sql.Insert{Table: st.Table, Rows: parts[i]}
	})
	if err != nil {
		return nil, fmt.Errorf("insert split partially applied: %w", err)
	}
	return res, nil
}

// Select plans and runs one read. A WHERE that pins the shard key with `=`
// routes to that key's shard alone; everything else scatters, split by
// engine.SplitSelect into the statement each shard runs and the merge.
func (c *Cluster) Select(ctx context.Context, st *sql.Select, sess *Session) (*engine.Result, error) {
	if len(st.With) > 0 {
		return c.selectCTE(ctx, st, sess)
	}
	info, ok := c.smap.Info(st.From)
	if !ok {
		return nil, fmt.Errorf("%w %q", catalog.ErrNoTable, st.From)
	}
	if lit, pinned := st.KeyPin(info.Key); pinned {
		keyIdx := info.Schema.ColIndex(info.Key)
		if key, err := engine.Coerce(lit.Value, info.Schema.Cols[keyIdx].Type); err == nil {
			i := ShardOf(key, len(c.nodes))
			c.pinned.Add(1)
			res, err := c.nodes[i].Query(ctx, st, sess.floor(i))
			if err != nil {
				return nil, fmt.Errorf("shard %s: %w", c.nodes[i].Name(), err)
			}
			return res, nil
		}
		// A key literal the engine cannot store (e.g. 1.5 against an INT
		// key) pins nowhere; the scatter returns the same empty result a
		// single node would.
	}
	c.scattered.Add(1)
	frag, merge, err := engine.SplitSelect(st, info.Schema)
	if err != nil {
		return nil, err
	}
	parts := make([]*engine.Result, len(c.nodes))
	if err := c.fanOut(func(i int, n Node) (err error) {
		parts[i], err = n.Query(ctx, frag, sess.floor(i))
		return err
	}); err != nil {
		return nil, err
	}
	return merge(parts)
}

// selectCTE materialises the referenced CTE body through the cluster
// (scattering as needed), then evaluates the outer query at the
// coordinator over the gathered rows through the engine's SELECT
// compiler — the same semantics as the engine's recursive
// materialisation, minus PREDICT (which must run next to a model, i.e.
// inside a shard subplan, not over gathered rows).
func (c *Cluster) selectCTE(ctx context.Context, st *sql.Select, sess *Session) (*engine.Result, error) {
	outer := *st
	outer.With = nil
	body, ok := st.CTEBody()
	if !ok {
		// FROM names a base table; the WITH bindings are unused.
		return c.Select(ctx, &outer, sess)
	}
	inner, err := c.Select(ctx, body, sess)
	if err != nil {
		return nil, fmt.Errorf("shard: CTE %q: %w", st.From, err)
	}
	return engine.RunMemSelect(&outer, inner.Schema, inner.Rows)
}

// LoadModel broadcasts a model to every shard, so pushed-down PREDICT
// subplans run next to their slice of the data.
func (c *Cluster) LoadModel(m *nn.Model, accuracy float64) error {
	return c.fanOut(func(_ int, n Node) error { return n.LoadModel(m, accuracy) })
}
