package server

import (
	"context"
	"sync/atomic"

	"tensorbase/internal/engine"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/retry"
	"tensorbase/internal/sql"
)

// ReadNode is a replica the router can steer reads to. repl.Replica
// satisfies it; the interface lives here so the server does not depend on
// the replication package.
type ReadNode interface {
	Name() string
	// DB returns the follower engine currently serving this node's reads
	// (the pointer may change across a crash/reopen — fetch once per query,
	// and check the floor and read on that one *DB).
	DB() *engine.DB
	// Healthy gates routing: false while the node is partitioned, dead, or
	// resyncing.
	Healthy() bool
}

// Router fans reads across healthy replicas and keeps the primary as the
// fallback of last resort. PREDICT and SELECT are reads; everything else
// must execute on the primary. Routing enforces read-your-writes with a
// minimum CSN: a node whose engine fails CheckFloor against the session's
// last write is skipped.
//
// Failure handling: a query error from a node that has since gone
// unhealthy is treated as a node failure and retried on a different node
// after a jittered backoff; an error from a still-healthy node is a
// deterministic statement error and returns to the client. With no
// eligible replica (all partitioned, all lagging), the router degrades to
// primary-only service.
type Router struct {
	primary *engine.DB
	nodes   []ReadNode
	policy  retry.Policy
	cursor  atomic.Uint64

	replicaReads atomic.Uint64
	primaryReads atomic.Uint64
	retries      atomic.Uint64
	fallbacks    atomic.Uint64
	lagged       atomic.Uint64
}

// NewRouter builds a router over the primary engine and its replicas and
// registers routing metrics in the primary's registry. policy shapes the
// inter-node retry backoff (zero value = defaults).
func NewRouter(primary *engine.DB, nodes []ReadNode, policy retry.Policy) *Router {
	rt := &Router{primary: primary, nodes: nodes, policy: policy}
	r := primary.Registry()
	r.CounterFunc("tensorbase_router_replica_reads_total", "reads served by a replica", func() float64 { return float64(rt.replicaReads.Load()) })
	r.CounterFunc("tensorbase_router_primary_reads_total", "reads served by the primary (no eligible replica or fallback)", func() float64 { return float64(rt.primaryReads.Load()) })
	r.CounterFunc("tensorbase_router_retries_total", "reads retried on a different node after a node failure", func() float64 { return float64(rt.retries.Load()) })
	r.CounterFunc("tensorbase_router_fallbacks_total", "reads that fell back to the primary after replica failures", func() float64 { return float64(rt.fallbacks.Load()) })
	r.CounterFunc("tensorbase_router_lagged_total", "replicas skipped because their committed CSN was below the session floor", func() float64 { return float64(rt.lagged.Load()) })
	return rt
}

// IsRead reports whether sqlText is routable to a replica: any statement
// that parses to a SELECT, which includes PREDICT and vector-distance
// queries. Classification is by the parsed statement's kind, not a text
// prefix — `WITH ... SELECT`, parenthesized `(SELECT ...)`, and
// comment-prefixed reads are reads too, and a prefix check would misroute
// all three to the primary. Statements that do not parse are sent to the
// primary, which produces the authoritative error.
func IsRead(sqlText string) bool {
	st, err := sql.Parse(sqlText)
	if err != nil {
		return false
	}
	return sql.ReadOnly(st)
}

// Route executes a read, preferring healthy replicas at or past minCSN
// (the session's read-your-writes floor) and falling back to the primary.
// It returns the result and the name of the node that served it.
func (rt *Router) Route(ctx context.Context, sql string, minCSN uint64) (*engine.Result, string, error) {
	n := len(rt.nodes)
	if n > 0 {
		tok, unwatch := lifecycle.Watch(ctx)
		defer unwatch()
		start := rt.cursor.Add(1)
		tried := 0
		for i := 0; i < n && tried < 3; i++ {
			node := rt.nodes[(start+uint64(i))%uint64(n)]
			if !node.Healthy() {
				continue
			}
			db := node.DB()
			if db.CheckFloor(minCSN) != nil {
				rt.lagged.Add(1)
				continue
			}
			if tried > 0 {
				rt.retries.Add(1)
				if err := retry.Sleep(tok, rt.policy.Backoff(tried)); err != nil {
					return nil, "", err
				}
			}
			tried++
			res, err := db.QueryContext(ctx, sql)
			if err == nil {
				rt.replicaReads.Add(1)
				return res, node.Name(), nil
			}
			if ctx.Err() != nil {
				return nil, node.Name(), err
			}
			if node.Healthy() {
				// The node is fine; the statement is the problem.
				return nil, node.Name(), err
			}
			// The node died under the query — try the next one.
		}
		if tried > 0 {
			rt.fallbacks.Add(1)
		}
	}
	rt.primaryReads.Add(1)
	res, err := rt.primary.QueryContext(ctx, sql)
	return res, "primary", err
}

// Nodes returns the router's read nodes (health-agnostic; for status
// surfaces).
func (rt *Router) Nodes() []ReadNode { return rt.nodes }

// Primary returns the fallback engine.
func (rt *Router) Primary() *engine.DB { return rt.primary }
