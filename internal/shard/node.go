package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/sql"
)

// Node is one shard's serving endpoint. It takes statements the
// coordinator parsed and planned, and only reads them. floor is the
// session's read-your-writes floor for this shard: the minimum committed
// CSN the read's snapshot must include. It is checked once, on the DB that
// serves the read; a shard behind it fails with engine.ErrLag, and a down
// node fails with ErrUnavailable.
type Node interface {
	Name() string

	// Query runs one read on a snapshot at or past floor.
	Query(ctx context.Context, st *sql.Select, floor uint64) (*engine.Result, error)

	// Exec runs one write statement and returns its result plus the
	// node's committed CSN afterwards — the session's new floor.
	Exec(ctx context.Context, st sql.Statement) (*engine.Result, uint64, error)

	// LoadModel registers (or upgrades) a model on this shard.
	LoadModel(m *nn.Model, accuracy float64) error

	// Close shuts the node down.
	Close() error
}

// LocalNode is an in-process shard: a full engine at its own path. Kill and
// Restart simulate node failure with the engine's own crash machinery, so a
// killed shard loses nothing durable and recovers by WAL replay.
type LocalNode struct {
	name string
	path string
	opts engine.Options

	mu    sync.Mutex // serialises Kill/Restart
	db    atomic.Pointer[engine.DB]
	alive atomic.Bool
}

// NewLocalNode opens an engine at path and wraps it as a shard node.
func NewLocalNode(name, path string, opts engine.Options) (*LocalNode, error) {
	db, err := engine.Open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", name, err)
	}
	n := &LocalNode{name: name, path: path, opts: opts}
	n.db.Store(db)
	n.alive.Store(true)
	return n, nil
}

// Name implements Node.
func (n *LocalNode) Name() string { return n.name }

// DB exposes the underlying engine (nil while killed).
func (n *LocalNode) DB() *engine.DB {
	if !n.alive.Load() {
		return nil
	}
	return n.db.Load()
}

// Kill crashes the node: the engine drops its volatile state as a real
// crash would, and every subsequent call fails with ErrUnavailable until
// Restart.
func (n *LocalNode) Kill() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive.Load() {
		return nil
	}
	n.alive.Store(false)
	return n.db.Load().Crash()
}

// Restart reopens the engine from its durable state.
func (n *LocalNode) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive.Load() {
		return nil
	}
	db, err := engine.Open(n.path, n.opts)
	if err != nil {
		return fmt.Errorf("shard %s: restart: %w", n.name, err)
	}
	n.db.Store(db)
	n.alive.Store(true)
	return nil
}

// Close implements Node: it shuts the node down cleanly.
func (n *LocalNode) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive.Load() {
		return nil
	}
	n.alive.Store(false)
	return n.db.Load().Close()
}

// live returns the engine or ErrUnavailable.
func (n *LocalNode) live() (*engine.DB, error) {
	if !n.alive.Load() {
		return nil, fmt.Errorf("%w: %s is down", ErrUnavailable, n.name)
	}
	return n.db.Load(), nil
}

// Query implements Node.
func (n *LocalNode) Query(ctx context.Context, st *sql.Select, floor uint64) (*engine.Result, error) {
	db, err := n.live()
	if err != nil {
		return nil, err
	}
	if err := db.CheckFloor(floor); err != nil {
		return nil, err
	}
	res, err := db.Run(ctx, st)
	if err != nil {
		if !n.alive.Load() {
			return nil, fmt.Errorf("%w: %s died mid-query: %v", ErrUnavailable, n.name, err)
		}
		return nil, err
	}
	return res, nil
}

// Exec implements Node.
func (n *LocalNode) Exec(ctx context.Context, st sql.Statement) (*engine.Result, uint64, error) {
	db, err := n.live()
	if err != nil {
		return nil, 0, err
	}
	res, err := db.Run(ctx, st)
	if err != nil {
		if !n.alive.Load() {
			return nil, 0, fmt.Errorf("%w: %s died mid-statement: %v", ErrUnavailable, n.name, err)
		}
		return nil, 0, err
	}
	return res, db.CommittedCSN(), nil
}

// LoadModel implements Node.
func (n *LocalNode) LoadModel(m *nn.Model, accuracy float64) error {
	db, err := n.live()
	if err != nil {
		return err
	}
	return db.LoadModel(m, accuracy)
}
