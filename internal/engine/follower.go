package engine

import (
	"errors"
	"fmt"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/lockmgr"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/wal"
)

// Follower mode: the replica side of log-shipping replication (see
// internal/repl). A follower engine rejects every local write — SQL
// INSERT/CREATE/DROP, the programmatic twins, LoadModel — and is mutated
// only through ApplyReplicated, which replays one published commit group
// from the primary under the same WAL-then-publish protocol a local
// statement uses. Reads are untouched: SELECT and PREDICT serve
// lock-free snapshots at the replica's applied CSN, exactly as on the
// primary.

// ErrReadOnly is returned for any write attempted on a follower engine.
var ErrReadOnly = errors.New("engine: read-only replica")

// ErrLag is returned by CheckFloor for an engine whose committed horizon
// has not reached a session's read-your-writes floor. It is retriable: read
// elsewhere, or again once the engine has applied the write.
var ErrLag = errors.New("engine: snapshot behind session floor")

// CheckFloor is the read-your-writes check: it fails with ErrLag when the
// committed CSN is below floor. Checking once, before the read, is enough
// because a DB's committed CSN never decreases once Open returns — publish
// advances it in CSN order, followerAdvance only raises it, and the only
// lowering stores are recovery's, inside Open. So a read issued on the same
// *DB after CheckFloor returns nil pins a snapshot at or past floor. Callers
// take the *DB once and check and read on it: a node that crashes and
// reopens serves from a new *DB whose horizon may be lower.
func (db *DB) CheckFloor(floor uint64) error {
	if c := db.committedCSN.Load(); c < floor {
		return fmt.Errorf("%w: at %d, floor %d", ErrLag, c, floor)
	}
	return nil
}

// SetFollower marks the engine a replication follower (or, with false,
// promotes it back to writable). It does not interrupt in-flight local
// statements; callers flip it before serving traffic.
func (db *DB) SetFollower(on bool) { db.follower.Store(on) }

// IsFollower reports whether local writes are rejected.
func (db *DB) IsFollower() bool { return db.follower.Load() }

// CommittedCSN returns the published committed horizon — on a follower,
// the applied CSN its snapshots serve at; on a primary, the newest commit.
func (db *DB) CommittedCSN() uint64 { return db.committedCSN.Load() }

// followerAdvance publishes csn on a follower, allowing jumps: a resync
// lands the replica at the primary's snapshot CSN without the intermediate
// numbers ever existing locally.
func (db *DB) followerAdvance(csn uint64) {
	db.pubMu.Lock()
	if csn > db.committedCSN.Load() {
		db.committedCSN.Store(csn)
	}
	db.pubMu.Unlock()
	db.pubCond.Broadcast()
	db.csnMu.Lock()
	if csn > db.nextCSN {
		db.nextCSN = csn
	}
	db.csnMu.Unlock()
}

// ApplyReplicated replays one shipped commit group — every record of one
// published CSN from the primary, or a whole resync snapshot stamped with
// the snapshot CSN — into this engine. The group commits atomically
// through the local WAL: records are appended first, applied physically,
// and a commit record gates the whole group, so recovery after a crash
// mid-apply restores the pre-group state and the stream re-delivers.
//
// Model weights travel as RecBlock records (deduplicated: the stream
// carries only blocks the replica reported missing) followed by the
// manifest-bearing RecLoadModel, so a shipped group is self-contained in
// the replica's WAL — no side-channel files to stage or leak.
//
// With resync set, the group is a full snapshot: every local table is
// dropped and every local model unloaded first (inside the same WAL commit
// group — recovery handles drop-then-recreate of a name within one group),
// then the snapshot's creates/inserts/model loads apply. nil recs advance
// the applied CSN only (the primary published an abort).
//
// Contract on error: the engine may hold a half-applied group in memory.
// The caller must Crash() and re-Open — recovery rolls the group back
// (no commit record) — before applying anything else.
func (db *DB) ApplyReplicated(csn uint64, recs []*wal.Record, resync bool) error {
	if csn <= db.committedCSN.Load() {
		return nil // duplicate delivery of an already-applied group
	}

	// Build the lock request the way a local statement would: the DDL latch
	// whenever the group changes the table or model set, plus exclusive
	// locks on every table the group writes. The applier is the only writer
	// on a follower, but the latch still serializes against the background
	// checkpointer.
	ddl := resync
	tableSet := make(map[string]bool)
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert:
			tableSet[r.Table] = true
		case wal.RecCreateTable, wal.RecDropTable:
			ddl = true
			tableSet[r.Table] = true
		case wal.RecLoadModel, wal.RecBlock, wal.RecDropModel:
			ddl = true
		}
	}
	if resync {
		// The snapshot replaces everything: the replica's current tables
		// and models are dropped inside the group. Shared weight blocks
		// survive the drop-then-reload — Release never frees, only the
		// post-commit Sweep does, by which point the reloaded manifests
		// hold their references again.
		var drops []*wal.Record
		for _, name := range db.cat.Tables() {
			tableSet[name] = true
			drops = append(drops, &wal.Record{Type: wal.RecDropTable, CSN: csn, Table: name})
		}
		for _, name := range db.cat.Models() {
			drops = append(drops, &wal.Record{Type: wal.RecDropModel, CSN: csn, Model: name})
		}
		recs = append(drops, recs...)
	}
	req := lockmgr.Request{DDL: ddl}
	for name := range tableSet {
		req.Tables = append(req.Tables, lockmgr.TableLock{Table: name, Mode: lockmgr.Exclusive})
	}
	if req.DDL || len(req.Tables) > 0 {
		held, err := db.locks.Acquire(nil, req)
		if err != nil {
			return err
		}
		defer held.Release()
	}

	// Log the whole group before touching any physical state, so a crash at
	// any point either replays all of it (commit record present) or none.
	for _, r := range recs {
		if _, err := db.wal.Append(r); err != nil {
			return fmt.Errorf("engine: apply csn %d: logging: %w", csn, err)
		}
	}

	// Physical apply, in record order — the live twin of recovery's pass 2.
	// Dropped heaps keep their pages until after the commit record: a
	// failure before the commit must leave the old state readable.
	type droppedHeap struct {
		heap  *table.Heap
		pages []storage.PageID
	}
	var dropped []droppedHeap
	for _, r := range recs {
		switch r.Type {
		case wal.RecCreateTable:
			cols := make([]table.Column, len(r.Cols))
			for i, c := range r.Cols {
				cols[i] = table.Column{Name: c.Name, Type: table.ColType(c.Type)}
			}
			schema, err := table.NewSchema(cols...)
			if err != nil {
				return fmt.Errorf("engine: apply CREATE %q: %w", r.Table, err)
			}
			heap, err := table.NewHeap(db.pool, schema)
			if err != nil {
				return fmt.Errorf("engine: apply CREATE %q: %w", r.Table, err)
			}
			if err := db.cat.CreateTable(r.Table, heap); err != nil {
				return fmt.Errorf("engine: apply CREATE %q: %w", r.Table, err)
			}
		case wal.RecInsert:
			te, err := db.cat.Table(r.Table)
			if err != nil {
				return fmt.Errorf("engine: apply INSERT: %w", err)
			}
			if _, err := te.Heap.InsertRecordAt(r.Data, r.CSN); err != nil {
				return fmt.Errorf("engine: apply INSERT into %q: %w", r.Table, err)
			}
		case wal.RecDropTable:
			te, err := db.cat.Table(r.Table)
			if err != nil {
				return fmt.Errorf("engine: apply DROP: %w", err)
			}
			pages, err := te.Heap.Pages()
			if err != nil {
				return fmt.Errorf("engine: apply DROP %q: %w", r.Table, err)
			}
			if err := db.cat.DropTable(r.Table); err != nil {
				return fmt.Errorf("engine: apply DROP %q: %w", r.Table, err)
			}
			dropped = append(dropped, droppedHeap{te.Heap, pages})
		case wal.RecBlock:
			if _, err := db.blocks.PutStagedBytes(r.Data); err != nil {
				return fmt.Errorf("engine: apply weight block: %w", err)
			}
		case wal.RecLoadModel:
			if _, err := db.cat.Model(r.Model); err == nil {
				continue // already registered (models are immutable once named)
			}
			if err := db.installManifest(r.Data, r.Acc, nil); err != nil {
				return fmt.Errorf("engine: apply LOAD MODEL %q: %w", r.Model, err)
			}
		case wal.RecDropModel:
			if _, err := db.cat.ModelEntryFor(r.Model); err == nil {
				db.unregisterModel(r.Model)
			}
		default:
			return fmt.Errorf("engine: apply: unexpected record type %d", r.Type)
		}
	}
	if err := db.wal.Commit(csn); err != nil {
		return fmt.Errorf("engine: apply csn %d: commit: %w", csn, err)
	}
	// Post-commit reclamation, as in execDrop: wait out in-flight snapshot
	// scans of the dropped heaps, then free their pages, and sweep weight
	// blocks no surviving manifest references. A failure here leaks pages —
	// never corruption — so the applied CSN still advances.
	var leakErr error
	for _, d := range dropped {
		d.heap.Drain()
		d.heap.Release()
		for _, id := range d.pages {
			if err := db.pool.FreePage(id); err != nil && leakErr == nil {
				leakErr = fmt.Errorf("engine: apply csn %d: reclaiming pages: %w", csn, err)
			}
		}
	}
	db.blocks.Sweep()
	db.followerAdvance(csn)
	return leakErr
}

// ModelManifest is one model inside a replica snapshot: its identity plus
// the encoded block manifest. The weight bytes themselves are NOT here —
// the replica reports which blocks it is missing and the primary ships
// only those (see MissingBlocks / BlockPayload).
type ModelManifest struct {
	Name     string
	Acc      float64
	Manifest []byte
}

// ReplicaSnapshot captures a full logical copy of the committed database —
// the resync payload for a replica that fell behind a WAL truncation. It
// holds the DDL latch throughout, pinning the committed horizon against
// CREATE/DROP/LoadModel; concurrent INSERTs may publish during the scan but
// their rows are stamped above the pinned CSN and invisible to it. Every
// returned record is stamped with the snapshot CSN. Memory-resident models
// (no manifest) are skipped, matching their single-process durability
// contract.
func (db *DB) ReplicaSnapshot() (uint64, []*wal.Record, []ModelManifest, error) {
	ddl, err := db.locks.Acquire(nil, lockmgr.Request{DDL: true})
	if err != nil {
		return 0, nil, nil, err
	}
	defer ddl.Release()
	csn := db.committedCSN.Load()
	var recs []*wal.Record
	for _, name := range db.cat.Tables() {
		te, err := db.cat.Table(name)
		if err != nil {
			return 0, nil, nil, err
		}
		schema := te.Heap.Schema()
		create := &wal.Record{Type: wal.RecCreateTable, CSN: csn, Table: name}
		for _, c := range schema.Cols {
			create.Cols = append(create.Cols, wal.Col{Name: c.Name, Type: uint8(c.Type)})
		}
		recs = append(recs, create)
		sc := te.Heap.ScanAt(csn)
		for {
			tup, ok, err := sc.Next()
			if err != nil {
				return 0, nil, nil, fmt.Errorf("engine: snapshot scan of %q: %w", name, err)
			}
			if !ok {
				break
			}
			data, err := table.Encode(schema, tup)
			if err != nil {
				return 0, nil, nil, fmt.Errorf("engine: snapshot encode of %q: %w", name, err)
			}
			recs = append(recs, &wal.Record{Type: wal.RecInsert, CSN: csn, Table: name, Data: data})
		}
	}
	var models []ModelManifest
	for _, name := range db.cat.Models() {
		entry, err := db.cat.ModelEntryFor(name)
		if err != nil {
			return 0, nil, nil, err
		}
		mf, ok := db.manifestFor(name)
		if !ok {
			continue
		}
		models = append(models, ModelManifest{
			Name:     name,
			Acc:      entry.Versions[0].Accuracy,
			Manifest: nn.EncodeManifest(mf),
		})
	}
	return csn, recs, models, nil
}

// MissingBlocks decodes each encoded manifest and returns the hashes of
// every referenced block not resident in this engine's store, deduplicated,
// in first-reference order — the replica's "send me these" list during a
// resync handshake.
func (db *DB) MissingBlocks(manifests [][]byte) ([]blockstore.Hash, error) {
	seen := make(map[blockstore.Hash]bool)
	var missing []blockstore.Hash
	for _, raw := range manifests {
		mf, err := nn.DecodeManifest(raw)
		if err != nil {
			return nil, fmt.Errorf("engine: resync manifest: %w", err)
		}
		for _, h := range mf.Hashes() {
			if seen[h] || db.blocks.Has(h) {
				continue
			}
			seen[h] = true
			missing = append(missing, h)
		}
	}
	return missing, nil
}

// BlockPayload returns the encoded bytes of a resident block — the primary
// side of the resync block fetch. ok is false when no block with that hash
// is resident (the replica asked for something this primary never had, or
// a drop swept it between snapshot and fetch; the replica treats that as a
// failed resync and reconnects).
func (db *DB) BlockPayload(h blockstore.Hash) ([]byte, bool) {
	data, ok := db.blocks.BlockData(h)
	if !ok {
		return nil, false
	}
	return blockstore.Encode(data), true
}
