package engine

import (
	"fmt"

	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/wal"
)

// Crash recovery. The durable state of a database is (last checkpoint) +
// (WAL): the checkpoint's meta file commits a page image, a free list, and
// the recovery inputs below; every statement committed since lives only in
// the log. The heap pages carry no per-page LSNs, so replay cannot be
// idempotent against partially flushed post-checkpoint writes — instead
// recovery makes it duplicate-free by construction: ALL physical state
// written after the checkpoint is discarded first (heap tails truncated to
// their checkpointed slot counts, pages allocated since returned to the
// free list, checkpoint-era tables with a committed drop removed outright),
// and then the committed suffix of the log is replayed onto the clean base.
// Recovery ends with a checkpoint, so the log is consumed exactly once.

// checkpointInfo carries a checkpoint's recovery inputs from loadCatalog to
// recover. Nil on a fresh database.
type checkpointInfo struct {
	// CommitCSN is the committed horizon the checkpoint captured; commit
	// records at or below it are already folded into the base state.
	CommitCSN uint64
	// NumPages is the database file length (in pages) at the checkpoint;
	// pages at or beyond it were allocated afterwards and are orphans.
	NumPages uint32
	// LastSlots maps each table to the slot count of its checkpointed tail
	// page — ResetTail's input.
	LastSlots map[string]int
	// Pages maps each table to its checkpointed page chain. Recovery frees
	// a dropped table from this list rather than walking the on-disk chain,
	// which post-checkpoint reuse may have zeroed.
	Pages map[string][]storage.PageID
}

// recover replays the write-ahead log over the loaded checkpoint and
// leaves a fresh checkpoint behind, so a database that opens successfully
// always has its committed state in the base image and an empty log.
func (db *DB) recover() error {
	base := uint64(0)
	if db.ckptInfo != nil {
		base = db.ckptInfo.CommitCSN
	}
	db.nextCSN = base
	db.committedCSN.Store(base)
	// An empty log needs no checkpoint: the loaded catalog (or, on a fresh
	// database, the empty state) IS the base.
	if db.wal.Size() == 0 {
		return nil
	}
	if err := db.replayWAL(); err != nil {
		return err
	}
	return db.Checkpoint()
}

// replayWAL discards post-checkpoint physical state and applies the
// committed suffix of the log, in log order.
func (db *DB) replayWAL() error {
	info := db.ckptInfo
	if info == nil {
		info = &checkpointInfo{}
	}

	// Pass 1: find which statements committed, and which checkpoint-era
	// tables a committed drop removed (a statement's commit record follows
	// its payload records, so drops are collected and filtered afterwards).
	committed := make(map[uint64]bool)
	type dropRec struct {
		csn  uint64
		name string
	}
	var drops []dropRec
	if err := db.wal.Replay(func(r *wal.Record) error {
		switch r.Type {
		case wal.RecCommit:
			if r.CSN > info.CommitCSN {
				committed[r.CSN] = true
			}
		case wal.RecDropTable:
			drops = append(drops, dropRec{r.CSN, r.Table})
		}
		return nil
	}); err != nil {
		return err
	}
	droppedBase := make(map[string]bool)
	for _, d := range drops {
		if _, isBase := info.LastSlots[d.name]; isBase && committed[d.csn] {
			droppedBase[d.name] = true
		}
	}

	// Discard: drop committed-dropped base tables from their recorded page
	// lists (their on-disk chains may be zeroed by post-checkpoint reuse),
	// truncate every surviving base table to its checkpointed tail, and
	// free the pages allocated after the checkpoint.
	for _, name := range db.cat.Tables() {
		te, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		if droppedBase[name] {
			if err := db.cat.DropTable(name); err != nil {
				return err
			}
			for _, id := range info.Pages[name] {
				if err := db.pool.FreePage(id); err != nil {
					return fmt.Errorf("engine: freeing dropped table %q page %d: %w", name, id, err)
				}
			}
			continue
		}
		slots, ok := info.LastSlots[name]
		if !ok {
			return fmt.Errorf("engine: checkpoint has no tail state for table %q", name)
		}
		if err := te.Heap.ResetTail(slots, te.Heap.Count()); err != nil {
			return fmt.Errorf("engine: resetting %q to its checkpointed tail: %w", name, err)
		}
	}
	for id := info.NumPages; id < db.disk.NumPages(); id++ {
		if err := db.pool.FreePage(storage.PageID(id)); err != nil {
			return fmt.Errorf("engine: freeing orphan page %d: %w", id, err)
		}
	}

	// Pass 2: apply the committed suffix in log order. A record whose table
	// is absent from the catalog belongs to an instance a later committed
	// drop removed (handled above or earlier in the log) — skipped.
	maxCSN := info.CommitCSN
	maxCommitted := info.CommitCSN
	if err := db.wal.Replay(func(r *wal.Record) error {
		if r.CSN > maxCSN {
			maxCSN = r.CSN
		}
		if committed[r.CSN] && r.CSN > maxCommitted {
			maxCommitted = r.CSN
		}
		if r.Type == wal.RecCommit || !committed[r.CSN] {
			return nil
		}
		switch r.Type {
		case wal.RecCreateTable:
			cols := make([]table.Column, len(r.Cols))
			for i, c := range r.Cols {
				cols[i] = table.Column{Name: c.Name, Type: table.ColType(c.Type)}
			}
			schema, err := table.NewSchema(cols...)
			if err != nil {
				return fmt.Errorf("engine: replaying CREATE %q: %w", r.Table, err)
			}
			heap, err := table.NewHeap(db.pool, schema)
			if err != nil {
				return fmt.Errorf("engine: replaying CREATE %q: %w", r.Table, err)
			}
			if err := db.cat.CreateTable(r.Table, heap); err != nil {
				return fmt.Errorf("engine: replaying CREATE %q: %w", r.Table, err)
			}
		case wal.RecInsert:
			te, err := db.cat.Table(r.Table)
			if err != nil {
				return nil // insert into an instance a later drop removed
			}
			if _, err := te.Heap.InsertRecordAt(r.Data, r.CSN); err != nil {
				return fmt.Errorf("engine: replaying INSERT into %q: %w", r.Table, err)
			}
		case wal.RecDropTable:
			te, err := db.cat.Table(r.Table)
			if err != nil {
				return nil // the base instance, already removed
			}
			pages, err := te.Heap.Pages()
			if err != nil {
				return fmt.Errorf("engine: replaying DROP %q: %w", r.Table, err)
			}
			if err := db.cat.DropTable(r.Table); err != nil {
				return fmt.Errorf("engine: replaying DROP %q: %w", r.Table, err)
			}
			for _, id := range pages {
				if err := db.pool.FreePage(id); err != nil {
					return fmt.Errorf("engine: replaying DROP %q: %w", r.Table, err)
				}
			}
		case wal.RecBlock:
			// Stage the block so the manifest record that follows in the
			// same group can assemble against it. Re-staging a block that
			// is already resident (the checkpoint wrote it before the
			// crash) is a no-op.
			if _, err := db.blocks.PutStagedBytes(r.Data); err != nil {
				return fmt.Errorf("engine: replaying weight block: %w", err)
			}
		case wal.RecLoadModel:
			if err := db.installManifest(r.Data, r.Acc, nil); err != nil {
				return fmt.Errorf("engine: replaying LOAD MODEL %q: %w", r.Model, err)
			}
		case wal.RecDropModel:
			// Tolerant: the model may be absent (a crash between the WAL
			// append and the in-memory unregister replays the drop against
			// a catalog that never saw the load, or the checkpoint already
			// folded it in).
			if _, err := db.cat.ModelEntryFor(r.Model); err == nil {
				db.unregisterModel(r.Model)
			}
		default:
			return fmt.Errorf("engine: replay: unknown WAL record type %d", r.Type)
		}
		return nil
	}); err != nil {
		return err
	}

	// Free blocks no surviving manifest references: a replayed DROP MODEL
	// releases its manifest's references, and the checkpoint that ends
	// recovery persists only referenced blocks.
	db.blocks.Sweep()

	// Resume CSNs above everything the log mentions — including uncommitted
	// statements, whose numbers must not be reissued while their records
	// are still in the log (the checkpoint that ends recovery empties it).
	// A follower instead resumes at the highest COMMITTED CSN: an
	// uncommitted suffix is a replicated group whose apply died mid-way,
	// and counting it as applied would make the replica skip its
	// re-delivery (followers never allocate CSNs, so reissue is moot).
	if db.follower.Load() {
		db.nextCSN = maxCommitted
		db.committedCSN.Store(maxCommitted)
		return nil
	}
	db.nextCSN = maxCSN
	db.committedCSN.Store(maxCSN)
	return nil
}
