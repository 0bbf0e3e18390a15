package engine

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// Catalog persistence. Table metadata (schemas, heap page chains, row
// counts) is written as JSON to <db>.meta on Close and restored on Open;
// model weights live as content-addressed block files in a <db>.blocks/
// directory (one immutable file per distinct 64 KiB block, named by its
// SHA-256), with each model's manifest embedded in the meta file. Page
// data itself lives in the database file, so a reopened engine sees every
// table and model that was present at the last clean Close.
//
// Durability contract: a crash at ANY point during saveCatalog leaves the
// database openable with either the previous catalog or the new one, never
// a hybrid. The save is structured around block immutability:
//
//  1. Block files are content-addressed and never overwritten: only blocks
//     missing from <db>.blocks/ are written (tmp + fsync + rename), so a
//     checkpoint where no model changed writes zero model bytes, and files
//     referenced by the committed meta are never touched.
//  2. The blocks directory is fsynced when anything was written.
//  3. The meta file — carrying every model's manifest — is written via
//     tmp + fsync + rename + parent-dir fsync; the rename is the commit
//     point.
//  4. Only after the commit are unreferenced block files deleted.
//
// Every step carries a fault point ("persist.*") so tests can kill the save
// mid-way and assert the old-or-new invariant.

// Fault points exercised by the persistence crash tests, in save order.
const (
	fpBlockCreate   = "persist.block.create"
	fpBlockWrite    = "persist.block.write"
	fpBlockSync     = "persist.block.sync"
	fpBlockRename   = "persist.block.rename"
	fpBlocksDirSync = "persist.blocksdir.sync"
	fpMetaWrite     = "persist.meta.write"
	fpMetaSync      = "persist.meta.sync"
	fpMetaRename    = "persist.meta.rename"
	fpMetaDirSync   = "persist.metadir.sync"
)

// PersistFaultPoints lists every fault point in saveCatalog, in the order
// they are visited — the crash test iterates it so a new step cannot be
// added without being covered.
var PersistFaultPoints = []string{
	fpBlockCreate, fpBlockWrite, fpBlockSync, fpBlockRename,
	fpBlocksDirSync, fpMetaWrite, fpMetaSync, fpMetaRename, fpMetaDirSync,
}

// metaFile is the serialised catalog: tables with the WAL checkpoint's
// recovery inputs, and models as block manifests against the
// content-addressed <db>.blocks/ directory. Only metaVersion is read.
type metaFile struct {
	Version int `json:"version"`
	// Generation increments on every committed save.
	Generation uint64      `json:"generation"`
	Tables     []metaTable `json:"tables"`
	Models     []metaModel `json:"models"`
	// FreePages is the storage free list (pages reclaimed by DROP TABLE),
	// committed atomically with the table set at the meta rename: a crash
	// can lose a free (a leak) but can never free a page a committed table
	// still references.
	FreePages []uint32 `json:"free_pages,omitempty"`
	// CommitCSN is the committed horizon folded into this checkpoint; WAL
	// commit records at or below it are already in the page image.
	CommitCSN uint64 `json:"commit_csn,omitempty"`
	// NumPages is the database file length at the checkpoint; recovery
	// treats pages at or beyond it as post-checkpoint orphans.
	NumPages uint32 `json:"num_pages,omitempty"`
}

type metaTable struct {
	Name  string       `json:"name"`
	Cols  []metaColumn `json:"cols"`
	First uint32       `json:"first_page"`
	Last  uint32       `json:"last_page"`
	Count int64        `json:"count"`
	// LastSlots is the tail page's slot count at the checkpoint — the
	// input recovery feeds Heap.ResetTail before replaying the log.
	LastSlots int `json:"last_slots"`
	// Pages is the full page chain at the checkpoint, so recovery can free
	// a dropped table without walking on-disk links that post-checkpoint
	// page reuse may have zeroed.
	Pages []uint32 `json:"pages"`
}

type metaColumn struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

type metaModel struct {
	Name     string  `json:"name"`
	Accuracy float64 `json:"accuracy"`
	// Manifest is the model's TBMF manifest, base64-encoded. The weight
	// bytes live as block files under <db>.blocks/.
	Manifest string `json:"manifest"`
}

// metaVersion is the only catalog format: block-manifest models (v3).
const metaVersion = 3

func (db *DB) metaPath() string { return db.path + ".meta" }

// blocksDir holds one immutable file per distinct weight block, named by
// the block's content hash.
func (db *DB) blocksDir() string { return db.path + ".blocks" }

func (db *DB) blockPath(h blockstore.Hash) string {
	return filepath.Join(db.blocksDir(), h.String()+".blk")
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: syncing dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("engine: syncing dir %s: %w", dir, err)
	}
	return nil
}

// saveBlockDurable writes one block file via tmp + fsync + rename. A
// failure (or injected crash) at any step leaves at most a *.tmp leftover;
// the final name never holds partial bytes — and since block files are
// content-addressed, a committed name is never rewritten.
func (db *DB) saveBlockDurable(h blockstore.Hash, data []float32) error {
	file := db.blockPath(h)
	tmp := file + ".tmp"
	if err := db.faults.Check(fpBlockCreate); err != nil {
		return err
	}
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: creating %s: %w", tmp, err)
	}
	err = db.faults.Check(fpBlockWrite)
	if err == nil {
		_, err = f.Write(blockstore.Encode(data))
	}
	if err == nil {
		if err = db.faults.Check(fpBlockSync); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("engine: writing %s: %w", tmp, err)
	}
	if err := db.faults.Check(fpBlockRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, file); err != nil {
		return fmt.Errorf("engine: committing %s: %w", file, err)
	}
	return nil
}

// saveCatalog serialises the catalog next to the database file. See the
// package comment for the crash-safety protocol.
func (db *DB) saveCatalog() error {
	newGen := db.gen + 1
	// The file length and the free list are read in one step: a spilling
	// sort allocates and frees pages under snapshot reads, which the
	// checkpoint's locks do not exclude.
	numPages, free := db.disk.FreeList()
	meta := metaFile{
		Version:    metaVersion,
		Generation: newGen,
		CommitCSN:  db.committedCSN.Load(),
		NumPages:   numPages,
	}
	for _, id := range free {
		meta.FreePages = append(meta.FreePages, uint32(id))
	}
	for _, name := range db.cat.Tables() {
		te, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		slots, err := te.Heap.LastSlots()
		if err != nil {
			return fmt.Errorf("engine: reading %q tail state: %w", name, err)
		}
		pages, err := te.Heap.Pages()
		if err != nil {
			return fmt.Errorf("engine: walking %q page chain: %w", name, err)
		}
		mt := metaTable{
			Name:      name,
			First:     uint32(te.Heap.FirstPage()),
			Last:      uint32(te.Heap.LastPage()),
			Count:     te.Heap.Count(),
			LastSlots: slots,
		}
		for _, id := range pages {
			mt.Pages = append(mt.Pages, uint32(id))
		}
		for _, c := range te.Heap.Schema().Cols {
			mt.Cols = append(mt.Cols, metaColumn{Name: c.Name, Type: uint8(c.Type)})
		}
		meta.Tables = append(meta.Tables, mt)
	}
	// Models: embed each durable model's manifest in the meta and persist
	// only the referenced blocks that have no file yet. Memory-resident
	// models (nil manifest) are skipped — exactly the pre-WAL contract.
	referenced := make(map[blockstore.Hash]bool)
	for _, name := range db.cat.Models() {
		mf, ok := db.manifestFor(name)
		if !ok {
			continue
		}
		entry, err := db.cat.ModelEntryFor(name)
		if err != nil {
			return err
		}
		for _, h := range mf.Hashes() {
			referenced[h] = true
		}
		meta.Models = append(meta.Models, metaModel{
			Name:     name,
			Accuracy: entry.Versions[0].Accuracy,
			Manifest: base64.StdEncoding.EncodeToString(nn.EncodeManifest(mf)),
		})
	}
	wrote := false
	for _, h := range db.blocks.ReferencedHashes() {
		if !referenced[h] || db.persistedBlocks[h] {
			continue
		}
		if !wrote {
			if err := os.MkdirAll(db.blocksDir(), 0o755); err != nil {
				return fmt.Errorf("engine: creating blocks dir: %w", err)
			}
		}
		data, ok := db.blocks.BlockData(h)
		if !ok {
			return fmt.Errorf("engine: referenced block %s not resident", h)
		}
		if err := db.saveBlockDurable(h, data); err != nil {
			return err
		}
		wrote = true
		db.persistedBlocks[h] = true
	}
	if wrote {
		if err := db.faults.Check(fpBlocksDirSync); err != nil {
			return err
		}
		if err := syncDir(db.blocksDir()); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := db.metaPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: writing catalog: %w", err)
	}
	err = db.faults.Check(fpMetaWrite)
	if err == nil {
		_, err = f.Write(raw)
	}
	if err == nil {
		if err = db.faults.Check(fpMetaSync); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("engine: writing catalog: %w", err)
	}
	if err := db.faults.Check(fpMetaRename); err != nil {
		return err
	}
	// Commit point: after this rename the new catalog is the catalog.
	if err := os.Rename(tmp, db.metaPath()); err != nil {
		return fmt.Errorf("engine: committing catalog: %w", err)
	}
	if err := db.faults.Check(fpMetaDirSync); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(db.metaPath())); err != nil {
		return err
	}
	db.gen = newGen
	db.gcBlockFiles(referenced)
	return nil
}

// gcBlockFiles removes block files the just-committed meta no longer
// references and tmp leftovers from interrupted saves. Best-effort: a
// failure here leaves garbage, never corruption.
func (db *DB) gcBlockFiles(referenced map[blockstore.Hash]bool) {
	entries, err := os.ReadDir(db.blocksDir())
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(db.blocksDir(), name))
			continue
		}
		h, perr := blockstore.ParseHash(strings.TrimSuffix(name, ".blk"))
		if perr != nil || !referenced[h] {
			os.Remove(filepath.Join(db.blocksDir(), name))
			if perr == nil {
				delete(db.persistedBlocks, h)
			}
		}
	}
}

// stageBlockFile loads one block file into the store, verifying that its
// content matches its name — a corrupt or truncated file fails here, not
// at serving time.
func (db *DB) stageBlockFile(h blockstore.Hash) error {
	raw, err := os.ReadFile(db.blockPath(h))
	if err != nil {
		return fmt.Errorf("engine: reading block %s: %w", h, err)
	}
	got, err := db.blocks.PutStagedBytes(raw)
	if err != nil {
		return fmt.Errorf("engine: block %s: %w", h, err)
	}
	if got != h {
		return fmt.Errorf("engine: block file %s content hashes to %s", h, got)
	}
	return nil
}

// loadCatalog restores tables and models from a previous Close. A missing
// meta file is a fresh database, not an error.
func (db *DB) loadCatalog() error {
	raw, err := os.ReadFile(db.metaPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("engine: reading catalog: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(raw, &meta); err != nil {
		return fmt.Errorf("engine: corrupt catalog %s: %w", db.metaPath(), err)
	}
	if meta.Version != metaVersion {
		return fmt.Errorf("engine: unsupported catalog version %d", meta.Version)
	}
	db.gen = meta.Generation
	info := &checkpointInfo{
		CommitCSN: meta.CommitCSN,
		NumPages:  meta.NumPages,
		LastSlots: make(map[string]int, len(meta.Tables)),
		Pages:     make(map[string][]storage.PageID, len(meta.Tables)),
	}
	db.ckptInfo = info
	if len(meta.FreePages) > 0 {
		free := make([]storage.PageID, len(meta.FreePages))
		for i, id := range meta.FreePages {
			free[i] = storage.PageID(id)
		}
		if err := db.disk.RestoreFreeList(free); err != nil {
			return fmt.Errorf("engine: restoring free list: %w", err)
		}
	}
	for _, mt := range meta.Tables {
		cols := make([]table.Column, len(mt.Cols))
		for i, c := range mt.Cols {
			cols[i] = table.Column{Name: c.Name, Type: table.ColType(c.Type)}
		}
		schema, err := table.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("engine: restoring table %s: %w", mt.Name, err)
		}
		if uint32(db.disk.NumPages()) <= mt.First || uint32(db.disk.NumPages()) <= mt.Last {
			return fmt.Errorf("engine: catalog references pages beyond the database file (table %s)", mt.Name)
		}
		heap := table.OpenHeap(db.pool, schema, storage.PageID(mt.First), storage.PageID(mt.Last), mt.Count)
		if err := db.cat.CreateTable(mt.Name, heap); err != nil {
			return err
		}
		info.LastSlots[mt.Name] = mt.LastSlots
		pages := make([]storage.PageID, len(mt.Pages))
		for i, id := range mt.Pages {
			pages[i] = storage.PageID(id)
		}
		info.Pages[mt.Name] = pages
	}
	for _, mm := range meta.Models {
		if err := db.loadManifestModel(mm); err != nil {
			return err
		}
	}
	return nil
}

// loadManifestModel restores one model: decode its manifest, stage any
// block files not already resident (verifying content hashes), and
// assemble the serving model against the shared store.
func (db *DB) loadManifestModel(mm metaModel) error {
	raw, err := base64.StdEncoding.DecodeString(mm.Manifest)
	if err != nil {
		return fmt.Errorf("engine: restoring model %s: manifest: %w", mm.Name, err)
	}
	err = db.installManifest(raw, mm.Accuracy, func(mf *nn.Manifest) error {
		for _, h := range mf.Hashes() {
			if !db.blocks.Has(h) {
				if err := db.stageBlockFile(h); err != nil {
					return err
				}
			}
			db.persistedBlocks[h] = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: restoring model %s: %w", mm.Name, err)
	}
	return nil
}

// installManifest brings back a durable model from its encoded manifest:
// decode, assemble against the block store, register — the one path
// checkpoint restore, WAL replay and replicated apply share. stage, when
// non-nil, runs on the decoded manifest before assembly so the caller can
// make its blocks resident. If registration fails the manifest's block
// references are released.
func (db *DB) installManifest(raw []byte, accuracy float64, stage func(*nn.Manifest) error) error {
	if len(raw) == 0 {
		return fmt.Errorf("engine: model carries no manifest")
	}
	mf, err := nn.DecodeManifest(raw)
	if err != nil {
		return err
	}
	if stage != nil {
		if err := stage(mf); err != nil {
			return err
		}
	}
	am, err := nn.ModelFromManifest(mf, db.blocks)
	if err != nil {
		return err
	}
	if err := db.registerModel(am, accuracy, mf); err != nil {
		nn.ReleaseManifest(mf, db.blocks)
		return err
	}
	return nil
}
