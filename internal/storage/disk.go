// Package storage implements the paged storage layer of the database:
// a disk manager over a single file, slotted record pages, and a pinning
// buffer pool with LRU replacement. This is the substrate that gives the
// relation-centric execution path its headline property from the paper —
// tensor blocks that exceed memory spill to disk through the buffer pool
// instead of failing with an out-of-memory error.
//
// Failure model: every page carries a CRC32-C checksum over its payload,
// stamped on write and verified on read, so a bit flip on disk surfaces as
// ErrChecksum instead of silently corrupting a tensor block or record. All
// I/O errors (including short reads of a page that should exist) are
// returned to the caller; nothing in this package panics on the state of
// the disk. The fault points wired through fault.Injector ("disk.read",
// "disk.read.short", "disk.corrupt", "disk.write", "disk.sync",
// "disk.alloc", "disk.free") let tests drive those paths deterministically.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"tensorbase/internal/fault"
)

// PageSize is the fixed page size in bytes. It is sized so that one 64×64
// float32 tensor block (16 KiB) fits in a single slotted-page record, which
// keeps the relation-centric block relations one-record-per-block.
const PageSize = 32768

// checksumSize is the page tail reserved for the disk-level CRC32-C. The
// slotted-page layout never places records there (InitPage starts the
// record region at PageSize-checksumSize), so the disk manager owns those
// bytes.
const checksumSize = 4

// ErrChecksum is returned when a page read from disk fails checksum
// verification — on-disk corruption caught before the bytes are used.
var ErrChecksum = errors.New("storage: page checksum mismatch")

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageID identifies a page within a database file.
type PageID uint32

// InvalidPageID is the zero-like sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// DiskManager reads and writes fixed-size pages of a database file.
// It is safe for concurrent use.
//
// Freed pages (DROP TABLE reclaiming a heap's chain) go on a free list that
// Allocate consults before growing the file, so dropped tables stop leaking
// disk space. The list itself lives in memory; the engine persists it in
// the catalog meta file (FreeList / RestoreFreeList), which commits it
// atomically with the table set it must stay consistent with.
type DiskManager struct {
	mu       sync.Mutex
	file     *os.File
	numPages uint32
	writes   uint64
	reads    uint64
	frees    uint64
	reuses   uint64
	// freeList holds reclaimable page ids; freeSet mirrors it for O(1)
	// double-free detection.
	freeList []PageID
	freeSet  map[PageID]struct{}
	faults   *fault.Injector
}

// OpenDisk opens (creating if necessary) the database file at path.
func OpenDisk(path string) (*DiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, st.Size())
	}
	return &DiskManager{
		file:     f,
		numPages: uint32(st.Size() / PageSize),
		freeSet:  make(map[PageID]struct{}),
	}, nil
}

// SetFaults installs a fault injector (nil disables injection). Intended
// for tests; not synchronised against in-flight I/O.
func (d *DiskManager) SetFaults(inj *fault.Injector) { d.faults = inj }

// Allocate returns a zeroed page: a reclaimed one from the free list when
// available, else a fresh page appended to the file. A zeroed page is
// exempt from checksum verification (it has never carried data), so the
// page is valid to read back immediately.
func (d *DiskManager) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.faults.Check("disk.alloc"); err != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", d.numPages, err)
	}
	var zero [PageSize]byte
	if n := len(d.freeList); n > 0 {
		id := d.freeList[n-1]
		// Zero the reused page before handing it out so its stale bytes
		// (and stale checksum) can never be read back as live data. Only
		// on success is the page actually taken off the list.
		if _, err := d.file.WriteAt(zero[:], int64(id)*PageSize); err != nil {
			return InvalidPageID, fmt.Errorf("storage: reallocate page %d: %w", id, err)
		}
		d.freeList = d.freeList[:n-1]
		delete(d.freeSet, id)
		d.reuses++
		return id, nil
	}
	id := PageID(d.numPages)
	if _, err := d.file.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	d.numPages++
	return id, nil
}

// Free returns page id to the free list for reuse by a later Allocate.
// Freeing a page beyond the file or freeing it twice is an error — both
// indicate a corrupted page chain in the caller. The fault point
// "disk.free" lets tests fail the path deterministically.
func (d *DiskManager) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.faults.Check("disk.free"); err != nil {
		return fmt.Errorf("storage: free page %d: %w", id, err)
	}
	if uint32(id) >= d.numPages {
		return fmt.Errorf("storage: free of page %d beyond end (%d pages)", id, d.numPages)
	}
	if _, dup := d.freeSet[id]; dup {
		return fmt.Errorf("storage: double free of page %d", id)
	}
	d.freeList = append(d.freeList, id)
	d.freeSet[id] = struct{}{}
	d.frees++
	return nil
}

// FreeList returns the file length in pages and a snapshot of the
// reclaimable page ids, read together (for the engine to persist alongside
// the catalog). Every id it returns is below numPages, even while a
// concurrent reader allocates and frees transient pages: recovery frees
// every page at or past a checkpoint's numPages, so a recorded free id
// there would be freed twice.
func (d *DiskManager) FreeList() (numPages uint32, free []PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	free = make([]PageID, len(d.freeList))
	copy(free, d.freeList)
	return d.numPages, free
}

// RestoreFreeList installs a persisted free list on a freshly opened disk,
// replacing the current one. Out-of-range or duplicate ids are rejected.
func (d *DiskManager) RestoreFreeList(ids []PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := make([]PageID, 0, len(ids))
	set := make(map[PageID]struct{}, len(ids))
	for _, id := range ids {
		if uint32(id) >= d.numPages {
			return fmt.Errorf("storage: free list references page %d beyond end (%d pages)", id, d.numPages)
		}
		if _, dup := set[id]; dup {
			return fmt.Errorf("storage: free list lists page %d twice", id)
		}
		list = append(list, id)
		set[id] = struct{}{}
	}
	d.freeList = list
	d.freeSet = set
	return nil
}

// FreeStats returns cumulative frees and free-list reuses, plus the
// current free-list length.
func (d *DiskManager) FreeStats() (frees, reuses uint64, free int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frees, d.reuses, len(d.freeList)
}

// Read fills buf (length PageSize) with page id's contents, verifying the
// page checksum. A short read of a page that should exist is an error, not
// a silent partial fill.
func (d *DiskManager) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	if uint32(id) >= d.numPages {
		n := d.numPages
		d.mu.Unlock()
		return fmt.Errorf("storage: read of page %d beyond end (%d pages)", id, n)
	}
	if _, freed := d.freeSet[id]; freed {
		d.mu.Unlock()
		return fmt.Errorf("storage: read of freed page %d", id)
	}
	d.reads++
	d.mu.Unlock()
	if err := d.faults.Check("disk.read"); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	n, err := d.file.ReadAt(buf, int64(id)*PageSize)
	if ferr := d.faults.Check("disk.read.short"); ferr != nil {
		// Simulate a truncated file: half a page arrived, the rest is gone.
		n = PageSize / 2
		clear(buf[n:])
		err = io.EOF
	}
	if n < PageSize {
		// The page is inside the file per numPages, so a short read means
		// the file was truncated underneath us (or the device failed
		// mid-read). Never hand back partial bytes as a full page.
		if err == nil || errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("storage: read page %d: %d of %d bytes: %w", id, n, PageSize, err)
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	d.faults.CheckData("disk.corrupt", buf) // deterministic bit flips, caught below
	if !verifyPage(buf) {
		return fmt.Errorf("%w (page %d)", ErrChecksum, id)
	}
	return nil
}

// Write stores buf (length PageSize) as page id's contents, stamping the
// page checksum into the reserved tail bytes of buf.
func (d *DiskManager) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	if uint32(id) >= d.numPages {
		n := d.numPages
		d.mu.Unlock()
		return fmt.Errorf("storage: write of page %d beyond end (%d pages)", id, n)
	}
	if _, freed := d.freeSet[id]; freed {
		d.mu.Unlock()
		return fmt.Errorf("storage: write of freed page %d", id)
	}
	d.writes++
	d.mu.Unlock()
	if err := d.faults.Check("disk.write"); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	stampPage(buf)
	if _, err := d.file.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// stampPage computes the payload checksum and stores it in the page tail.
func stampPage(buf []byte) {
	sum := crc32.Checksum(buf[:PageSize-checksumSize], castagnoli)
	buf[PageSize-4] = byte(sum)
	buf[PageSize-3] = byte(sum >> 8)
	buf[PageSize-2] = byte(sum >> 16)
	buf[PageSize-1] = byte(sum >> 24)
}

// verifyPage checks the stored checksum. An all-zero page (freshly
// allocated, never written) is valid by definition — the zero check only
// runs on the mismatch path, so verified reads stay one CRC pass.
func verifyPage(buf []byte) bool {
	stored := uint32(buf[PageSize-4]) | uint32(buf[PageSize-3])<<8 |
		uint32(buf[PageSize-2])<<16 | uint32(buf[PageSize-1])<<24
	if crc32.Checksum(buf[:PageSize-checksumSize], castagnoli) == stored {
		return true
	}
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}

// NumPages returns the number of allocated pages.
func (d *DiskManager) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// LivePages returns the pages in use: allocated minus free. Transient
// pages, such as a sort's spill runs, leave it where it was once freed.
func (d *DiskManager) LivePages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.numPages) - len(d.freeList)
}

// IOStats returns cumulative page reads and writes.
func (d *DiskManager) IOStats() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// Sync flushes the file to stable storage.
func (d *DiskManager) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked()
}

func (d *DiskManager) syncLocked() error {
	if err := d.faults.Check("disk.sync"); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	if err := d.file.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the underlying file. The file is closed even when
// the sync fails, and the sync error is reported.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.syncLocked(); err != nil {
		d.file.Close()
		return err
	}
	return d.file.Close()
}
