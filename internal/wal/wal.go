// Package wal is the write-ahead log behind the lock-free serving path:
// an append-only redo log of tuple and catalog mutations, CRC-framed like
// the connector wire protocol, with group commit (one fsync absorbs every
// commit that arrived while the previous fsync was in flight) and
// replay-on-open recovery.
//
// The engine's commit protocol (see internal/engine) writes each
// statement's records under its commit sequence number (CSN), then appends
// a commit record and calls Commit, which batches the fsync. Recovery
// replays the longest valid prefix of the log: a torn or corrupt frame ends
// the prefix, so a crash mid-append can lose the uncommitted tail but never
// yields a half-applied record — prefix consistency is the contract.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/fault"
	"tensorbase/internal/wire"
)

// Fault points, in the order a record travels through the log. Tests
// schedule crashes and corruption here (see internal/fault).
const (
	FPAppend   = "wal.append"   // before the frame is written
	FPFrame    = "wal.frame"    // corrupts the encoded frame bytes
	FPSync     = "wal.sync"     // before the group-commit fsync
	FPReplay   = "wal.replay"   // before each frame is decoded at replay
	FPTruncate = "wal.truncate" // before the checkpoint truncation
)

// FaultPoints lists every fault point the log visits, in order — the crash
// matrix iterates it so a new step cannot be added without coverage.
var FaultPoints = []string{FPAppend, FPFrame, FPSync, FPReplay, FPTruncate}

// RecType discriminates log records.
type RecType uint8

const (
	// RecInsert is one tuple appended to a table, carrying the encoded
	// tuple payload (without the heap's MVCC version header — the CSN in
	// the record is the version).
	RecInsert RecType = 1
	// RecCommit marks every record of its CSN durable and atomic: replay
	// applies a CSN's records only if its commit record is in the prefix.
	RecCommit RecType = 2
	// RecCreateTable records a new table and its schema.
	RecCreateTable RecType = 3
	// RecDropTable records a table drop.
	RecDropTable RecType = 4
	// RecLoadModel records a model registration. Data carries the model's
	// block manifest (TBMF), which is required; the weight blocks themselves
	// ride as RecBlock records in the same commit group.
	RecLoadModel RecType = 5
	// RecBlock carries one content-addressed weight block's raw payload
	// (little-endian f32 bytes, at most 64 KiB). Blocks are staged into
	// the block store at replay; the manifest in the group's RecLoadModel
	// references them by content hash.
	RecBlock RecType = 6
	// RecDropModel records a model drop; the model's block references are
	// released and unshared blocks are reclaimed.
	RecDropModel RecType = 7
)

// Col is a schema column inside a RecCreateTable record.
type Col struct {
	Name string
	Type uint8
}

// Record is one logical WAL record (a union over the record types; unused
// fields are zero).
type Record struct {
	Type  RecType
	CSN   uint64
	Table string // Insert, CreateTable, DropTable
	Data  []byte // Insert: tuple payload; LoadModel: manifest; Block: payload
	Cols  []Col  // CreateTable
	Model string // LoadModel, DropModel
	Acc   float64
}

// Stats are the log's cumulative counters, exported as metrics: Commits
// per Sync is the group-commit occupancy.
type Stats struct {
	Appends   uint64 // records appended
	Bytes     uint64 // bytes appended (frames, including headers)
	Syncs     uint64 // fsyncs issued
	SyncWaits uint64 // commits that rode another commit's fsync
	Commits   uint64 // commit records made durable
	Replayed  uint64 // records decoded during Replay
	Truncates uint64 // checkpoint truncations
}

// frame layout: u32 length of (type+payload) | type | payload | u32 CRC32-C
// over (type+payload). A length of 0 or beyond maxFrame ends the replay
// prefix, as does a CRC mismatch or a short read.
const (
	frameOverhead = 4 + 4 // length prefix + CRC tail
	// maxFrame bounds one record: a tuple is at most a 32KiB page, schemas
	// and names are tiny. Anything larger in the length field is damage.
	maxFrame = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is the append-only redo log. Append/Commit are safe for concurrent
// use; Truncate requires the caller to have quiesced writers (the engine's
// checkpoint holds every table lock).
type Log struct {
	mu     sync.Mutex // serialises appends and file-offset state
	f      *os.File
	path   string
	faults *fault.Injector
	closed bool
	// appendLSN is the byte offset past the last appended frame; broken is
	// set when a failed append could not be rolled back, poisoning the log.
	appendLSN uint64
	broken    error

	// Group commit: the first committer through becomes the leader and
	// fsyncs everything appended so far; commits arriving while the fsync
	// is in flight wait and are covered by the next leader's fsync.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN uint64
	syncing   bool
	// syncDelay widens the leader's batching window (tests only).
	syncDelay time.Duration

	appends   atomic.Uint64
	bytes     atomic.Uint64
	syncs     atomic.Uint64
	syncWaits atomic.Uint64
	commits   atomic.Uint64
	replayed  atomic.Uint64
	truncates atomic.Uint64
}

// Open opens (creating if absent) the log at path and truncates any torn
// tail left by a crash, so the log ends at the last whole valid frame.
// The injector may be nil.
func Open(path string, inj *fault.Injector) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{f: f, path: path, faults: inj}
	l.syncCond = sync.NewCond(&l.syncMu)
	valid, err := l.scanValidPrefix()
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if uint64(st.Size()) > valid {
		// Torn tail from a crash mid-append: cut it so future appends
		// always extend a valid prefix.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	l.appendLSN = valid
	l.syncedLSN = valid
	return l, nil
}

// scanValidPrefix walks frames from the start and returns the byte length
// of the longest prefix of whole, CRC-valid frames.
func (l *Log) scanValidPrefix() (uint64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: seeking %s: %w", l.path, err)
	}
	r := bufio.NewReader(l.f)
	var valid uint64
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, nil // clean EOF or torn length prefix
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrame {
			return valid, nil
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, nil // torn frame
		}
		sum := binary.LittleEndian.Uint32(body[n:])
		if crc32.Checksum(body[:n], castagnoli) != sum {
			return valid, nil // corrupt frame ends the prefix
		}
		if _, err := decodeRecord(body[:n]); err != nil {
			return valid, nil // structurally invalid record
		}
		valid += uint64(frameOverhead) + uint64(n)
	}
}

// Replay streams every record in the valid prefix, in append order, to fn.
// It is called once at recovery, before any concurrent use of the log.
func (l *Log) Replay(fn func(*Record) error) error {
	pos, err := l.f.Seek(0, io.SeekStart)
	if err != nil || pos != 0 {
		return fmt.Errorf("wal: seeking %s: %w", l.path, err)
	}
	defer l.f.Seek(int64(l.appendLSN), io.SeekStart)
	r := bufio.NewReader(io.LimitReader(l.f, int64(l.appendLSN)))
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("wal: replay read: %w", err)
		}
		if err := l.faults.Check(FPReplay); err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		body := make([]byte, n+4)
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("wal: replay read: %w", err)
		}
		if crc32.Checksum(body[:n], castagnoli) != binary.LittleEndian.Uint32(body[n:]) {
			return fmt.Errorf("wal: replay CRC mismatch inside valid prefix")
		}
		rec, err := decodeRecord(body[:n])
		if err != nil {
			return fmt.Errorf("wal: replay decode: %w", err)
		}
		l.replayed.Add(1)
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Append encodes rec as one frame and writes it at the log tail, returning
// the LSN (byte offset) past the frame — the argument for Sync. The frame
// is in the OS page cache only; it is durable after Sync covers its LSN.
func (l *Log) Append(rec *Record) (uint64, error) {
	payload := encodeRecord(rec)
	frame := make([]byte, 0, frameOverhead+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if err := l.faults.Check(FPAppend); err != nil {
		return 0, err
	}
	// Corruption scheduled here damages the frame in flight — recovery must
	// stop at it, proving the CRC framing catches torn/bit-rotted appends.
	if err := l.faults.CheckData(FPFrame, frame); err != nil {
		return 0, err
	}
	n, err := l.f.Write(frame)
	if err != nil || n != len(frame) {
		// Roll the file back to the last whole frame so later appends do
		// not land after garbage; if that fails the log is unusable.
		if terr := l.f.Truncate(int64(l.appendLSN)); terr != nil {
			l.broken = fmt.Errorf("wal: append failed and tail rollback failed: %v (append: %v)", terr, err)
		} else {
			l.f.Seek(int64(l.appendLSN), io.SeekStart)
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appendLSN += uint64(len(frame))
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	return l.appendLSN, nil
}

// Sync makes every frame up to lsn durable. Concurrent callers batch: one
// becomes the leader and fsyncs the whole appended tail; the rest wait and
// usually find their LSN covered when the leader finishes (group commit).
func (l *Log) Sync(lsn uint64) error {
	l.syncMu.Lock()
	waited := false
	for {
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			if waited {
				l.syncWaits.Add(1)
			}
			return nil
		}
		if !l.syncing {
			break // become the leader
		}
		waited = true
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	if l.syncDelay > 0 {
		time.Sleep(l.syncDelay) // widen the batching window (tests)
	}
	l.mu.Lock()
	target := l.appendLSN
	closed := l.closed
	faults := l.faults
	l.mu.Unlock()
	var err error
	if closed {
		err = ErrClosed
	} else if err = faults.Check(FPSync); err == nil {
		err = l.f.Sync()
	}

	l.syncMu.Lock()
	l.syncing = false
	if err == nil {
		if target > l.syncedLSN {
			l.syncedLSN = target
		}
		l.syncs.Add(1)
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	// A failed leader ahead of us may have left our LSN uncovered even
	// though our fsync succeeded; loop via recursion is unnecessary — our
	// fsync covered appendLSN ≥ lsn by definition.
	return nil
}

// Commit appends a commit record for csn and group-syncs it: when Commit
// returns nil, every record of csn is durable.
func (l *Log) Commit(csn uint64) error {
	lsn, err := l.Append(&Record{Type: RecCommit, CSN: csn})
	if err != nil {
		return err
	}
	if err := l.Sync(lsn); err != nil {
		return err
	}
	l.commits.Add(1)
	return nil
}

// Truncate discards the whole log — called by the checkpoint after the
// catalog meta rename committed everything the log described. The caller
// must have quiesced appenders.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.faults.Check(FPTruncate); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.appendLSN = 0
	l.broken = nil
	l.syncMu.Lock()
	l.syncedLSN = 0
	l.syncMu.Unlock()
	l.truncates.Add(1)
	return nil
}

// SetFaults installs a fault injector on the log's append/sync/replay
// paths after Open (tests only); pass the injector to Open instead to also
// cover recovery.
func (l *Log) SetFaults(inj *fault.Injector) {
	l.mu.Lock()
	l.faults = inj
	l.mu.Unlock()
}

// Size returns the current log length in bytes (the checkpointer's
// size-trigger input).
func (l *Log) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLSN
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Bytes:     l.bytes.Load(),
		Syncs:     l.syncs.Load(),
		SyncWaits: l.syncWaits.Load(),
		Commits:   l.commits.Load(),
		Replayed:  l.replayed.Load(),
		Truncates: l.truncates.Load(),
	}
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.syncCond.Broadcast()
	return err
}

// Abandon closes the log file WITHOUT syncing — the crash tests' stand-in
// for a process kill: whatever the OS had not persisted is lost.
func (l *Log) Abandon() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Close()
	l.syncCond.Broadcast()
	return err
}

// --- record encoding ---

// EncodeRecord serialises r into the payload bytes the log frames — the
// replication stream reuses it so replicas ship and replay the exact WAL
// record format.
func EncodeRecord(r *Record) []byte { return encodeRecord(r) }

// DecodeRecord parses a payload produced by EncodeRecord. It validates
// structure fully (field bounds, trailing bytes), so it is safe on
// untrusted wire input once the caller has checked the frame CRC.
func DecodeRecord(b []byte) (*Record, error) { return decodeRecord(b) }

// Every variable-length field is a wire.AppendBytes field. Decode copies
// each one out of b, so a record never aliases the caller's buffer.
func encodeRecord(r *Record) []byte {
	b := make([]byte, 0, 16+len(r.Table)+len(r.Data)+len(r.Model))
	b = append(b, byte(r.Type))
	b = binary.LittleEndian.AppendUint64(b, r.CSN)
	switch r.Type {
	case RecInsert:
		b = wire.AppendBytes(b, []byte(r.Table))
		b = wire.AppendBytes(b, r.Data)
	case RecCommit:
	case RecCreateTable:
		b = wire.AppendBytes(b, []byte(r.Table))
		b = binary.AppendUvarint(b, uint64(len(r.Cols)))
		for _, c := range r.Cols {
			b = wire.AppendBytes(b, []byte(c.Name))
			b = append(b, c.Type)
		}
	case RecDropTable:
		b = wire.AppendBytes(b, []byte(r.Table))
	case RecLoadModel:
		b = wire.AppendBytes(b, []byte(r.Model))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Acc))
		b = wire.AppendBytes(b, r.Data)
	case RecBlock:
		b = wire.AppendBytes(b, r.Data)
	case RecDropModel:
		b = wire.AppendBytes(b, []byte(r.Model))
	}
	return b
}

func decodeRecord(b []byte) (*Record, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("wal: record shorter than header")
	}
	r := &Record{Type: RecType(b[0]), CSN: binary.LittleEndian.Uint64(b[1:9])}
	b = b[9:]
	var f []byte
	var err error
	switch r.Type {
	case RecInsert:
		if f, b, err = wire.ReadBytes(b); err == nil {
			r.Table = string(f)
			f, b, err = wire.ReadBytes(b)
			r.Data = append([]byte(nil), f...)
		}
	case RecCommit:
	case RecCreateTable:
		if f, b, err = wire.ReadBytes(b); err != nil {
			break
		}
		r.Table = string(f)
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > 1<<16 {
			return nil, fmt.Errorf("wal: bad column count")
		}
		b = b[sz:]
		for i := uint64(0); i < n; i++ {
			if f, b, err = wire.ReadBytes(b); err != nil {
				break
			}
			if len(b) < 1 {
				return nil, fmt.Errorf("wal: truncated column type")
			}
			r.Cols = append(r.Cols, Col{Name: string(f), Type: b[0]})
			b = b[1:]
		}
	case RecDropTable:
		f, b, err = wire.ReadBytes(b)
		r.Table = string(f)
	case RecLoadModel:
		if f, b, err = wire.ReadBytes(b); err != nil {
			break
		}
		r.Model = string(f)
		if len(b) < 8 {
			return nil, fmt.Errorf("wal: truncated model record")
		}
		r.Acc = math.Float64frombits(binary.LittleEndian.Uint64(b))
		if f, b, err = wire.ReadBytes(b[8:]); err == nil && len(f) == 0 {
			return nil, fmt.Errorf("wal: model record without a manifest")
		}
		r.Data = append([]byte(nil), f...)
	case RecBlock:
		if f, b, err = wire.ReadBytes(b); err == nil && (len(f) == 0 || len(f) > 1<<17) {
			return nil, fmt.Errorf("wal: bad block payload of %d bytes", len(f))
		}
		r.Data = append([]byte(nil), f...)
	case RecDropModel:
		f, b, err = wire.ReadBytes(b)
		r.Model = string(f)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: truncated field in record type %d", r.Type)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes in record", len(b))
	}
	return r, nil
}
