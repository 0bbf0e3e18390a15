package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tensorbase/internal/fault"
)

func openT(t *testing.T, inj *fault.Injector) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, inj)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, path
}

func collect(t *testing.T, l *Log) []*Record {
	t.Helper()
	var out []*Record
	if err := l.Replay(func(r *Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestRoundTripAllRecordTypes(t *testing.T) {
	l, path := openT(t, nil)
	recs := []*Record{
		{Type: RecCreateTable, CSN: 1, Table: "t", Cols: []Col{{Name: "id", Type: 0}, {Name: "features", Type: 3}}},
		{Type: RecCommit, CSN: 1},
		{Type: RecInsert, CSN: 2, Table: "t", Data: []byte{1, 2, 3, 4, 5}},
		{Type: RecInsert, CSN: 2, Table: "t", Data: nil},
		{Type: RecCommit, CSN: 2},
		{Type: RecDropTable, CSN: 4, Table: "t"},
		{Type: RecCommit, CSN: 4},
		{Type: RecBlock, CSN: 5, Data: []byte{0, 0, 128, 63, 0, 0, 0, 64}},
		{Type: RecLoadModel, CSN: 5, Model: "Fraud-FC-64", Acc: 0.93, Data: []byte("TBMF-manifest-bytes")},
		{Type: RecCommit, CSN: 5},
		{Type: RecDropModel, CSN: 6, Model: "Fraud-FC-64"},
		{Type: RecCommit, CSN: 6},
	}
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append(%v): %v", r.Type, err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Type != r.Type || g.CSN != r.CSN || g.Table != r.Table || g.Model != r.Model || g.Acc != r.Acc {
			t.Fatalf("record %d: got %+v want %+v", i, g, r)
		}
		if string(g.Data) != string(r.Data) {
			t.Fatalf("record %d data: got %q want %q", i, g.Data, r.Data)
		}
		if len(g.Cols) != len(r.Cols) {
			t.Fatalf("record %d cols: got %d want %d", i, len(g.Cols), len(r.Cols))
		}
		for j := range r.Cols {
			if g.Cols[j] != r.Cols[j] {
				t.Fatalf("record %d col %d: got %+v want %+v", i, j, g.Cols[j], r.Cols[j])
			}
		}
	}
}

// TestRecordBytesGolden pins the durable record encoding: one record of
// each RecType, compared byte for byte against fixed hex, and the hex
// decoded back to a record that re-encodes identically. A change here
// breaks every existing log on disk and every replica's stream.
func TestRecordBytesGolden(t *testing.T) {
	cases := []struct {
		rec *Record
		hex string
	}{
		{&Record{Type: RecInsert, CSN: 2, Table: "txns", Data: []byte{1, 2, 3, 4, 5}}, "0102000000000000000474786e73050102030405"},
		{&Record{Type: RecCommit, CSN: 2}, "020200000000000000"},
		{&Record{Type: RecCreateTable, CSN: 1, Table: "txns", Cols: []Col{{Name: "id", Type: 1}, {Name: "features", Type: 4}}}, "0301000000000000000474786e73020269640108666561747572657304"},
		{&Record{Type: RecDropTable, CSN: 4, Table: "txns"}, "0404000000000000000474786e73"},
		{&Record{Type: RecLoadModel, CSN: 5, Model: "Fraud-FC-32", Acc: 0.93, Data: []byte("TBMF")}, "0505000000000000000b46726175642d46432d3332c3f5285c8fc2ed3f0454424d46"},
		{&Record{Type: RecBlock, CSN: 5, Data: []byte{0, 0, 128, 63, 0, 0, 0, 64}}, "060500000000000000080000803f00000040"},
		{&Record{Type: RecDropModel, CSN: 6, Model: "Fraud-FC-32"}, "0706000000000000000b46726175642d46432d3332"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(EncodeRecord(c.rec)); got != c.hex {
			t.Errorf("record type %d encodes to\n%s\nwant\n%s", c.rec.Type, got, c.hex)
		}
		raw, _ := hex.DecodeString(c.hex)
		r, err := DecodeRecord(raw)
		if err != nil {
			t.Fatalf("record type %d: decoding golden bytes: %v", c.rec.Type, err)
		}
		if again := EncodeRecord(r); !bytes.Equal(again, raw) {
			t.Errorf("record type %d: golden bytes re-encode to %x", c.rec.Type, again)
		}
	}
}

// A model record must carry its block manifest: one without (the shape of
// a pre-blockstore whole-file record) is refused at decode, never replayed
// as a model nothing can assemble.
func TestDecodeRejectsLoadModelWithoutManifest(t *testing.T) {
	raw := EncodeRecord(&Record{Type: RecLoadModel, CSN: 3, Model: "Fraud-FC-32", Acc: 0.97})
	if r, err := DecodeRecord(raw); err == nil {
		t.Fatalf("DecodeRecord accepted a manifest-less LOAD MODEL: %+v", r)
	}
	ok := EncodeRecord(&Record{Type: RecLoadModel, CSN: 3, Model: "Fraud-FC-32", Acc: 0.97, Data: []byte("TBMF")})
	if _, err := DecodeRecord(ok); err != nil {
		t.Fatalf("manifest-bearing LOAD MODEL: %v", err)
	}
}

// A torn tail (partial final frame) must be cut at reopen; the valid prefix
// replays intact.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	l, path := openT(t, nil)
	for csn := uint64(1); csn <= 3; csn++ {
		if _, err := l.Append(&Record{Type: RecInsert, CSN: csn, Table: "t", Data: []byte{byte(csn)}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(csn); err != nil {
			t.Fatal(err)
		}
	}
	full := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-frame at several depths; each reopen must settle on
	// a frame boundary and replay whole records only.
	for cut := full - 1; cut > full-9; cut-- {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(torn, nil)
		if err != nil {
			t.Fatalf("reopen after tear at %d: %v", cut, err)
		}
		got := collect(t, l2)
		// 6 records (3 insert+commit pairs) minus at least the torn one.
		if len(got) != 5 {
			t.Fatalf("tear at %d: replayed %d records, want 5", cut, len(got))
		}
		st, _ := os.Stat(torn)
		if uint64(st.Size()) != l2.Size() {
			t.Fatalf("tear at %d: file %d bytes vs appendLSN %d", cut, st.Size(), l2.Size())
		}
		// The log must accept appends after the cut and replay them.
		if _, err := l2.Append(&Record{Type: RecCommit, CSN: 99}); err != nil {
			t.Fatalf("append after tear: %v", err)
		}
		if got = collect(t, l2); got[len(got)-1].CSN != 99 {
			t.Fatalf("appended record lost after tear")
		}
		l2.Close()
	}
}

// A bit flip anywhere in a frame ends the replay prefix at reopen — records
// before it survive, the damaged one and everything after are discarded.
func TestCorruptFrameEndsPrefix(t *testing.T) {
	inj := fault.New()
	// Corrupt the 5th appended frame (csn 3's insert record).
	inj.CorruptAt(FPFrame, 5)
	l, path := openT(t, inj)
	for csn := uint64(1); csn <= 4; csn++ {
		if _, err := l.Append(&Record{Type: RecInsert, CSN: csn, Table: "t", Data: []byte{byte(csn)}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(csn); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want the 4 before the corrupt frame", len(got))
	}
	for _, r := range got {
		if r.CSN > 2 {
			t.Fatalf("record with csn %d survived past the corruption", r.CSN)
		}
	}
}

// Append failures must roll the file back to a frame boundary so the log
// stays usable and the failed frame never becomes a torn middle.
func TestAppendFailureRollsBack(t *testing.T) {
	inj := fault.New()
	inj.FailAt(FPAppend, errors.New("boom"), 2)
	l, path := openT(t, inj)
	if _, err := l.Append(&Record{Type: RecCommit, CSN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecCommit, CSN: 2}); err == nil {
		t.Fatal("append 2 should have failed")
	}
	if _, err := l.Append(&Record{Type: RecCommit, CSN: 3}); err != nil {
		t.Fatalf("append after failure: %v", err)
	}
	l.Close()
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 || got[0].CSN != 1 || got[1].CSN != 3 {
		t.Fatalf("got %d records, want csns [1 3]", len(got))
	}
}

func TestSyncFailureSurfacesAndRecovers(t *testing.T) {
	inj := fault.New()
	inj.FailAt(FPSync, errors.New("fsync lost power"), 1)
	l, _ := openT(t, inj)
	defer l.Close()
	if err := l.Commit(1); err == nil {
		t.Fatal("commit should surface the fsync failure")
	}
	if err := l.Commit(2); err != nil {
		t.Fatalf("commit after failed fsync: %v", err)
	}
}

// Group commit: concurrent committers share fsyncs. With the leader's
// window widened, fsyncs must come out well under one per commit.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	l, _ := openT(t, nil)
	defer l.Close()
	l.syncDelay = 2 * time.Millisecond
	const committers = 16
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(csn uint64) {
			defer wg.Done()
			if _, err := l.Append(&Record{Type: RecInsert, CSN: csn, Table: "t", Data: []byte{1}}); err != nil {
				errs <- err
				return
			}
			errs <- l.Commit(csn)
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	st := l.Stats()
	if st.Commits != committers {
		t.Fatalf("commits %d, want %d", st.Commits, committers)
	}
	if st.Syncs >= committers {
		t.Fatalf("fsyncs %d not batched below %d commits (waits %d)", st.Syncs, committers, st.SyncWaits)
	}
	if st.SyncWaits == 0 {
		t.Fatalf("no commit rode another's fsync: syncs %d", st.Syncs)
	}
}

func TestTruncateResetsLog(t *testing.T) {
	l, path := openT(t, nil)
	for csn := uint64(1); csn <= 3; csn++ {
		if _, err := l.Append(&Record{Type: RecCommit, CSN: csn}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() == 0 {
		t.Fatal("log empty before truncate")
	}
	if err := l.Truncate(); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("size %d after truncate", l.Size())
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("%d records replayed after truncate", len(got))
	}
	// The log keeps working after truncation, across a reopen.
	if _, err := l.Append(&Record{Type: RecCommit, CSN: 9}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(10); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 2 || got[0].CSN != 9 {
		t.Fatalf("post-truncate records lost: %d replayed", len(got))
	}
}

func TestReplayFaultSurfaces(t *testing.T) {
	inj := fault.New()
	l, path := openT(t, nil)
	for csn := uint64(1); csn <= 3; csn++ {
		if _, err := l.Append(&Record{Type: RecCommit, CSN: csn}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	inj.FailAt(FPReplay, errors.New("read torn"), 2)
	l2, err := Open(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	err = l2.Replay(func(*Record) error { n++; return nil })
	if err == nil {
		t.Fatal("replay should surface the injected read fault")
	}
	if n != 1 {
		t.Fatalf("replayed %d records before the fault, want 1", n)
	}
}

// Concurrent appenders and committers under -race: every committed record
// must be replayable, in one global order, with no interleaving corruption.
func TestConcurrentAppendReplayConsistent(t *testing.T) {
	l, path := openT(t, nil)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				csn := uint64(w*perWriter + i + 1)
				if _, err := l.Append(&Record{Type: RecInsert, CSN: csn, Table: fmt.Sprintf("t%d", w), Data: []byte{byte(w), byte(i)}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Commit(csn); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != writers*perWriter*2 {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter*2)
	}
	commits := map[uint64]bool{}
	for _, r := range got {
		if r.Type == RecCommit {
			commits[r.CSN] = true
		}
	}
	if len(commits) != writers*perWriter {
		t.Fatalf("%d distinct committed csns, want %d", len(commits), writers*perWriter)
	}
}

func TestAbandonLosesNothingSynced(t *testing.T) {
	l, path := openT(t, nil)
	if _, err := l.Append(&Record{Type: RecInsert, CSN: 1, Table: "t", Data: []byte{7}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Appended but never synced: may or may not survive; must never tear.
	if _, err := l.Append(&Record{Type: RecInsert, CSN: 2, Table: "t", Data: []byte{8}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Abandon(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) < 2 {
		t.Fatalf("synced prefix lost: %d records", len(got))
	}
	if got[0].CSN != 1 || got[1].Type != RecCommit {
		t.Fatalf("synced records damaged: %+v", got[0])
	}
}
