package table

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tensorbase/internal/storage"
)

// indexHeap returns an empty heap over (id INT, v VECTOR[width]) in a pool
// of the given size.
func indexHeap(t *testing.T, frames int) *Heap {
	t.Helper()
	disk, err := storage.OpenDisk(filepath.Join(t.TempDir(), "idx.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	schema := MustSchema(Column{Name: "id", Type: Int64}, Column{Name: "v", Type: FloatVec})
	h, err := NewHeap(storage.NewBufferPool(disk, frames), schema)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// indexRow is a self-describing row: its vector repeats the key and a
// sequence number, so equal keys still decode to distinguishable tuples.
func indexRow(key int64, seq, width int) Tuple {
	v := make([]float32, width)
	for i := range v {
		v[i] = float32(key)
	}
	if width > 0 {
		v[0] = float32(seq)
	}
	return Tuple{IntVal(key), VecVal(v)}
}

// lookupAll drains LookupAt(key, snap) and returns its rows and how many
// candidate RIDs the index held for the key.
func lookupAll(t *testing.T, h *Heap, key int64, snap uint64) ([]Tuple, int) {
	t.Helper()
	l, err := h.LookupAt(key, snap)
	if err != nil {
		t.Fatal(err)
	}
	var out []Tuple
	for {
		tup, ok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out, l.Len()
		}
		out = append(out, tup)
	}
}

// scanByKey is the reference: ScanAt(snap) filtered on column 0, grouped
// by key with each group in scan order.
func scanByKey(t *testing.T, h *Heap, snap uint64) map[int64][]Tuple {
	t.Helper()
	out := make(map[int64][]Tuple)
	sc := h.ScanAt(snap)
	for {
		tup, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out[tup[0].Int] = append(out[tup[0].Int], tup)
	}
}

// assertLookupMatchesScan checks LookupAt against the filtered scan for
// every key that any record holds, a few absent keys, and every snapshot.
// The index itself must be exact: a key's RIDs are the records physically
// present with it — every row CSNMax sees, and no rolled-back one.
func assertLookupMatchesScan(t *testing.T, h *Heap, snaps []uint64) {
	t.Helper()
	present := scanByKey(t, h, CSNMax)
	keys := map[int64]bool{1 << 40: true, -1 << 40: true}
	for k := range present {
		keys[k], keys[k+1], keys[k-1] = true, true, true
	}
	for _, snap := range snaps {
		want := scanByKey(t, h, snap)
		for k := range keys {
			got, rids := lookupAll(t, h, k, snap)
			if !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("snap %d key %d: lookup %d rows %v, scan %d rows %v", snap, k, len(got), got, len(want[k]), want[k])
			}
			if rids != len(present[k]) {
				t.Fatalf("key %d: index holds %d RIDs, heap holds %d records", k, rids, len(present[k]))
			}
		}
	}
}

// TestLookupMatchesScan: on generated keys, LookupAt equals the filtered
// scan row for row and in order, for every key and pinned snapshot, across
// index maintenance by inserts, rollbacks and a checkpoint-tail reset.
func TestLookupMatchesScan(t *testing.T) {
	cases := []struct {
		name   string
		frames int
		// run mutates the heap, probing it once mid-way so that both the
		// build and the incremental maintenance are exercised, and returns
		// the snapshots to check.
		run func(t *testing.T, h *Heap, rng *rand.Rand) []uint64
	}{
		{"duplicates and negative keys", 16, func(t *testing.T, h *Heap, rng *rand.Rand) []uint64 {
			for i := 0; i < 300; i++ {
				if i == 150 {
					lookupAll(t, h, 0, CSNMax)
				}
				if _, err := h.InsertAt(indexRow(rng.Int63n(41)-20, i, 2), uint64(i/10+1)); err != nil {
					t.Fatal(err)
				}
			}
			return []uint64{0, 1, 7, 15, 30, CSNMax}
		}},
		{"tuples spanning many pages through a small pool", 4, func(t *testing.T, h *Heap, rng *rand.Rand) []uint64 {
			for i := 0; i < 400; i++ {
				if i == 100 {
					lookupAll(t, h, 3, CSNMax)
				}
				// 1000 floats: eight rows to a page, 50 pages through 4 frames.
				if _, err := h.InsertAt(indexRow(rng.Int63n(101)-50, i, 1000), uint64(i/40+1)); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := h.Pages(); len(n) < 40 {
				t.Fatalf("heap spans %d pages, want many", len(n))
			}
			return []uint64{0, 2, 5, 10, CSNMax}
		}},
		{"rolled-back statement", 16, func(t *testing.T, h *Heap, rng *rand.Rand) []uint64 {
			for i := 0; i < 100; i++ {
				if _, err := h.InsertAt(indexRow(rng.Int63n(10), i, 3), uint64(i/20+1)); err != nil {
					t.Fatal(err)
				}
			}
			lookupAll(t, h, 1, CSNMax)
			var aborted []RID
			for i := 0; i < 30; i++ {
				rid, err := h.InsertAt(indexRow(rng.Int63n(10), 1000+i, 3), 6)
				if err != nil {
					t.Fatal(err)
				}
				aborted = append(aborted, rid)
			}
			if err := h.Rollback(aborted); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if _, err := h.InsertAt(indexRow(rng.Int63n(10), 2000+i, 3), 6); err != nil {
					t.Fatal(err)
				}
			}
			return []uint64{0, 2, 5, 6, CSNMax}
		}},
		{"checkpoint tail reset", 16, func(t *testing.T, h *Heap, rng *rand.Rand) []uint64 {
			for i := 0; i < 60; i++ {
				if _, err := h.InsertAt(indexRow(rng.Int63n(8)-4, i, 1), uint64(i/15+1)); err != nil {
					t.Fatal(err)
				}
			}
			slots, err := h.LastSlots()
			if err != nil {
				t.Fatal(err)
			}
			count := h.Count()
			lookupAll(t, h, 0, CSNMax)
			for i := 0; i < 25; i++ {
				if _, err := h.InsertAt(indexRow(rng.Int63n(8)-4, 100+i, 1), 5); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.ResetTail(slots, count); err != nil {
				t.Fatal(err)
			}
			if h.keys != nil {
				t.Fatal("ResetTail kept the key index")
			}
			// Replay: different rows land on the reset slots.
			for i := 0; i < 10; i++ {
				if _, err := h.InsertAt(indexRow(rng.Int63n(8)-4, 200+i, 1), 5); err != nil {
					t.Fatal(err)
				}
			}
			return []uint64{0, 1, 3, 5, CSNMax}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := indexHeap(t, c.frames)
			snaps := c.run(t, h, rand.New(rand.NewSource(7)))
			assertLookupMatchesScan(t, h, snaps)
			// Built once: every further lookup and insert reuses the map.
			built := fmt.Sprintf("%p", h.keys)
			if h.keys == nil {
				t.Fatal("lookups left no key index")
			}
			if _, err := h.InsertAt(indexRow(-3, 9999, 1), 1); err != nil {
				t.Fatal(err)
			}
			assertLookupMatchesScan(t, h, snaps)
			if now := fmt.Sprintf("%p", h.keys); now != built {
				t.Fatalf("key index rebuilt: %s then %s", built, now)
			}
		})
	}
}

// A heap that is never probed never builds the index: inserts, scans,
// point gets and rollbacks all leave it nil.
func TestUnprobedHeapBuildsNoIndex(t *testing.T) {
	h := indexHeap(t, 8)
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := h.InsertAt(indexRow(int64(i%7), i, 4), uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Rollback(rids[40:]); err != nil {
		t.Fatal(err)
	}
	scanByKey(t, h, CSNMax)
	if _, err := h.Get(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RIDs(); err != nil {
		t.Fatal(err)
	}
	if h.keys != nil {
		t.Fatal("key index built without a lookup")
	}
}

// Only an INT first column is indexable.
func TestLookupRejectsNonIntFirstColumn(t *testing.T) {
	disk, err := storage.OpenDisk(filepath.Join(t.TempDir(), "txt.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	h, err := NewHeap(storage.NewBufferPool(disk, 4), MustSchema(Column{Name: "s", Type: Text}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LookupAt(1, CSNMax); err == nil {
		t.Fatal("LookupAt on a TEXT first column succeeded")
	}
}

// An inserter publishes CSNs in order, after placing each statement's rows
// (as the engine's commit protocol does), while a rollback-prone writer's
// rows never publish; concurrent readers pin the published horizon and
// require LookupAt to equal the filtered scan at that snapshot. Under -race
// this is the index's latching regression test.
func TestLookupConcurrentWithInserts(t *testing.T) {
	h := indexHeap(t, 8)
	var published atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for csn := uint64(1); csn <= 150; csn++ {
			var rids []RID
			for i := 0; i < 4; i++ {
				rid, err := h.InsertAt(indexRow(rng.Int63n(12)-6, int(csn)*10+i, 16), csn)
				if err != nil {
					errs <- err
					return
				}
				rids = append(rids, rid)
			}
			if csn%5 == 0 {
				// Abort: the rows are removed before the CSN publishes.
				if err := h.Rollback(rids); err != nil {
					errs <- err
					return
				}
			}
			published.Store(csn)
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				snap := published.Load()
				key := rng.Int63n(12) - 6
				l, err := h.LookupAt(key, snap)
				if err != nil {
					errs <- err
					return
				}
				var got []Tuple
				for {
					tup, ok, err := l.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					got = append(got, tup)
				}
				var want []Tuple
				sc := h.ScanAt(snap)
				for {
					tup, ok, err := sc.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					if tup[0].Int == key {
						want = append(want, tup)
					}
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("snap %d key %d: lookup %d rows, scan %d rows", snap, key, len(got), len(want))
					return
				}
			}
		}(int64(r + 2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
