package storage

import (
	"errors"
	"testing"

	"tensorbase/internal/fault"
)

func TestFreeListReuse(t *testing.T) {
	d := newDisk(t)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if n := d.NumPages(); n != 4 {
		t.Fatalf("numPages = %d, want 4", n)
	}
	// Write recognisable bytes into page 1, then free it.
	buf := make([]byte, PageSize)
	buf[0] = 0xEE
	if err := d.Write(ids[1], buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, free := func() (uint64, uint64, int) { return d.FreeStats() }(); free != 1 {
		t.Fatalf("free-list length = %d, want 1", free)
	}
	// The next allocation must reuse the freed page, zeroed, without
	// growing the file.
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[1] {
		t.Fatalf("reallocated page %d, want reuse of %d", id, ids[1])
	}
	if n := d.NumPages(); n != 4 {
		t.Fatalf("numPages grew to %d on reuse", n)
	}
	in := make([]byte, PageSize)
	if err := d.Read(id, in); err != nil {
		t.Fatal(err)
	}
	for i, b := range in {
		if b != 0 {
			t.Fatalf("reused page not zeroed at byte %d", i)
		}
	}
	frees, reuses, free := d.FreeStats()
	if frees != 1 || reuses != 1 || free != 0 {
		t.Fatalf("FreeStats = (%d, %d, %d), want (1, 1, 0)", frees, reuses, free)
	}
}

func TestFreeRejectsDoubleAndOutOfRange(t *testing.T) {
	d := newDisk(t)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(PageID(99)); err == nil {
		t.Fatal("free beyond end must error")
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err == nil {
		t.Fatal("double free must error")
	}
}

func TestFreedPageRejectsIO(t *testing.T) {
	d := newDisk(t)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.Read(id, buf); err == nil {
		t.Fatal("read of freed page must error")
	}
	if err := d.Write(id, buf); err == nil {
		t.Fatal("write of freed page must error")
	}
}

func TestFreeListRestore(t *testing.T) {
	d := newDisk(t)
	for i := 0; i < 3; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RestoreFreeList([]PageID{1, 2}); err != nil {
		t.Fatal(err)
	}
	n, got := d.FreeList()
	if n != 3 || len(got) != 2 {
		t.Fatalf("free list = %v of %d pages", got, n)
	}
	// Restored entries are allocatable.
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 && id != 1 {
		t.Fatalf("allocation ignored restored free list: got page %d", id)
	}
	if n := d.NumPages(); n != 3 {
		t.Fatalf("numPages grew to %d with free pages available", n)
	}
	// Invalid restores are rejected.
	if err := d.RestoreFreeList([]PageID{7}); err == nil {
		t.Fatal("out-of-range restore must error")
	}
	if err := d.RestoreFreeList([]PageID{0, 0}); err == nil {
		t.Fatal("duplicate restore must error")
	}
}

func TestFreeFaultInjected(t *testing.T) {
	d := newDisk(t)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	boom := errors.New("boom")
	inj.FailAt("disk.free", boom, 1)
	d.SetFaults(inj)
	if err := d.Free(id); !errors.Is(err, boom) {
		t.Fatalf("Free error = %v, want injected fault", err)
	}
	// The failed free must not have put the page on the list.
	if _, _, free := d.FreeStats(); free != 0 {
		t.Fatalf("free-list length after failed free = %d, want 0", free)
	}
	// Retry succeeds once the fault clears.
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
}

func TestReuseZeroFaultLeavesListIntact(t *testing.T) {
	d := newDisk(t)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	boom := errors.New("boom")
	// Allocate's reuse path zeroes via the file write; fail the alloc
	// fault point to prove the list is untouched on failure.
	inj.FailAt("disk.alloc", boom, 1)
	d.SetFaults(inj)
	if _, err := d.Allocate(); !errors.Is(err, boom) {
		t.Fatalf("Allocate error = %v, want injected fault", err)
	}
	if _, _, free := d.FreeStats(); free != 1 {
		t.Fatalf("free-list length after failed realloc = %d, want 1", free)
	}
	got, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("retry allocated %d, want %d", got, id)
	}
}

func TestPoolDiscardAndFreePage(t *testing.T) {
	d := newDisk(t)
	p := NewBufferPool(d, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	// Discarding while pinned must fail.
	if err := p.Discard(id); err == nil {
		t.Fatal("discard of pinned page must error")
	}
	if err := p.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	// FreePage drops the dirty frame without write-back and frees the id.
	if err := p.FreePage(id); err != nil {
		t.Fatal(err)
	}
	if _, _, free := d.FreeStats(); free != 1 {
		t.Fatalf("free-list length = %d, want 1", free)
	}
	// The id comes back zeroed through NewPage (reuse) with no stale
	// resident frame shadowing it.
	nf, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if nf.ID() != id {
		t.Fatalf("NewPage allocated %d, want reuse of %d", nf.ID(), id)
	}
	if got := nf.Page().NumSlots(); got != 0 {
		t.Fatalf("reused page has %d slots, want 0", got)
	}
	if err := p.Unpin(nf.ID(), true); err != nil {
		t.Fatal(err)
	}
	// Discard of a non-resident page is a no-op.
	if err := p.Discard(PageID(3)); err != nil {
		t.Fatal(err)
	}
}

// A NewPage that finds every frame pinned hands its allocated page back,
// so the failure leaves the live page count where it was.
func TestNewPageWithNoFrameFreesThePage(t *testing.T) {
	d := newDisk(t)
	p := NewBufferPool(d, 1)
	if _, err := p.NewPage(); err != nil { // pins the only frame
		t.Fatal(err)
	}
	live := d.LivePages()
	if _, err := p.NewPage(); !errors.Is(err, ErrNoFreeFrames) {
		t.Fatalf("NewPage err = %v, want ErrNoFreeFrames", err)
	}
	if got := d.LivePages(); got != live {
		t.Fatalf("live pages = %d after the failed NewPage, want %d", got, live)
	}
}
