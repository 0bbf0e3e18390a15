package fault

import (
	"errors"
	"sync"
	"testing"
)

var errBoom = errors.New("boom")

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	if err := inj.Check("p"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if err := inj.CheckData("p", []byte{1}); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if inj.Count("p") != 0 || inj.Fired("p") != 0 {
		t.Fatal("nil injector counted")
	}
	inj.Clear("p")
	inj.Reset()
}

func TestFailAt(t *testing.T) {
	inj := New()
	inj.FailAt("p", errBoom, 2, 4)
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, inj.Check("p") != nil)
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	if inj.Count("p") != 5 || inj.Fired("p") != 2 {
		t.Fatalf("count=%d fired=%d, want 5/2", inj.Count("p"), inj.Fired("p"))
	}
	if err := inj.Check("other"); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
}

func TestFailAfterAndEvery(t *testing.T) {
	inj := New()
	inj.FailAfter("a", errBoom, 3)
	for i := 1; i <= 5; i++ {
		err := inj.Check("a")
		if (err != nil) != (i >= 3) {
			t.Fatalf("after: occurrence %d: err=%v", i, err)
		}
		if err != nil && !errors.Is(err, errBoom) {
			t.Fatalf("after: error does not wrap cause: %v", err)
		}
	}
	inj.FailEvery("e", errBoom, 2)
	for i := 1; i <= 6; i++ {
		if got := inj.Check("e") != nil; got != (i%2 == 0) {
			t.Fatalf("every: occurrence %d fired=%v", i, got)
		}
	}
}

func TestSeededIsDeterministic(t *testing.T) {
	run := func() []bool {
		inj := New()
		inj.FailSeeded("p", errBoom, 42, 0.3)
		out := make([]bool, 100)
		for i := range out {
			out[i] = inj.Check("p") != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedule diverged at occurrence %d", i+1)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("seeded schedule degenerate: %d/100 fired", fired)
	}
}

func TestCorruptAtFlipsExactlyOneBitDeterministically(t *testing.T) {
	flip := func() []byte {
		inj := New()
		inj.CorruptAt("p", 1)
		buf := make([]byte, 64)
		if err := inj.CheckData("p", buf); err != nil {
			t.Fatalf("corruption rule returned error: %v", err)
		}
		return buf
	}
	a, b := flip(), flip()
	bits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corruption not deterministic")
		}
		for k := 0; k < 8; k++ {
			if a[i]&(1<<k) != 0 {
				bits++
			}
		}
	}
	if bits != 1 {
		t.Fatalf("flipped %d bits, want 1", bits)
	}
}

func TestConcurrentChecks(t *testing.T) {
	inj := New()
	inj.FailEvery("p", errBoom, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				inj.Check("p")
				inj.CheckData("p2", []byte{0})
			}
		}()
	}
	wg.Wait()
	if inj.Count("p") != 8000 || inj.Fired("p") != 800 {
		t.Fatalf("count=%d fired=%d, want 8000/800", inj.Count("p"), inj.Fired("p"))
	}
}

func TestClearAndReset(t *testing.T) {
	inj := New()
	inj.FailAfter("p", errBoom, 1)
	if inj.Check("p") == nil {
		t.Fatal("rule did not fire")
	}
	inj.Clear("p")
	if inj.Check("p") != nil {
		t.Fatal("cleared rule fired")
	}
	if inj.Count("p") != 2 {
		t.Fatalf("Clear dropped counts: %d", inj.Count("p"))
	}
	inj.Reset()
	if inj.Count("p") != 0 {
		t.Fatal("Reset kept counts")
	}
}

func TestDoRunsAtEveryVisitBeforeTheFault(t *testing.T) {
	inj := New()
	ran := 0
	inj.Do("p", func() {
		ran++
		if inj.Count("p") != uint64(ran-1) {
			t.Errorf("action %d ran after the visit was counted", ran)
		}
		inj.Check("q") // an action may visit fault points itself
	})
	inj.FailAt("p", errBoom, 2)
	inj.Check("p")
	if err := inj.CheckData("p", nil); !errors.Is(err, errBoom) {
		t.Fatalf("second visit err = %v, want errBoom", err)
	}
	if ran != 2 || inj.Count("q") != 2 {
		t.Fatalf("action ran %d times, visited q %d times, want 2 and 2", ran, inj.Count("q"))
	}
	inj.Clear("p")
	inj.Check("p")
	if ran != 2 {
		t.Fatal("cleared action ran")
	}
}
