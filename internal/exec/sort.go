package exec

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// defaultRunRows is a sort's run budget: the most tuples it holds in
// memory before it spills, and the largest LIMIT it serves as a top-k.
const defaultRunRows = 1024

// Sort orders its input by one column, stably: tuples that tie on the key
// keep their input order. It writes pages only when the input outgrows
// memory, as the paper spills an operator only when it exceeds it:
//
//   - under a limit k ≤ RunRows (ORDER BY … LIMIT k) it is a top-k, a
//     bounded heap of the k first tuples of the order, and never touches
//     the pool;
//   - otherwise it holds its first run of RunRows tuples in memory, and an
//     input that ends there is sorted in place and emitted;
//   - only when a second run is needed, and pool is not nil, does it
//     spill: each run is sorted and written to a heap through the pool,
//     the runs are k-way merged on demand (ties go to the earlier run),
//     and Close hands every run's pages back to the free list.
//
// With a nil pool it never spills: the whole input is sorted in memory.
type Sort struct {
	in      Operator
	pool    *storage.BufferPool
	limit   int // LIMIT k over the sort; < 0 for none
	RunRows int // max tuples held in memory at once (default 1024)

	less   func(a, b table.Tuple) bool
	rows   []table.Tuple // the sorted result when nothing spilled
	pos    int
	runs   []*table.Scanner
	pages  []storage.PageID // every spilled run's page chain, freed by Close
	merge  mergeHeap
	opened bool
	tok    *lifecycle.Token

	// Spill accounting for profiles: runs written and the pages they
	// occupy (bytes through the buffer pool). Survives Close so EXPLAIN
	// ANALYZE, which drains stats after the plan is torn down, sees them.
	spillRuns  int64
	spillBytes int64
}

// NewSort returns a sort of in by col (ascending unless desc) under a
// LIMIT of limit rows (< 0 for none), spilling runs through pool (nil
// never spills). The limit only picks the strategy: a Limit operator
// above the sort still cuts its output.
func NewSort(in Operator, col string, desc bool, limit int, pool *storage.BufferPool) (*Sort, error) {
	less, err := orderLess(in.Schema(), col, desc)
	if err != nil {
		return nil, err
	}
	return &Sort{in: in, pool: pool, limit: limit, RunRows: defaultRunRows, less: less}, nil
}

// TopK reports whether the sort runs as an in-memory top-k: its limit
// fits the run budget.
func (s *Sort) TopK() bool { return s.limit >= 0 && s.limit <= s.RunRows }

// Schema implements Operator.
func (s *Sort) Schema() *table.Schema { return s.in.Schema() }

// SetCancel implements Cancellable: the drain loop in Open and Next
// observe tok.
func (s *Sort) SetCancel(tok *lifecycle.Token) { s.tok = tok }

// Open implements Operator: it drains the input into the top-k heap, the
// in-memory run, or sorted spill runs, and prepares the output. An Open
// that fails leaves its runs and its input to Close, which Collect calls
// however the drain ends.
func (s *Sort) Open() error {
	if s.RunRows < 1 {
		return fmt.Errorf("exec: sort run size %d < 1", s.RunRows)
	}
	if err := s.in.Open(); err != nil {
		return err
	}
	s.rows, s.pos, s.runs = nil, 0, nil
	s.spillRuns, s.spillBytes = 0, 0
	topk := s.TopK()
	s.merge = mergeHeap{less: s.less, max: topk}
	if topk {
		s.merge.items = make([]mergeItem, 0, s.limit)
	}
	var buf []table.Tuple
	for seq := 0; ; seq++ {
		if err := s.tok.Err(); err != nil {
			return err
		}
		t, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch {
		case topk:
			s.offer(t, seq)
		case len(buf) == s.RunRows && s.pool != nil:
			if err := s.spill(buf); err != nil {
				return err
			}
			buf = append(buf[:0], t)
		default:
			buf = append(buf, t)
		}
	}
	switch {
	case topk:
		items := s.merge.items
		sort.Slice(items, func(i, j int) bool { return items[i].before(items[j], s.less) })
		s.rows = make([]table.Tuple, len(items))
		for i := range items {
			s.rows[i] = items[i].t
		}
		s.merge.items = nil
	case s.runs == nil:
		sort.SliceStable(buf, func(i, j int) bool { return s.less(buf[i], buf[j]) })
		s.rows = buf
	default:
		if err := s.spill(buf); err != nil {
			return err
		}
		// Prime the merge heap with each run's head.
		for i, run := range s.runs {
			t, ok, err := run.Next()
			if err != nil {
				return err
			}
			if ok {
				s.merge.items = append(s.merge.items, mergeItem{t: t, run: i})
			}
		}
		heap.Init(&s.merge)
	}
	s.opened = true
	return nil
}

// offer keeps t, the seq-th input tuple, if it is among the limit first
// tuples of the order so far. The heap's top is the last of those; t
// displaces it only when strictly before it, since on a tie the earlier
// arrival stays ahead.
func (s *Sort) offer(t table.Tuple, seq int) {
	h := &s.merge
	switch {
	case len(h.items) < s.limit:
		h.items = append(h.items, mergeItem{t: t, run: seq})
		heap.Fix(h, len(h.items)-1)
	case len(h.items) > 0 && s.less(t, h.items[0].t):
		h.items[0] = mergeItem{t: t, run: seq}
		heap.Fix(h, 0)
	}
}

// spill sorts buf and writes it to a fresh heap as the next run,
// recording the run's page chain as it grows.
func (s *Sort) spill(buf []table.Tuple) error {
	sort.SliceStable(buf, func(i, j int) bool { return s.less(buf[i], buf[j]) })
	run, err := table.NewHeap(s.pool, s.in.Schema())
	if err != nil {
		return err
	}
	first := len(s.pages)
	s.pages = append(s.pages, run.FirstPage())
	for _, t := range buf {
		rid, err := run.Insert(t)
		if err != nil {
			// Insert can link a fresh page and still fail: take the chain
			// as linked, so freeRuns frees that page too.
			if chain, werr := run.Pages(); werr == nil {
				s.pages = append(s.pages[:first], chain...)
			}
			return err
		}
		if rid.Page != s.pages[len(s.pages)-1] {
			s.pages = append(s.pages, rid.Page)
		}
	}
	s.spillRuns++
	s.spillBytes = int64(len(s.pages)) * storage.PageSize
	s.runs = append(s.runs, run.Scan())
	return nil
}

// freeRuns hands every spilled run's pages back to the storage free list.
// A page that fails to free leaks; it is never reused while still live.
func (s *Sort) freeRuns() error {
	var first error
	for _, id := range s.pages {
		if err := s.pool.FreePage(id); err != nil && first == nil {
			first = fmt.Errorf("exec: sort: freeing spill page %d: %w", id, err)
		}
	}
	s.pages = nil
	return first
}

// Next implements Operator.
func (s *Sort) Next() (table.Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("exec: Sort.Next before Open")
	}
	if err := s.tok.Err(); err != nil {
		return nil, false, err
	}
	if s.runs == nil {
		if s.pos >= len(s.rows) {
			return nil, false, nil
		}
		s.pos++
		return s.rows[s.pos-1], true, nil
	}
	if s.merge.Len() == 0 {
		return nil, false, nil
	}
	top := s.merge.items[0]
	next, ok, err := s.runs[top.run].Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		s.merge.items[0] = mergeItem{t: next, run: top.run}
		heap.Fix(&s.merge, 0)
	} else {
		heap.Pop(&s.merge)
	}
	return top.t, true, nil
}

// Close implements Operator: it frees the spilled runs' pages and closes
// the input.
func (s *Sort) Close() error {
	s.rows, s.runs, s.merge.items = nil, nil, nil
	s.opened = false
	return errors.Join(s.freeRuns(), s.in.Close())
}

// ReportStage implements StageReporter: spill volume for the profile span.
func (s *Sort) ReportStage(st *StageStat) {
	st.SpillRuns = s.spillRuns
	st.SpillBytes = s.spillBytes
}

// StageNote implements Noter.
func (s *Sort) StageNote() string {
	if s.spillRuns == 0 {
		return ""
	}
	return fmt.Sprintf("external sort: %d runs, %d spill bytes", s.spillRuns, s.spillBytes)
}

// mergeItem is a tuple in a heap, with the spill run it came from (the
// merge) or its arrival number (the top-k).
type mergeItem struct {
	t   table.Tuple
	run int
}

// before is the sort's total order: the key, then the run or arrival, so
// ties keep input order.
func (a mergeItem) before(b mergeItem, less func(a, b table.Tuple) bool) bool {
	return less(a.t, b.t) || !less(b.t, a.t) && a.run < b.run
}

// mergeHeap is a min-heap on before, or with max set (the top-k) a
// max-heap, whose top is the first tuple to give up.
type mergeHeap struct {
	items []mergeItem
	less  func(a, b table.Tuple) bool
	max   bool
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	if h.max {
		i, j = j, i
	}
	return h.items[i].before(h.items[j], h.less)
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
