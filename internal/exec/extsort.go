package exec

import (
	"container/heap"
	"fmt"
	"sort"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// ExternalSort sorts arbitrarily large inputs in bounded memory: the input
// is consumed in runs of at most RunRows tuples, each run is sorted and
// written to a heap file (spilling through the buffer pool like any other
// relation), and the runs are k-way merged on demand. It is the
// out-of-core counterpart of Sort, in the same spirit as the
// relation-centric tensor path: bounded memory, disk-backed state.
type ExternalSort struct {
	in      Operator
	pool    *storage.BufferPool
	RunRows int // max tuples held in memory at once (default 1024)

	less   func(a, b table.Tuple) bool
	runs   []*table.Scanner
	merge  mergeHeap
	opened bool
	tok    *lifecycle.Token

	// Spill accounting for profiles: runs written and the pages they
	// occupy (bytes through the buffer pool). Survives Close so EXPLAIN
	// ANALYZE, which drains stats after the plan is torn down, sees them.
	spillRuns  int64
	spillBytes int64
}

// NewExternalSort returns an external sort of in by col, spilling runs
// through pool.
func NewExternalSort(in Operator, col string, desc bool, pool *storage.BufferPool) (*ExternalSort, error) {
	less, err := orderLess(in.Schema(), col, desc)
	if err != nil {
		return nil, err
	}
	return &ExternalSort{in: in, pool: pool, RunRows: 1024, less: less}, nil
}

// Schema implements Operator.
func (s *ExternalSort) Schema() *table.Schema { return s.in.Schema() }

// SetCancel implements Cancellable: the drain-into-runs loop in Open and
// the merge in Next observe tok.
func (s *ExternalSort) SetCancel(tok *lifecycle.Token) { s.tok = tok }

// Open implements Operator: it drains the input into sorted spill runs and
// prepares the merge.
func (s *ExternalSort) Open() error {
	if s.RunRows < 1 {
		return fmt.Errorf("exec: external sort run size %d < 1", s.RunRows)
	}
	if err := s.in.Open(); err != nil {
		return err
	}
	s.runs = nil
	s.spillRuns, s.spillBytes = 0, 0
	buf := make([]table.Tuple, 0, s.RunRows)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sort.SliceStable(buf, func(i, j int) bool { return s.less(buf[i], buf[j]) })
		run, err := table.NewHeap(s.pool, s.in.Schema())
		if err != nil {
			return err
		}
		for _, t := range buf {
			if _, err := run.Insert(t); err != nil {
				return err
			}
		}
		s.spillRuns++
		s.spillBytes += int64(run.LastPage()-run.FirstPage()+1) * storage.PageSize
		s.runs = append(s.runs, run.Scan())
		buf = buf[:0]
		return nil
	}
	for {
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
		buf = append(buf, t)
		if len(buf) == s.RunRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Prime the merge heap with each run's head.
	s.merge = mergeHeap{less: s.less}
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
	s.opened = true
	return nil
}

// Next implements Operator.
func (s *ExternalSort) Next() (table.Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("exec: ExternalSort.Next before Open")
	}
	if err := s.tok.Err(); err != nil {
		return nil, false, err
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

// Close implements Operator. Spill runs remain in the pool's file; they are
// transient pages reclaimed when the database file is discarded.
func (s *ExternalSort) Close() error {
	s.runs = nil
	s.merge.items = nil
	s.opened = false
	return s.in.Close()
}

// ReportStage implements StageReporter: spill volume for the profile span.
func (s *ExternalSort) ReportStage(st *StageStat) {
	st.SpillRuns = s.spillRuns
	st.SpillBytes = s.spillBytes
}

// StageNote implements Noter.
func (s *ExternalSort) StageNote() string {
	if s.spillRuns == 0 {
		return ""
	}
	return fmt.Sprintf("external sort: %d runs, %d spill bytes", s.spillRuns, s.spillBytes)
}

type mergeItem struct {
	t   table.Tuple
	run int
}

type mergeHeap struct {
	items []mergeItem
	less  func(a, b table.Tuple) bool
}

func (h *mergeHeap) Len() int           { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool { return h.less(h.items[i].t, h.items[j].t) }
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
