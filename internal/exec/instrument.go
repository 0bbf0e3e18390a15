package exec

import (
	"fmt"
	"strings"
	"time"

	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// Instrumented wraps an operator and records rows produced and time spent
// inside it — cumulative across Open, Next, AND Close — the per-operator
// view an EXPLAIN ANALYZE renders. Close is timed like the other calls
// because operators can do real work there (external-sort spill teardown,
// unpin storms); an untimed Close made that work invisible in profiles.
type Instrumented struct {
	in      Operator
	name    string
	rows    int64
	elapsed time.Duration
	// closeElapsed is the Close-side portion of elapsed, kept separate so
	// profiles can show where teardown-heavy operators spend their time.
	closeElapsed time.Duration

	// Optional buffer-pool attribution: with a pool attached, the stage
	// records the pool's fetch activity between Open and Close. Like the
	// wall-clock elapsed, the window covers the operator's whole subtree.
	pool      *storage.BufferPool
	poolStart storage.PoolStats
	poolEnd   storage.PoolStats
	closed    bool
}

// Instrument wraps op under a display name.
func Instrument(name string, op Operator) *Instrumented {
	return &Instrumented{in: op, name: name}
}

// WithPool attaches a buffer pool whose fetch counters (hits/misses) are
// delta-sampled across the stage's Open..Close window. Returns i for
// chaining at wrap sites.
func (i *Instrumented) WithPool(p *storage.BufferPool) *Instrumented {
	i.pool = p
	return i
}

// Name returns the display name.
func (i *Instrumented) Name() string { return i.name }

// Rows returns the number of rows produced so far.
func (i *Instrumented) Rows() int64 { return i.rows }

// Elapsed returns the cumulative time inside Open, Next, and Close. Time
// spent in the operator's own inputs is included (wall-clock semantics,
// like EXPLAIN ANALYZE's actual time).
func (i *Instrumented) Elapsed() time.Duration { return i.elapsed }

// CloseElapsed returns the portion of Elapsed spent inside Close.
func (i *Instrumented) CloseElapsed() time.Duration { return i.closeElapsed }

// Schema implements Operator.
func (i *Instrumented) Schema() *table.Schema { return i.in.Schema() }

// Open implements Operator.
func (i *Instrumented) Open() error {
	if i.pool != nil {
		i.poolStart = i.pool.Stats()
	}
	i.closed = false
	start := time.Now()
	err := i.in.Open()
	i.elapsed += time.Since(start)
	return err
}

// Next implements Operator.
func (i *Instrumented) Next() (table.Tuple, bool, error) {
	start := time.Now()
	t, ok, err := i.in.Next()
	i.elapsed += time.Since(start)
	if ok {
		i.rows++
	}
	return t, ok, err
}

// Close implements Operator. Close time counts toward Elapsed and is also
// recorded separately; the pool delta is sampled once, at the first Close.
func (i *Instrumented) Close() error {
	start := time.Now()
	err := i.in.Close()
	d := time.Since(start)
	if !i.closed {
		i.closed = true
		i.elapsed += d
		i.closeElapsed += d
		if i.pool != nil {
			i.poolEnd = i.pool.Stats()
		}
	}
	return err
}

// Noter is implemented by operators that can summarise internal counters
// (cache hit rates, pipeline fill/stall) in one line; EXPLAIN ANALYZE
// surfaces the note next to the stage's row/time stats.
type Noter interface {
	StageNote() string
}

// StageReporter is implemented by operators that contribute structured
// counters (spill bytes, cache probe outcomes) to their profile row. The
// operator fills only the fields it owns.
type StageReporter interface {
	ReportStage(s *StageStat)
}

// Note returns the wrapped operator's stage note, if it has one.
func (i *Instrumented) Note() string {
	if n, ok := i.in.(Noter); ok {
		return n.StageNote()
	}
	return ""
}

// StageStat is one row of a query profile — a per-operator span. Elapsed
// includes CloseElapsed. PagesFetched/PoolHits/PoolMisses are deltas over
// the stage's Open..Close window (subtree-inclusive, like Elapsed) and are
// present only when the stage was instrumented with a pool. SpillBytes and
// the Cache* fields are filled by operators implementing StageReporter.
type StageStat struct {
	Name         string
	Rows         int64
	Elapsed      time.Duration
	CloseElapsed time.Duration
	Depth        int // nesting depth, 0 = outermost (profiles are chains)

	PagesFetched uint64 // pool fetches (hits + misses) in the window
	PoolHits     uint64
	PoolMisses   uint64

	SpillBytes int64 // bytes spilled through the buffer pool (sorts)
	SpillRuns  int64

	CacheHits   int64 // result-cache probe outcomes (PREDICT)
	CacheMisses int64
	CacheShared int64

	Note string // operator-provided counter summary, may be empty
}

// Stat assembles the stage's span: timing, rows, pool deltas, and any
// operator-reported extras.
func (i *Instrumented) Stat() StageStat {
	s := StageStat{
		Name:         i.name,
		Rows:         i.rows,
		Elapsed:      i.elapsed,
		CloseElapsed: i.closeElapsed,
		Note:         i.Note(),
	}
	if i.pool != nil && i.closed {
		s.PoolHits = i.poolEnd.Hits - i.poolStart.Hits
		s.PoolMisses = i.poolEnd.Misses - i.poolStart.Misses
		s.PagesFetched = s.PoolHits + s.PoolMisses
	}
	if r, ok := i.in.(StageReporter); ok {
		r.ReportStage(&s)
	}
	return s
}

// Profile drains stats from instrumented stages, outermost first, setting
// each stage's depth from its position (query pipelines are chains).
func Profile(stages []*Instrumented) []StageStat {
	out := make([]StageStat, len(stages))
	for i, s := range stages {
		out[i] = s.Stat()
		out[i].Depth = i
	}
	return out
}

// FormatProfile renders stage stats as an operator tree with self-time
// (outer minus inner), assuming stages are ordered outermost → innermost.
func FormatProfile(stats []StageStat) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %14s %14s %12s\n", "stage", "rows", "total", "self", "close")
	for i, s := range stats {
		self := s.Elapsed
		if i+1 < len(stats) {
			self -= stats[i+1].Elapsed
			if self < 0 {
				self = 0
			}
		}
		name := s.Name
		if s.Depth > 0 {
			name = strings.Repeat("  ", s.Depth-1) + "└─" + name
		}
		fmt.Fprintf(&sb, "%-24s %10d %14s %14s %12s%s\n",
			name, s.Rows,
			s.Elapsed.Round(time.Microsecond),
			self.Round(time.Microsecond),
			s.CloseElapsed.Round(time.Microsecond),
			formatExtras(s))
	}
	return sb.String()
}

// formatExtras renders the structured span fields that are present.
func formatExtras(s StageStat) string {
	var parts []string
	if s.PagesFetched > 0 {
		parts = append(parts, fmt.Sprintf("pages=%d (%dh/%dm)", s.PagesFetched, s.PoolHits, s.PoolMisses))
	}
	if s.SpillBytes > 0 {
		parts = append(parts, fmt.Sprintf("spill=%dB/%d runs", s.SpillBytes, s.SpillRuns))
	}
	if s.CacheHits+s.CacheMisses+s.CacheShared > 0 {
		parts = append(parts, fmt.Sprintf("probes=%dh/%dm/%ds",
			s.CacheHits, s.CacheMisses, s.CacheShared))
	}
	if s.Note != "" {
		parts = append(parts, s.Note)
	}
	if len(parts) == 0 {
		return ""
	}
	return "  " + strings.Join(parts, " ")
}

// SummarizeProfile renders spans as one line for the slow-query log:
// "scan 1000r 1.2ms -> filter 400r 300µs -> ...", innermost last.
func SummarizeProfile(stats []StageStat) string {
	if len(stats) == 0 {
		return ""
	}
	parts := make([]string, len(stats))
	for i, s := range stats {
		parts[i] = fmt.Sprintf("%s %dr %s", s.Name, s.Rows, s.Elapsed.Round(time.Microsecond))
	}
	return strings.Join(parts, " -> ")
}
