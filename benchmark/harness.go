package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// deepEvery is the share of operations whose answer is checked value by
// value (every operation under -smoke); every answer is checked for status,
// row count and session echo.
const deepEvery = 16

// budget bounds one phase: it ends when dur has passed or when every client
// has issued ops operations, whichever is set. A timed phase is what the
// benchmark contract asks for; a counted one makes -smoke and the tests
// repeat exactly.
type budget struct {
	dur time.Duration
	ops int
}

// response is the /query reply; rows stay raw until a deep check needs them.
type response struct {
	Session      string            `json:"session"`
	Node         string            `json:"node"`
	Rows         []json.RawMessage `json:"rows"`
	RowsAffected int64             `json:"rows_affected"`
	Error        string            `json:"error"`
}

// client is one closed-loop caller: one keep-alive connection, one session,
// its own position in the generated operation sequence.
type client struct {
	id      int
	http    *http.Client
	session string
	next    int   // index of the next operation to generate
	acked   int64 // rows this client's acknowledged INSERTs wrote
}

// runner drives one instance with the workload's clients and keeps what
// the checks need to know across phases.
type runner struct {
	sp      *spec
	in      *inputs
	inst    *instance
	deepAll bool
	clients []*client
	issued  atomic.Int64 // rows of every INSERT sent so far, acknowledged or not

	phaseStart time.Time // when the current drive began; sample offsets count from it

	// Replica lag, sampled after every routed read: primary committed CSN
	// minus the slowest replica's applied CSN.
	lagSum, lagN atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few failure messages, for the operator
	byNode    map[string]int
}

func newRunner(sp *spec, in *inputs, inst *instance, deepAll bool) *runner {
	r := &runner{sp: sp, in: in, inst: inst, deepAll: deepAll, byNode: make(map[string]int)}
	for c := 0; c < nClients; c++ {
		r.clients = append(r.clients, &client{id: c, http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		}})
	}
	return r
}

// closeClients drops the keep-alive connections.
func (r *runner) closeClients() {
	for _, c := range r.clients {
		c.http.CloseIdleConnections()
	}
}

func (r *runner) fail(c *client, i int, o op, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("client %d op %d (%s): %v", c.id, i, o.kind, err))
	}
}

// drive runs the first n clients in a closed loop until the budget is
// spent and returns one sample per operation. after, when not nil, runs
// after each operation outside its timed interval (the traced pass hangs
// its direct re-executions there).
func (r *runner) drive(n int, b budget, hdr func(c *client, i int) string, after func(c *client, i int, o op, s sample)) []sample {
	t0 := time.Now()
	r.phaseStart = t0
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for _, c := range r.clients[:n] {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for k := 0; ; k++ {
				if b.ops > 0 && k >= b.ops || b.dur > 0 && time.Since(t0) >= b.dur {
					return
				}
				i := c.next
				c.next++
				o := makeOp(r.sp, r.in, c.id, i)
				h := ""
				if hdr != nil {
					h = hdr(c, i)
				}
				s := r.do(c, i, o, t0, h)
				out[c.id] = append(out[c.id], s)
				if after != nil {
					after(c, i, o, s)
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	r.mu.Lock()
	r.attempted += len(all)
	r.mu.Unlock()
	return all
}

// do issues one operation over HTTP and checks its answer. The sample's
// interval runs from just before the request is written to just after the
// body has been read and checked for status, row count and session; the
// value-by-value check of a sampled operation follows outside it.
func (r *runner) do(c *client, i int, o op, t0 time.Time, spanHeader string) sample {
	body, _ := json.Marshal(map[string]string{"session": c.session, "sql": o.sql})
	req, err := http.NewRequest(http.MethodPost, r.inst.url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is the harness's own
	}
	req.Header.Set("Content-Type", "application/json")
	if spanHeader != "" {
		req.Header.Set(spanHeaderName, spanHeader)
	}
	if len(o.ids) > 0 {
		r.issued.Add(int64(len(o.ids)))
	}
	s := sample{kind: o.kind, start: time.Since(t0)}
	var resp response
	err = func() error {
		hr, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer hr.Body.Close()
		raw, err := io.ReadAll(hr.Body)
		if err != nil {
			return err
		}
		if hr.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", hr.StatusCode, bytes.TrimSpace(raw))
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		return r.checkShape(c, o, &resp)
	}()
	s.end = time.Since(t0)
	if err == nil {
		c.session = resp.Session
		if len(o.ids) > 0 {
			c.acked += int64(len(o.ids))
		}
		sampled := mix(r.in.seed, uint64(c.id)+101, uint64(i))%deepEvery == 0
		if r.deepAll || sampled || o.kind == opReadOwn || o.kind == opCount {
			err = r.checkValues(o, &resp)
		}
	}
	if err != nil {
		r.fail(c, i, o, err)
		return s
	}
	s.ok = true
	if r.inst.router != nil && len(o.ids) == 0 {
		r.sampleLag(resp.Node)
	}
	return s
}

// checkShape is the check every answer gets.
func (r *runner) checkShape(c *client, o op, resp *response) error {
	if resp.Error != "" {
		return fmt.Errorf("statement error: %s", resp.Error)
	}
	if c.session != "" && resp.Session != c.session {
		return fmt.Errorf("session %q echoed as %q", c.session, resp.Session)
	}
	if resp.Session == "" {
		return fmt.Errorf("no session in reply")
	}
	if len(o.ids) > 0 {
		if resp.RowsAffected != int64(o.rows) {
			return fmt.Errorf("rows_affected %d, want %d", resp.RowsAffected, o.rows)
		}
		return nil
	}
	if len(resp.Rows) != o.rows {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), o.rows)
	}
	return nil
}

// cell is one decoded result value: an integer or a float32 vector.
type cell struct {
	n   int64
	vec []float32
}

// decodeRow parses one result row. Numbers are parsed at 32 bits, the
// precision the server formatted them at, so a vector compares bit for bit.
func decodeRow(raw json.RawMessage) ([]cell, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var vals []any
	if err := dec.Decode(&vals); err != nil {
		return nil, err
	}
	out := make([]cell, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case json.Number:
			n, err := strconv.ParseInt(v.String(), 10, 64)
			if err != nil {
				return nil, err
			}
			out[i].n = n
		case []any:
			out[i].vec = make([]float32, len(v))
			for j, e := range v {
				num, ok := e.(json.Number)
				if !ok {
					return nil, fmt.Errorf("vector element %v is not a number", e)
				}
				f, err := strconv.ParseFloat(num.String(), 32)
				if err != nil {
					return nil, err
				}
				out[i].vec[j] = float32(f)
			}
		default:
			return nil, fmt.Errorf("unexpected value %v", v)
		}
	}
	return out, nil
}

// checkValues compares an answer value by value with what the generated
// inputs say it must be: predictions bit-identical to the reference,
// features bit-identical to what was seeded or inserted, ids as asked.
func (r *runner) checkValues(o op, resp *response) error {
	if len(o.ids) > 0 {
		return nil
	}
	var prev int64 = -1
	for k, raw := range resp.Rows {
		row, err := decodeRow(raw)
		if err != nil {
			return fmt.Errorf("row %d: %w", k, err)
		}
		id := row[0].n
		switch o.kind {
		case opCount:
			if id != o.key {
				return fmt.Errorf("COUNT(*) = %d, want %d acknowledged inserted rows", id, o.key)
			}
			return nil
		case opPointID, opPointRow, opReadOwn, opPinned:
			if id != o.key {
				return fmt.Errorf("row %d: id %d, asked for %d", k, id, o.key)
			}
		case opPredictLow:
			if id >= lowRows {
				return fmt.Errorf("row %d: id %d passed WHERE id < %d", k, id, lowRows)
			}
		case opScatter:
			if id != int64(k) {
				return fmt.Errorf("row %d: id %d, want %d (ORDER BY id)", k, id, k)
			}
		}
		if id == prev {
			return fmt.Errorf("row %d: id %d returned twice", k, id)
		}
		prev = id
		switch o.kind {
		case opPointID:
		case opPointRow, opReadOwn:
			if !sameBits(row[1].vec, r.in.features(r.sp, id)) {
				return fmt.Errorf("row %d: features of id %d differ from what was written", k, id)
			}
		default:
			if id < 0 || id >= int64(len(r.in.ref)) || !sameBits(row[1].vec, r.in.ref[id]) {
				return fmt.Errorf("row %d: prediction for id %d differs from the reference", k, id)
			}
		}
	}
	return nil
}

// sampleLag records which node answered a routed read and how far the
// slowest replica trails the primary at that moment.
func (r *runner) sampleLag(node string) {
	committed := r.inst.db.CommittedCSN()
	var worst uint64
	for _, rep := range r.inst.replicas {
		if a := rep.AppliedCSN(); a < committed {
			worst = max(worst, committed-a)
		}
	}
	r.lagSum.Add(int64(worst))
	r.lagN.Add(1)
	r.mu.Lock()
	r.byNode[node]++
	r.mu.Unlock()
}

// finalCount checks, through a fresh HTTP session, that the ingest table
// holds exactly the rows acknowledged INSERTs wrote; extra counts rows
// the traced pass wrote around the HTTP path. It is skipped when an INSERT
// failed, which may or may not have been applied, and behind a router, where
// a fresh session carries no read-your-writes floor.
func (r *runner) finalCount(extra int64) {
	var acked int64
	for _, c := range r.clients {
		acked += c.acked
	}
	if acked+extra == 0 || acked != r.issued.Load() || r.inst.router != nil {
		return
	}
	c := &client{id: -1, http: r.clients[0].http}
	o := op{kind: opCount, sql: "SELECT COUNT(*) FROM " + r.sp.ingest, rows: 1, key: acked + extra}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	r.do(c, 0, o, time.Now(), "")
}
