// Package server exposes the engine over HTTP as a session-based SQL
// endpoint — the multi-session serving front end the lock manager exists
// for. Each client holds a session (an opaque id minted by the server);
// statements within one session execute in order, while statements from
// different sessions run concurrently against the engine, which serializes
// only what actually conflicts (see internal/lockmgr).
//
// Protocol: POST /query with a JSON body
//
//	{"session": "<id or empty>", "sql": "SELECT ..."}
//
// An empty session id mints a new session; every response echoes the id to
// use next. Responses carry either result rows
//
//	{"session": "...", "seq": 3, "columns": ["a"], "rows": [[1]], "rows_affected": 0}
//
// or a statement error ({"session": "...", "error": "..."}, HTTP 400).
// Unknown sessions get 404 (they may have been idle-reaped); a full session
// table gets 503.
//
// Admission control: the server caps concurrently executing statements with
// a semaphore sized from the process compute budget, so a burst of HTTP
// clients queues at the door instead of oversubscribing the executor.
// Waiting respects client disconnects and is bounded by Options.AdmitWait —
// past it the statement is refused with 503 and a Retry-After header rather
// than queueing unboundedly.
//
// Replication: with a Router attached (SetRouter), SELECTs — PREDICT
// included — fan out across healthy replicas at their applied CSN; writes
// always execute on the primary. Each session carries the CSN of its last
// write, and its subsequent reads only go to replicas that have applied it
// (read-your-writes). With no eligible replica the server degrades to
// primary-only service; clients see which node answered in the response's
// "node" field.
//
// Shutdown(ctx) drains gracefully: new statements get 503 + Retry-After,
// in-flight ones finish (until ctx expires), and the engine is checkpointed
// so restart needs no WAL replay.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/obs"
	"tensorbase/internal/parallel"
	"tensorbase/internal/shard"
)

// Options configures the SQL server.
type Options struct {
	// MaxSessions caps live sessions; a mint past the cap gets 503
	// (default 64).
	MaxSessions int
	// MaxInflight caps concurrently executing statements (default
	// max(8, 4 × the process compute-token budget)).
	MaxInflight int
	// IdleTimeout reaps sessions with no statement for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// AdmitWait bounds how long a statement queues for an execution slot
	// before being refused with 503 + Retry-After (default 1s).
	AdmitWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * parallel.Default().Total()
		if o.MaxInflight < 8 {
			o.MaxInflight = 8
		}
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = time.Second
	}
	return o
}

// Server is the session-based SQL-over-HTTP front end.
type Server struct {
	db      *engine.DB
	router  *Router        // nil = primary-only
	cluster *shard.Cluster // nil = unsharded; set, every statement routes through it
	opts    Options

	inflight  chan struct{} // admission semaphore
	inflightN atomic.Int64  // drain watermark
	draining  atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	stopJanitor chan struct{}
	janitorWG   sync.WaitGroup

	queries  atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
	minted   atomic.Int64
	reaped   atomic.Int64

	// Refusals by reason, one labeled series each.
	rejSessions  *obs.Counter
	rejAdmission *obs.Counter
	rejDraining  *obs.Counter
	rejShard     *obs.Counter
}

// session is one client's serialized statement stream.
type session struct {
	id string
	mu sync.Mutex // statements within a session run in order

	lastUsed  atomic.Int64  // unix nanos
	seq       atomic.Int64  // statements executed
	lastWrite atomic.Uint64 // committed CSN of the session's last routed write (the router's floor)

	// shardSess carries per-shard read-your-writes floors when the server
	// fronts a cluster: one CSN floor per shard rather than one global
	// lastWrite, since shards commit in independent CSN spaces.
	shardSess *shard.Session
}

// New builds a server over db and registers its metrics in the engine's
// registry. Call Close when done to stop the idle-session janitor.
func New(db *engine.DB, opts Options) *Server {
	s := &Server{
		db:          db,
		opts:        opts.withDefaults(),
		sessions:    make(map[string]*session),
		stopJanitor: make(chan struct{}),
	}
	s.inflight = make(chan struct{}, s.opts.MaxInflight)
	s.registerMetrics(db.Registry())
	s.janitorWG.Add(1)
	go s.janitor()
	return s
}

func (s *Server) registerMetrics(r *obs.Registry) {
	r.CounterFunc("tensorbase_http_queries_total", "statements received over /query", func() float64 { return float64(s.queries.Load()) })
	r.CounterFunc("tensorbase_http_query_errors_total", "statements over /query that returned an error", func() float64 { return float64(s.errors.Load()) })
	r.CounterFunc("tensorbase_http_sessions_minted_total", "sessions created", func() float64 { return float64(s.minted.Load()) })
	r.CounterFunc("tensorbase_http_sessions_rejected_total", "session mints refused by the MaxSessions cap", func() float64 { return float64(s.rejected.Load()) })
	r.CounterFunc("tensorbase_http_sessions_reaped_total", "idle sessions reclaimed by the janitor", func() float64 { return float64(s.reaped.Load()) })
	r.GaugeFunc("tensorbase_http_sessions", "live sessions", func() float64 {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		return float64(n)
	})
	r.GaugeFunc("tensorbase_http_inflight", "statements currently executing over HTTP", func() float64 { return float64(len(s.inflight)) })
	s.rejSessions = r.CounterLabeled("tensorbase_http_rejected_total", `reason="sessions"`, "statements refused with 503, by reason")
	s.rejAdmission = r.CounterLabeled("tensorbase_http_rejected_total", `reason="admission"`, "statements refused with 503, by reason")
	s.rejDraining = r.CounterLabeled("tensorbase_http_rejected_total", `reason="draining"`, "statements refused with 503, by reason")
	s.rejShard = r.CounterLabeled("tensorbase_http_rejected_total", `reason="shard"`, "statements refused with 503, by reason")
}

// SetRouter attaches a replica read router. Call before serving traffic.
func (s *Server) SetRouter(rt *Router) { s.router = rt }

// SetCluster attaches a shard cluster: every statement then routes through
// the scatter-gather coordinator (pinned reads to one shard, scatters to
// all, writes hash-split or broadcast), and a shard that is down or
// lagging a session's floor refuses the statement with 503 + Retry-After
// instead of serving partial or stale results. Call before serving
// traffic; the cluster's pinned/scatter counters register in the anchor
// engine's registry.
func (s *Server) SetCluster(cl *shard.Cluster) {
	s.cluster = cl
	cl.RegisterMetrics(s.db.Registry())
}

// Attach mounts the server's endpoints on mux.
func (s *Server) Attach(mux *http.ServeMux) {
	mux.Handle("/query", s)
}

// Close stops the idle janitor. In-flight requests finish normally.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopJanitor)
	s.janitorWG.Wait()
}

// Shutdown drains the server for a clean exit: new statements are refused
// with 503 + Retry-After, in-flight statements finish (bounded by ctx),
// and the engine is checkpointed so the next open replays no WAL. Returns
// ctx.Err() if the drain deadline expired with statements still running —
// the checkpoint still happens; those statements' effects are either
// committed (and checkpointed) or rolled back by recovery, never half-kept.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	drained := func() bool { return s.inflightN.Load() == 0 }
	var derr error
	for !drained() {
		select {
		case <-ctx.Done():
			derr = ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if derr != nil {
			break
		}
	}
	s.Close()
	if err := s.db.Checkpoint(); err != nil {
		return err
	}
	return derr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// janitor reaps sessions idle past Options.IdleTimeout.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	tick := time.NewTicker(s.opts.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case now := <-tick.C:
			cutoff := now.Add(-s.opts.IdleTimeout).UnixNano()
			s.mu.Lock()
			for id, sess := range s.sessions {
				if sess.lastUsed.Load() < cutoff {
					delete(s.sessions, id)
					s.reaped.Add(1)
				}
			}
			s.mu.Unlock()
		}
	}
}

// queryRequest is the /query body.
type queryRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
}

// reject refuses a statement with 503 and a Retry-After so well-behaved
// clients back off instead of hammering; reason lands in the labeled
// tensorbase_http_rejected_total series.
func (s *Server) reject(w http.ResponseWriter, session string, c *obs.Counter, msg string) {
	c.Inc()
	w.Header().Set("Retry-After", "1")
	writeResponse(w, http.StatusServiceUnavailable, &response{Session: session, Error: msg})
}

// ServeHTTP handles POST /query.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeResponse(w, http.StatusBadRequest, &response{Error: "bad request: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeResponse(w, http.StatusBadRequest, &response{Error: "empty sql"})
		return
	}
	if s.draining.Load() {
		s.reject(w, req.Session, s.rejDraining, "server: shutting down")
		return
	}

	sess, status, err := s.session(req.Session)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			s.reject(w, req.Session, s.rejSessions, err.Error())
			return
		}
		writeResponse(w, status, &response{Session: req.Session, Error: err.Error()})
		return
	}

	// Admission: wait (bounded) for an execution slot, give up if the
	// client does; past AdmitWait the statement is refused, not queued.
	admit := time.NewTimer(s.opts.AdmitWait)
	select {
	case s.inflight <- struct{}{}:
		admit.Stop()
		s.inflightN.Add(1)
		defer func() {
			<-s.inflight
			s.inflightN.Add(-1)
		}()
	case <-admit.C:
		s.reject(w, sess.id, s.rejAdmission, "server: execution slots saturated")
		return
	case <-r.Context().Done():
		admit.Stop()
		return
	}

	// Statements within one session execute in order; the engine's lock
	// manager handles cross-session conflicts. Reads fan out across
	// replicas when a router is attached, floored at the session's last
	// write CSN; writes always run on the primary.
	sess.mu.Lock()
	var res *engine.Result
	var qerr error
	node := ""
	switch {
	case s.cluster != nil:
		if sess.shardSess == nil {
			sess.shardSess = s.cluster.NewSession()
		}
		res, qerr = s.cluster.Exec(r.Context(), req.SQL, sess.shardSess)
		node = "cluster"
	case s.router == nil:
		res, qerr = s.db.QueryContext(r.Context(), req.SQL)
	case IsRead(req.SQL):
		res, node, qerr = s.router.Route(r.Context(), req.SQL, sess.lastWrite.Load())
	default:
		res, qerr = s.db.QueryContext(r.Context(), req.SQL)
		if qerr == nil {
			// The committed horizon is ≥ this write's CSN: a conservative
			// read-your-writes floor.
			sess.lastWrite.Store(s.db.CommittedCSN())
		}
	}
	seq := sess.seq.Add(1)
	sess.mu.Unlock()
	sess.lastUsed.Store(time.Now().UnixNano())
	s.queries.Add(1)

	if qerr != nil {
		s.errors.Add(1)
		if errors.Is(qerr, shard.ErrUnavailable) || errors.Is(qerr, engine.ErrLag) {
			// A down or lagging shard is a serving-capacity condition, not
			// a statement error: refuse retriably like any other overload.
			s.reject(w, sess.id, s.rejShard, qerr.Error())
			return
		}
		writeResponse(w, http.StatusBadRequest, &response{Session: sess.id, Seq: seq, Node: node, Error: qerr.Error()})
		return
	}
	writeResponse(w, http.StatusOK, &response{Session: sess.id, Seq: seq, Node: node,
		Schema: res.Schema, Rows: res.Rows, RowsAffected: res.RowsAffected})
}

// session resolves (or mints) the request's session.
func (s *Server) session(id string) (*session, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		if len(s.sessions) >= s.opts.MaxSessions {
			s.rejected.Add(1)
			return nil, http.StatusServiceUnavailable, fmt.Errorf("server: session table full (%d live)", len(s.sessions))
		}
		sess := &session{id: mintID()}
		sess.lastUsed.Store(time.Now().UnixNano())
		s.sessions[sess.id] = sess
		s.minted.Add(1)
		return sess, 0, nil
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("server: unknown session %q (expired?)", id)
	}
	sess.lastUsed.Store(time.Now().UnixNano())
	return sess, 0, nil
}

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func mintID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}
