package repl

import (
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tensorbase/internal/data"
	"tensorbase/internal/engine"
	"tensorbase/internal/fault"
	"tensorbase/internal/nn"
)

// End-to-end and chaos tests: a real primary engine shipping over net.Pipe
// to real follower engines, with fault.Link injecting transport faults on
// the primary→replica direction. Every test asserts the only correctness
// condition that matters — after the dust settles, the replica reaches the
// primary's CSN and serves bit-identical results.

const testHB = 10 * time.Millisecond

func newPrimary(t *testing.T, opts PrimaryOptions) (*engine.DB, *Primary) {
	t.Helper()
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = testHB
	}
	db, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPrimary(db, opts)
	t.Cleanup(func() {
		p.Close()
		db.Close()
	})
	return db, p
}

// pipeDialer connects a replica to the primary over an in-process pipe,
// with link injecting faults into the shipped frames.
func pipeDialer(p *Primary, link *fault.Link) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		p.Attach(c2, link)
		return c1, nil
	}
}

func newReplica(t *testing.T, path string, p *Primary, link *fault.Link) *Replica {
	t.Helper()
	r, err := NewReplica(path, ReplicaOptions{
		Name:              "r1",
		Dial:              pipeDialer(p, link),
		HeartbeatInterval: testHB,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func waitConverged(t *testing.T, db *engine.DB, r *Replica, timeout time.Duration) {
	t.Helper()
	target := db.CommittedCSN()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.AppliedCSN() >= target {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica stuck at CSN %d, primary at %d (stats %+v)",
		r.AppliedCSN(), target, r.Stats())
}

func assertSameResults(t *testing.T, a, b *engine.DB, query string) {
	t.Helper()
	ra, err := a.Exec(query)
	if err != nil {
		t.Fatalf("primary %q: %v", query, err)
	}
	rb, err := b.Exec(query)
	if err != nil {
		t.Fatalf("replica %q: %v", query, err)
	}
	if !reflect.DeepEqual(ra.Rows, rb.Rows) {
		t.Fatalf("%q diverged:\nprimary: %v\nreplica: %v", query, ra.Rows, rb.Rows)
	}
}

func mustExec(t *testing.T, db *engine.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestReplicaStreamsLiveCommits(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	r := newReplica(t, filepath.Join(t.TempDir(), "r.db"), p, nil)

	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d')", i, i))
	}
	waitConverged(t, db, r, 5*time.Second)
	assertSameResults(t, db, r.DB(), "SELECT a, s FROM t")
	if !r.Healthy() {
		t.Fatalf("converged replica unhealthy: %+v", r.Stats())
	}
	if s := p.Stats(); s.Streams != 1 {
		t.Fatalf("primary streams = %d, want 1", s.Streams)
	}
}

// TestReplicaResyncsFromSnapshot: a replica joining a primary whose history
// predates the ring (the shipping-tier analogue of a checkpoint truncating
// the WAL under a lagging replica) full-resyncs, models included, then
// follows the live tail.
func TestReplicaResyncsFromSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	db, err := engine.Open(path, engine.Options{InferBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// History written before the primary ever shipped: table + model.
	d := data.Fraud(1, 64)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		t.Fatal(err)
	}
	m := nn.FraudFC(rand.New(rand.NewSource(2)), 32)
	if _, err := nn.Train(m, d.X, d.Labels, nn.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(m, 0.95); err != nil {
		t.Fatal(err)
	}

	p := NewPrimary(db, PrimaryOptions{HeartbeatInterval: testHB})
	t.Cleanup(p.Close)
	r := newReplica(t, filepath.Join(t.TempDir(), "r.db"), p, nil)
	deadline := time.Now().Add(10 * time.Second)
	waitConverged(t, db, r, time.Until(deadline))
	if s := p.Stats(); s.Resyncs == 0 {
		t.Fatalf("pre-ring history must arrive via resync: %+v", s)
	}
	// ApplyReplicated publishes the resync's CSN before the replica counts
	// the resync, so convergence can be seen a moment before the counter.
	for r.Stats().Resyncs == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s := r.Stats(); s.Resyncs == 0 {
		t.Fatalf("replica applied no resync: %+v", s)
	}
	assertSameResults(t, db, r.DB(), "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")

	// The live tail streams as ordinary groups after the resync.
	mustExec(t, db, "CREATE TABLE after (a INT)")
	mustExec(t, db, "INSERT INTO after VALUES (1), (2)")
	waitConverged(t, db, r, 5*time.Second)
	assertSameResults(t, db, r.DB(), "SELECT a FROM after")
}

// TestModelShipsInLiveGroup: a LOAD MODEL committed while the stream is
// live ships its weights inline and PREDICT answers identically.
func TestModelShipsInLiveGroup(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	r := newReplica(t, filepath.Join(t.TempDir(), "r.db"), p, nil)

	d := data.Fraud(1, 64)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		t.Fatal(err)
	}
	m := nn.FraudFC(rand.New(rand.NewSource(2)), 32)
	if err := db.LoadModel(m, 0.9); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, db, r, 10*time.Second)
	assertSameResults(t, db, r.DB(), "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
}

// TestReplicaModelFilesDoNotLeak is the regression for the follower-staged
// model-file leak: shipped models used to be staged as repl-%08d-%03d.tbm
// files that nothing ever deleted. Weights now ride the stream as WAL
// block records, so after shipping several models and checkpointing, the
// replica's directory must hold only content-addressed block files — no
// .tbm staging files.
func TestReplicaModelFilesDoNotLeak(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	dir := t.TempDir()
	rpath := filepath.Join(dir, "r.db")
	r := newReplica(t, rpath, p, nil)

	d := data.Fraud(1, 64)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		t.Fatal(err)
	}
	for _, hidden := range []int{16, 32, 48} {
		if err := db.LoadModel(nn.FraudFC(rand.New(rand.NewSource(int64(hidden))), hidden), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, db, r, 10*time.Second)
	for _, hidden := range []int{16, 32, 48} {
		assertSameResults(t, db, r.DB(), fmt.Sprintf("SELECT id, PREDICT(Fraud-FC-%d, features) FROM txns", hidden))
	}

	if err := r.DB().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var leaked []string
	if err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && strings.HasSuffix(path, ".tbm") {
			leaked = append(leaked, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(leaked) != 0 {
		t.Fatalf("staged model files leaked on the replica: %v", leaked)
	}
	blocks, err := os.ReadDir(rpath + ".blocks")
	if err != nil || len(blocks) == 0 {
		t.Fatalf("replica checkpoint left no block files (err: %v)", err)
	}
}

// TestReplicaKillRestartCatchUp: kill -9 a replica mid-stream; a new
// process over the same directory recovers to its applied CSN and the
// stream re-delivers the rest.
func TestReplicaKillRestartCatchUp(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	rpath := filepath.Join(t.TempDir(), "r.db")
	r := newReplica(t, rpath, p, nil)

	mustExec(t, db, "CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	waitConverged(t, db, r, 5*time.Second)
	if err := r.Kill(); err != nil {
		t.Fatal(err)
	}
	// The primary keeps committing while the replica is down.
	for i := 10; i < 30; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	r2 := newReplica(t, rpath, p, nil)
	if r2.AppliedCSN() == 0 {
		t.Fatal("restarted replica recovered nothing")
	}
	waitConverged(t, db, r2, 5*time.Second)
	assertSameResults(t, db, r2.DB(), "SELECT a FROM t")
}

// TestLaggingReplicaResyncsPastEviction: a tiny ring evicts history faster
// than a downed replica can claim it; on reconnect the gap forces a full
// resync and the replica still converges bit-identically.
func TestLaggingReplicaResyncsPastEviction(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{RingBytes: 1})
	rpath := filepath.Join(t.TempDir(), "r.db")
	r := newReplica(t, rpath, p, nil)

	mustExec(t, db, "CREATE TABLE t (a INT)")
	waitConverged(t, db, r, 5*time.Second)
	if err := r.Kill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	r2 := newReplica(t, rpath, p, nil)
	waitConverged(t, db, r2, 10*time.Second)
	if s := p.Stats(); s.Resyncs == 0 {
		t.Fatalf("eviction gap must force a resync: %+v", s)
	}
	assertSameResults(t, db, r2.DB(), "SELECT a FROM t")
}

// TestPartitionHealsAndCatchesUp: a partitioned replica goes unhealthy
// (router steers around it), keeps its last snapshot readable, and after
// the partition heals converges to the primary.
func TestPartitionHealsAndCatchesUp(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	link := fault.NewLink(1)
	r := newReplica(t, filepath.Join(t.TempDir(), "r.db"), p, link)

	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	waitConverged(t, db, r, 5*time.Second)
	frozen := r.AppliedCSN()

	link.SetPartitioned(true)
	mustExec(t, db, "INSERT INTO t VALUES (2), (3)")
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("partitioned replica never went unhealthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Still serving its frozen snapshot.
	if r.AppliedCSN() != frozen {
		t.Fatalf("partitioned replica advanced from %d to %d", frozen, r.AppliedCSN())
	}
	if res, err := r.DB().Exec("SELECT a FROM t"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("stale read = (%v, %v), want the 1-row snapshot", res, err)
	}

	link.SetPartitioned(false)
	waitConverged(t, db, r, 5*time.Second)
	assertSameResults(t, db, r.DB(), "SELECT a FROM t")
	deadline = time.Now().Add(5 * time.Second)
	for !r.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("healed replica never became healthy: %+v", r.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosSoak: seeded drop/duplicate/reorder/delay on the stream plus a
// mid-soak partition, while the primary commits continuously. The replica
// must converge to a bit-identical state once the writes stop — transport
// faults degrade to retries, never to divergence.
func TestChaosSoak(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{RingBytes: 4 << 10})
	link := fault.NewLink(42)
	link.SetDrop(0.05)
	link.SetDuplicate(0.05)
	link.SetReorder(0.05)
	link.SetDelay(0.10, time.Millisecond)
	r := newReplica(t, filepath.Join(t.TempDir(), "r.db"), p, link)

	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
		if i == 100 {
			link.SetPartitioned(true)
		}
		if i == 120 {
			link.SetPartitioned(false)
		}
	}
	waitConverged(t, db, r, 30*time.Second)
	assertSameResults(t, db, r.DB(), "SELECT a, b FROM t")
	t.Logf("soak: primary %+v, replica %+v, link %s", p.Stats(), r.Stats(), link)
}

// TestTwoReplicasConvergeIdentically: one primary, two replicas on
// independent links; both reach the same CSN with identical results.
func TestTwoReplicasConvergeIdentically(t *testing.T) {
	db, p := newPrimary(t, PrimaryOptions{})
	linkA := fault.NewLink(7)
	linkA.SetDrop(0.1)
	r1 := newReplica(t, filepath.Join(t.TempDir(), "r1.db"), p, linkA)
	r2 := newReplica(t, filepath.Join(t.TempDir(), "r2.db"), p, nil)

	mustExec(t, db, "CREATE TABLE t (a INT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	waitConverged(t, db, r1, 15*time.Second)
	waitConverged(t, db, r2, 15*time.Second)
	assertSameResults(t, db, r1.DB(), "SELECT a FROM t")
	assertSameResults(t, r1.DB(), r2.DB(), "SELECT a FROM t")
}
