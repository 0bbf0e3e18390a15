package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/shard"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// newShardedServer stands up the HTTP front end over an n-shard local
// cluster, seeded with a demo table (id INT key, f VECTOR features) and a
// small model for PREDICT push-down.
func newShardedServer(t *testing.T, shards, rows int) (*httptest.Server, *Server, *shard.Cluster) {
	t.Helper()
	anchor, err := engine.Open(filepath.Join(t.TempDir(), "anchor"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anchor.Close() })
	cl, err := shard.NewLocalCluster(t.TempDir(), shards, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	srv := New(anchor, Options{})
	srv.SetCluster(cl)
	mux := http.NewServeMux()
	srv.Attach(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	if qr, code := post(t, ts.URL, "", "CREATE TABLE demo (id INT, f VECTOR)"); code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, qr)
	}
	if qr, code := post(t, ts.URL, "", demoInsert(rows)); code != http.StatusOK {
		t.Fatalf("insert: %d %+v", code, qr)
	}
	m, err := nn.NewModel("demo-fc", []int{1, 4}, nn.NewLinear(rand.New(rand.NewSource(5)), 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadModel(m, 0.9); err != nil {
		t.Fatal(err)
	}
	return ts, srv, cl
}

// demoInsert is the INSERT that seeds demo with rows rows:
// (i, [i, i%5, (i*3)%7, 1+i%2]).
func demoInsert(rows int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO demo VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, [%d, %d, %d, %d])", i, i, i%5, (i*3)%7, 1+i%2)
	}
	return b.String()
}

// laggingNode is a shard whose engine never reaches a session's floor:
// every read fails with a wrapped engine.ErrLag.
type laggingNode struct{ *shard.LocalNode }

func (n laggingNode) Query(context.Context, *sql.Select, uint64) (*engine.Result, error) {
	return nil, fmt.Errorf("%w: %s held behind", engine.ErrLag, n.Name())
}

// TestShardLagIsRetriable503: a scatter that meets a lagging shard is
// refused retriably — 503 + Retry-After, counted under reason="shard" —
// never served stale and never a statement error.
func TestShardLagIsRetriable503(t *testing.T) {
	anchor, err := engine.Open(filepath.Join(t.TempDir(), "anchor"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anchor.Close() })
	nodes := make([]shard.Node, 2)
	for i := range nodes {
		ln, err := shard.NewLocalNode(fmt.Sprintf("shard-%d", i), filepath.Join(t.TempDir(), "shard"), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		nodes[i] = ln
	}
	nodes[1] = laggingNode{nodes[1].(*shard.LocalNode)}
	cl, err := shard.NewCluster(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(anchor, Options{})
	srv.SetCluster(cl)
	mux := http.NewServeMux()
	srv.Attach(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	if qr, code := post(t, ts.URL, "", "CREATE TABLE demo (id INT, a INT)"); code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, qr)
	}
	resp := postRaw(t, ts.URL, "", "SELECT COUNT(*) FROM demo")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("scatter over a lagging shard = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("lag 503 missing Retry-After")
	}
	if got := anchor.Metrics().Counter(`tensorbase_http_rejected_total{reason="shard"}`); got != 1 {
		t.Fatalf("shard rejection counter = %d, want 1", got)
	}
}

// idOnShard returns the first id in [0, rows) hashing to the given shard.
func idOnShard(rows, shards, want int) int {
	for i := 0; i < rows; i++ {
		if shard.ShardOf(table.IntVal(int64(i)), shards) == want {
			return i
		}
	}
	return -1
}

// TestShardClusterSmoke is the CI smoke: a 4-shard cluster behind the HTTP
// front end serves concurrent pinned and scattered PREDICTs; killing one
// shard keeps pinned queries for the other shards serving while scatters
// refuse with a clean 503 + Retry-After; a restart converges the cluster.
func TestShardClusterSmoke(t *testing.T) {
	const rows, shards = 32, 4
	ts, _, cl := newShardedServer(t, shards, rows)

	// Concurrent pinned + scattered PREDICTs on the healthy cluster.
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				pin := fmt.Sprintf("SELECT id, PREDICT(demo-fc, f) FROM demo WHERE id = %d", (w*3+i)%rows)
				if qr, code := post(t, ts.URL, "", pin); code != http.StatusOK {
					errc <- fmt.Errorf("pinned predict: %d %+v", code, qr)
					return
				}
				if qr, code := post(t, ts.URL, "", "SELECT id, PREDICT(demo-fc, f) FROM demo ORDER BY id LIMIT 4"); code != http.StatusOK {
					errc <- fmt.Errorf("scattered predict: %d %+v", code, qr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if cl.PinnedCount() == 0 || cl.ScatterCount() == 0 {
		t.Fatalf("counter split pinned=%d scatter=%d; both paths must be exercised", cl.PinnedCount(), cl.ScatterCount())
	}

	// Kill shard 1. Pinned reads for keys on other shards keep serving.
	if err := cl.Nodes()[1].(*shard.LocalNode).Kill(); err != nil {
		t.Fatal(err)
	}
	liveID := idOnShard(rows, shards, 2)
	deadID := idOnShard(rows, shards, 1)
	if qr, code := post(t, ts.URL, "", fmt.Sprintf("SELECT id FROM demo WHERE id = %d", liveID)); code != http.StatusOK {
		t.Fatalf("pinned read for a live shard during outage: %d %+v", code, qr)
	}

	// Scatters and dead-shard pins refuse retriably: 503 + Retry-After.
	for _, q := range []string{
		"SELECT COUNT(*) FROM demo",
		fmt.Sprintf("SELECT id FROM demo WHERE id = %d", deadID),
	} {
		resp := postRaw(t, ts.URL, "", strings.ReplaceAll(q, `"`, `\"`))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during outage = %d, want 503", q, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s during outage: 503 missing Retry-After", q)
		}
	}

	// Restart: the shard recovers from its durable state and scatters
	// converge to the full row count.
	if err := cl.Nodes()[1].(*shard.LocalNode).Restart(); err != nil {
		t.Fatal(err)
	}
	qr, code := post(t, ts.URL, "", "SELECT COUNT(*) FROM demo")
	if code != http.StatusOK {
		t.Fatalf("scatter after restart: %d %+v", code, qr)
	}
	if n := qr.Rows[0][0]; fmt.Sprint(n) != fmt.Sprint(rows) {
		t.Fatalf("count after restart = %v, want %d", n, rows)
	}
}
