package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/fault"
	"tensorbase/internal/table"
)

// newRemoteCluster stands up n shard engines behind TCP servers whose
// response paths run through the given fault links (one per shard, nil
// entries mean perfect wires), and a coordinator of RemoteNodes dialing
// them. Data is loaded through the coordinator while the links are clean;
// callers then dial the fault probabilities up for the read phase.
func newRemoteCluster(t *testing.T, n, rows int, links []*fault.Link) *Cluster {
	t.Helper()
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		local, err := NewLocalNode(fmt.Sprintf("shard-%d", i), fmt.Sprintf("%s/shard-%d", t.TempDir(), i), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { local.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var link *fault.Link
		if links != nil {
			link = links[i]
		}
		srv := Serve(ln, local, link)
		t.Cleanup(func() { srv.Close() })
		rn := NewRemoteNode(fmt.Sprintf("shard-%d", i), ln.Addr().String())
		rn.timeout, rn.retries = 300*time.Millisecond, 30
		nodes[i] = rn
	}
	cl, err := NewCluster(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := cl.NewSession()
	for _, s := range seedSQL(rows) {
		if _, err := cl.Exec(context.Background(), s, sess); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.LoadModel(testModel(), 0.9); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestRemoteScatterUnderFaults runs the identity matrix against a TCP
// cluster whose response streams drop, duplicate, and reorder frames on a
// seeded schedule: clients must reconnect and retry until every result is
// bit-identical to the single-node reference.
func TestRemoteScatterUnderFaults(t *testing.T) {
	const rows = 24
	ref := newRefEngine(t, rows)
	for _, seed := range []int64{1, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			links := make([]*fault.Link, 2)
			for i := range links {
				links[i] = fault.NewLink(seed + int64(i))
			}
			cl := newRemoteCluster(t, 2, rows, links)
			sess := cl.NewSession()
			for _, l := range links {
				l.SetDrop(0.03)
				l.SetDuplicate(0.05)
				l.SetReorder(0.03)
			}
			for _, q := range matrixQueries {
				want, err := ref.Query(q)
				if err != nil {
					t.Fatalf("ref %s: %v", q, err)
				}
				got, err := cl.Exec(context.Background(), q, sess)
				if err != nil {
					t.Fatalf("cluster %s: %v", q, err)
				}
				mustEqualResults(t, q, want, got)
			}
			dropped := links[0].Dropped() + links[1].Dropped()
			if dropped == 0 {
				t.Fatal("fault schedule never dropped a frame; the test is not exercising retries")
			}
		})
	}
}

// TestRemotePartition black-holes one shard's response path: pinned reads
// for the other shard keep serving, scatters fail retriably, and healing
// the partition restores scatters.
func TestRemotePartition(t *testing.T) {
	const rows = 16
	links := []*fault.Link{fault.NewLink(1), fault.NewLink(2)}
	cl := newRemoteCluster(t, 2, rows, links)
	sess := cl.NewSession()
	ctx := context.Background()

	// Shorten the partition detection so the test stays fast.
	for _, n := range cl.Nodes() {
		rn := n.(*RemoteNode)
		rn.timeout, rn.retries = 100*time.Millisecond, 2
	}

	// Find ids owned by each shard, plus an unused id owned by the
	// partitioned shard for the write probe.
	id0, id1, newID1 := -1, -1, -1
	for i := 0; i < rows; i++ {
		if ShardOf(table.IntVal(int64(i)), 2) == 0 && id0 < 0 {
			id0 = i
		}
		if ShardOf(table.IntVal(int64(i)), 2) == 1 && id1 < 0 {
			id1 = i
		}
	}
	for i := 500; ; i++ {
		if ShardOf(table.IntVal(int64(i)), 2) == 1 {
			newID1 = i
			break
		}
	}

	links[1].SetPartitioned(true)

	if _, err := cl.Exec(ctx, fmt.Sprintf("SELECT id FROM tx WHERE id = %d", id0), sess); err != nil {
		t.Fatalf("pinned read through the healthy link failed: %v", err)
	}
	if _, err := cl.Exec(ctx, fmt.Sprintf("SELECT id FROM tx WHERE id = %d", id1), sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("pinned read through the partition = %v, want ErrUnavailable", err)
	}
	if _, err := cl.Exec(ctx, "SELECT COUNT(*) FROM tx", sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("scatter through the partition = %v, want ErrUnavailable", err)
	}
	// Writes must NOT burn retries through a partition (a delivered-but-
	// unacknowledged INSERT retried would double-apply): first transport
	// failure surfaces.
	if _, err := cl.Exec(ctx, fmt.Sprintf("INSERT INTO tx VALUES (%d, 0.5, 'eve', [1, 1, 1, 1])", newID1), sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write through the partition = %v, want ErrUnavailable", err)
	}

	links[1].SetPartitioned(false)
	res, err := cl.Exec(ctx, "SELECT COUNT(*) FROM tx", sess)
	if err != nil {
		t.Fatalf("scatter after healing: %v", err)
	}
	if res.Rows[0][0].Int < rows {
		t.Fatalf("count after healing = %d, want >= %d", res.Rows[0][0].Int, rows)
	}
}
