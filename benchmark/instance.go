package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/obs"
	"tensorbase/internal/repl"
	"tensorbase/internal/retry"
	"tensorbase/internal/server"
	"tensorbase/internal/shard"
	"tensorbase/internal/sql"
)

// instance is one booted system under test, wired the way
// `tensorbase --serve` wires it (cmd/tensorbase/main.go): engine, model,
// server.Server on obs.Mux, a TCP listener on loopback, and optionally the
// in-process replicas or shards.
type instance struct {
	dir      string
	db       *engine.DB // the primary; node 0 of a cluster
	srv      *server.Server
	router   *server.Router
	primary  *repl.Primary
	replicas []*repl.Replica
	cluster  *shard.Cluster
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve has returned
	url      string
}

// boot opens the database files under a fresh temporary directory and
// brings the topology up. The engine keeps its default durability: every
// INSERT is appended to the WAL and fsynced (group commit) before it is
// acknowledged. wrap, when not nil, is put in front of the server's mux.
func boot(sp *spec, in *inputs, wrap func(http.Handler) http.Handler) (inst *instance, err error) {
	dir, err := os.MkdirTemp("", "tbbench-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	inst = &instance{dir: dir}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()
	path := filepath.Join(dir, "bench.db")
	if sp.shards > 0 {
		if err := inst.bootCluster(sp, in, path); err != nil {
			return nil, err
		}
	} else {
		if inst.db, err = engine.Open(path, sp.engine); err != nil {
			return nil, err
		}
		if _, err := inst.db.CreateTable(sp.table, in.schema); err != nil {
			return nil, err
		}
		if _, err := inst.db.InsertRows(sp.table, in.tuples); err != nil {
			return nil, err
		}
		if sp.ingest != "" {
			if _, err := inst.db.CreateTable(sp.ingest, in.schema); err != nil {
				return nil, err
			}
		}
		if in.model != nil {
			if err := inst.db.LoadModel(in.model, 0.9); err != nil {
				return nil, err
			}
		}
	}
	if sp.replicas > 0 {
		if err := inst.bootReplicas(sp, path); err != nil {
			return nil, err
		}
	}

	obs.RegisterRuntime(inst.db.Registry())
	inst.srv = server.New(inst.db, server.Options{})
	if len(inst.replicas) > 0 {
		nodes := make([]server.ReadNode, len(inst.replicas))
		for i, r := range inst.replicas {
			nodes[i] = r
		}
		inst.router = server.NewRouter(inst.db, nodes, retry.Policy{})
		inst.srv.SetRouter(inst.router)
	}
	if inst.cluster != nil {
		inst.srv.SetCluster(inst.cluster)
	}
	mux := obs.Mux(inst.db.Registry())
	inst.srv.Attach(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst.url = "http://" + ln.Addr().String() + "/query"
	inst.hs = &http.Server{Handler: h}
	inst.served = make(chan struct{})
	go func() {
		defer close(inst.served)
		inst.hs.Serve(ln) // returns http.ErrServerClosed once close() runs
	}()
	return inst, nil
}

// bootCluster seeds through the shard coordinator as `--shards --demo`
// does: broadcast DDL, one hash-split INSERT, the model on every shard.
func (inst *instance) bootCluster(sp *spec, in *inputs, path string) error {
	cl, err := shard.NewLocalCluster(path+".shards", sp.shards, sp.engine)
	if err != nil {
		return err
	}
	inst.cluster = cl
	inst.db = cl.Nodes()[0].(*shard.LocalNode).DB()
	ctx := context.Background()
	create := &sql.CreateTable{Name: sp.table, Cols: in.schema.Cols}
	if _, err := cl.Exec(ctx, sql.Render(create), nil); err != nil {
		return err
	}
	if _, err := cl.Exec(ctx, insertSQL(sp.table, in.tuples), nil); err != nil {
		return err
	}
	return cl.LoadModel(in.model, 0.9)
}

// bootReplicas attaches in-process followers over net.Pipe and waits until
// each has caught up with the seeded primary and reports healthy, so the
// first routed read can land on a replica.
func (inst *instance) bootReplicas(sp *spec, path string) error {
	inst.primary = repl.NewPrimary(inst.db, repl.PrimaryOptions{})
	for i := 0; i < sp.replicas; i++ {
		p := inst.primary
		rep, err := repl.NewReplica(fmt.Sprintf("%s.replica-%d", path, i), repl.ReplicaOptions{
			Name: fmt.Sprintf("replica-%d", i),
			Dial: func() (net.Conn, error) {
				c1, c2 := net.Pipe()
				p.Attach(c2, nil)
				return c1, nil
			},
		})
		if err != nil {
			return err
		}
		inst.replicas = append(inst.replicas, rep)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, rep := range inst.replicas {
		for rep.AppliedCSN() < inst.db.CommittedCSN() || !rep.Healthy() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s stuck at CSN %d, primary at %d", rep.Name(), rep.AppliedCSN(), inst.db.CommittedCSN())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// engines lists every engine of the topology, for summing counters. A
// replica's engine pointer can change across a crash/reopen, so it is
// fetched per call.
func (inst *instance) engines() []*engine.DB {
	if inst.cluster != nil {
		var dbs []*engine.DB
		for _, n := range inst.cluster.Nodes() {
			dbs = append(dbs, n.(*shard.LocalNode).DB())
		}
		return dbs
	}
	dbs := []*engine.DB{inst.db}
	for _, r := range inst.replicas {
		dbs = append(dbs, r.DB())
	}
	return dbs
}

// counters sums every engine's counters (the registries also carry the
// server's, router's and cluster's) into one map.
func (inst *instance) counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, db := range inst.engines() {
		for name, v := range db.Metrics().Counters {
			sum[name] += v
		}
	}
	return sum
}

// close stops the listener, waits for the serving goroutine, closes every
// engine, and removes the database directory.
func (inst *instance) close() error {
	var errs []error
	if inst.hs != nil {
		errs = append(errs, inst.hs.Close())
		<-inst.served
	}
	if inst.srv != nil {
		inst.srv.Close()
	}
	for _, r := range inst.replicas {
		errs = append(errs, r.Close())
	}
	if inst.primary != nil {
		inst.primary.Close()
	}
	switch {
	case inst.cluster != nil:
		errs = append(errs, inst.cluster.Close())
	case inst.db != nil:
		errs = append(errs, inst.db.Close())
	}
	errs = append(errs, os.RemoveAll(inst.dir))
	return errors.Join(errs...)
}
