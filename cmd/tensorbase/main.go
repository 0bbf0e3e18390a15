// Command tensorbase is an interactive SQL shell over the embedded engine.
// It supports the engine's SQL subset (CREATE TABLE / INSERT / SELECT with
// PREDICT) plus shell commands:
//
//	\load <file.tbm>        load a TBM1 model file
//	\models                 list loaded models
//	\tables                 list tables
//	\explain <model> <n>    show the adaptive plan for batch size n
//	\quit
//
// With --serve ADDR the process also exposes a session-based SQL endpoint
// (POST /query, JSON in/out; see internal/server), /metrics (Prometheus
// text format), /debug/pprof, and /healthz on ADDR, and keeps serving after
// stdin closes — pipe SQL in to seed the database, then query over HTTP.
// --demo seeds a feature table and model so PREDICT works out of the box.
// With --slow-query D, statements slower than D are logged to stderr with
// their per-operator span summary.
//
// Replication (see internal/repl):
//
//	--repl-listen ADDR      stream committed WAL groups to replicas dialing ADDR
//	--replicate-from ADDR   run as a read replica of the primary at ADDR
//	                        (writes are rejected; reads serve the applied CSN)
//	--replicas N            spin up N in-process replicas and route HTTP
//	                        reads across them (single-process cluster)
//
// Sharding (see internal/shard):
//
//	--shards N              hash-partition tables by their first column
//	                        across N in-process shard engines under
//	                        <db>.shards/; reads that pin the shard key run
//	                        on one shard, everything else scatter-gathers
//
// SIGTERM with --serve drains gracefully: new statements get 503 +
// Retry-After, in-flight ones finish, the engine checkpoints, and the
// process exits 0.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tensorbase/internal/data"
	"tensorbase/internal/engine"
	"tensorbase/internal/exec"
	"tensorbase/internal/nn"
	"tensorbase/internal/obs"
	"tensorbase/internal/repl"
	"tensorbase/internal/retry"
	"tensorbase/internal/server"
	"tensorbase/internal/shard"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

func main() {
	path := flag.String("db", "tensorbase.db", "database file")
	memBudget := flag.Int64("mem", 0, "whole-tensor memory budget in bytes (0 = unlimited)")
	threshold := flag.Int64("threshold", 2<<30, "optimizer memory-limit threshold in bytes")
	cacheDist := flag.Float64("cache", -1, "enable per-model result caching with this squared-L2 distance threshold (0 = exact repeats only, negative = off)")
	cacheMax := flag.Int("cache-max", 0, "result cache admission cap in entries (0 = unbounded)")
	quantized := flag.Bool("quantized", false, "serve every PREDICT from the model's int8-resident quantized twin (as if each query said OPTIONS (quantized))")
	serve := flag.String("serve", "", "serve SQL-over-HTTP (/query), /metrics, /debug/pprof, and /healthz on this address (e.g. :9090); keeps serving after stdin closes")
	maxSessions := flag.Int("max-sessions", 0, "SQL-over-HTTP session cap (0 = default)")
	demo := flag.Bool("demo", false, `seed a demo feature table ("txns") and model ("Fraud-FC-32") so PREDICT works out of the box`)
	slowQuery := flag.Duration("slow-query", 0, "log statements slower than this to stderr with per-operator spans (0 = off)")
	replListen := flag.String("repl-listen", "", "accept replica log-shipping connections on this address (e.g. :9191)")
	replicateFrom := flag.String("replicate-from", "", "run as a read replica following the primary at this address; writes are rejected")
	nReplicas := flag.Int("replicas", 0, "spin up N in-process read replicas and route HTTP reads across them")
	nShards := flag.Int("shards", 0, "hash-shard tables across N in-process engines under <db>.shards/ and scatter-gather queries over them")
	flag.Parse()

	eopts := engine.Options{
		MemoryBudget:          *memBudget,
		MemoryThreshold:       *threshold,
		ResultCache:           *cacheDist >= 0,
		ResultCacheDistance:   max(*cacheDist, 0),
		ResultCacheMaxEntries: *cacheMax,
		PredictQuantized:      *quantized,
		SlowQueryThreshold:    *slowQuery,
	}

	// Replica mode: the follower engine is owned by the replication loop;
	// local statements read the applied snapshot, writes are rejected.
	var follower *repl.Replica
	var db *engine.DB
	var cluster *shard.Cluster
	var shellSess *shard.Session
	if *nShards > 1 {
		if *replicateFrom != "" || *replListen != "" || *nReplicas > 0 {
			fmt.Fprintln(os.Stderr, "tensorbase: --shards does not combine with replication flags")
			os.Exit(1)
		}
		cl, err := shard.NewLocalCluster(*path+".shards", *nShards, eopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase:", err)
			os.Exit(1)
		}
		cluster = cl
		defer cl.Close()
		shellSess = cl.NewSession()
		// Node 0 anchors the session/metrics plumbing; statements go
		// through the cluster.
		db = cl.Nodes()[0].(*shard.LocalNode).DB()
		fmt.Fprintf(os.Stderr, "sharding across %d in-process engines under %s.shards\n", *nShards, *path)
	} else if *replicateFrom != "" {
		addr := *replicateFrom
		rep, err := repl.NewReplica(*path, repl.ReplicaOptions{
			Name:   "replica@" + addr,
			Dial:   func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Engine: eopts,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase:", err)
			os.Exit(1)
		}
		follower = rep
		defer rep.Close()
		db = rep.DB()
		fmt.Fprintf(os.Stderr, "replicating from %s (reads only; applied CSN %d)\n", addr, rep.AppliedCSN())
	} else {
		var err error
		db, err = engine.Open(*path, eopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase:", err)
			os.Exit(1)
		}
		defer db.Close()
	}

	if *demo {
		if follower != nil {
			fmt.Fprintln(os.Stderr, "tensorbase: --demo cannot seed a read replica")
			os.Exit(1)
		}
		seed := seedDemo
		if cluster != nil {
			seed = func(*engine.DB) error { return seedDemoCluster(cluster) }
		}
		if err := seed(db); err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase: demo seed:", err)
			db.Close()
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, `demo: seeded table "txns" (4096 rows) and model "Fraud-FC-32"`)
	}

	// Primary-side replication: ship committed groups to replicas, either
	// over TCP (--repl-listen) or to in-process followers (--replicas).
	var primary *repl.Primary
	if (*replListen != "" || *nReplicas > 0) && follower == nil {
		primary = repl.NewPrimary(db, repl.PrimaryOptions{})
		defer primary.Close()
	}
	if *replListen != "" {
		if primary == nil {
			fmt.Fprintln(os.Stderr, "tensorbase: --repl-listen is a primary flag; drop it in --replicate-from mode")
			os.Exit(1)
		}
		rln, err := net.Listen("tcp", *replListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase: repl-listen:", err)
			os.Exit(1)
		}
		defer rln.Close()
		fmt.Fprintf(os.Stderr, "shipping commits to replicas on %s\n", rln.Addr())
		go primary.Serve(rln)
	}
	var nodes []server.ReadNode
	for i := 0; i < *nReplicas && primary != nil; i++ {
		p := primary
		rep, err := repl.NewReplica(fmt.Sprintf("%s.replica-%d", *path, i), repl.ReplicaOptions{
			Name: fmt.Sprintf("replica-%d", i),
			Dial: func() (net.Conn, error) {
				c1, c2 := net.Pipe()
				p.Attach(c2, nil)
				return c1, nil
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase: replica:", err)
			os.Exit(1)
		}
		defer rep.Close()
		nodes = append(nodes, rep)
	}
	if len(nodes) > 0 {
		fmt.Fprintf(os.Stderr, "routing reads across %d in-process replicas\n", len(nodes))
	}

	var srv *server.Server
	if *serve != "" {
		obs.RegisterRuntime(db.Registry())
		srv = server.New(db, server.Options{MaxSessions: *maxSessions})
		defer srv.Close()
		if len(nodes) > 0 {
			srv.SetRouter(server.NewRouter(db, nodes, retry.Policy{}))
		}
		if cluster != nil {
			srv.SetCluster(cluster)
		}
		mux := obs.Mux(db.Registry())
		srv.Attach(mux)
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tensorbase: serve:", err)
			db.Close()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving /query, /metrics, and /debug/pprof on http://%s\n", ln.Addr())
		go http.Serve(ln, mux)
	}

	// SIGTERM drains gracefully: refuse new statements (503 + Retry-After),
	// let in-flight ones finish, checkpoint, exit 0.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		<-term
		fmt.Fprintln(os.Stderr, "SIGTERM: draining")
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "tensorbase: drain:", err)
			}
			cancel()
		}
		switch {
		case follower != nil:
			follower.Close()
		case cluster != nil:
			cluster.Close()
		default:
			db.Close()
		}
		os.Exit(0)
	}()

	fmt.Println("tensorbase — serving deep learning models from a relational database")
	fmt.Println(`type SQL, or \help`)

	// Ctrl-C during a query cancels that query (the prompt comes back);
	// Ctrl-C with nothing in flight — or a second one while the cancelled
	// query is still unwinding — exits the shell.
	var inflight atomic.Pointer[context.CancelFunc]
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		for range sigc {
			if cancel := inflight.Swap(nil); cancel != nil {
				fmt.Fprintln(os.Stderr, "\ncancelling query (^C again to exit)")
				(*cancel)()
				continue
			}
			fmt.Fprintln(os.Stderr, "\ninterrupt")
			if cluster != nil {
				cluster.Close()
			} else {
				db.Close()
			}
			os.Exit(130)
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	eof := false
repl:
	for {
		fmt.Print("tb> ")
		if !sc.Scan() {
			eof = true
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, `\`) {
			if shellCommand(db, line) {
				break repl
			}
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		inflight.Store(&cancel)
		var res *engine.Result
		var err error
		if cluster != nil {
			res, err = cluster.Exec(ctx, line, shellSess)
		} else {
			res, err = db.QueryContext(ctx, line)
		}
		inflight.Store(nil)
		cancel()
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
	}
	// End of piped input with --serve keeps the export endpoints alive so
	// the seeded database can be scraped; \quit always exits.
	if eof && *serve != "" {
		fmt.Fprintln(os.Stderr, "stdin closed; metrics endpoint still serving (interrupt to exit)")
		select {}
	}
}

// seedDemo creates a fraud feature table and loads a small trained
// classifier, so a --serve deployment can take PREDICT queries immediately
// (the CI smoke test drives this). The table is large enough that a full
// scan spans many PREDICT micro-batches, so concurrent scans overlap on the
// serving path for the whole of each other's run.
func seedDemo(db *engine.DB) error {
	d := data.Fraud(1, 4096)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		return err
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		return err
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		return err
	}
	m := nn.FraudFC(rand.New(rand.NewSource(2)), 32)
	if _, err := nn.Train(m, d.X, d.Labels, nn.TrainConfig{Epochs: 3, BatchSize: 32, LR: 0.05, Seed: 3}); err != nil {
		return err
	}
	return db.LoadModel(m, 0.9)
}

// seedDemoCluster seeds the demo through the shard coordinator: the DDL
// broadcasts, the rows hash-split on id, and the model loads onto every
// shard so pushed-down PREDICT subplans run next to their slice of data.
func seedDemoCluster(cl *shard.Cluster) error {
	d := data.Fraud(1, 4096)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		return err
	}
	ctx := context.Background()
	create := &sql.CreateTable{Name: "txns", Cols: schema.Cols}
	if _, err := cl.Run(ctx, create, nil); err != nil {
		return err
	}
	ins := &sql.Insert{Table: "txns", Rows: make([][]sql.Literal, len(rows))}
	for i, r := range rows {
		lits := make([]sql.Literal, len(r))
		for j, v := range r {
			lits[j] = sql.Literal{Value: v}
		}
		ins.Rows[i] = lits
	}
	if _, err := cl.Run(ctx, ins, nil); err != nil {
		return err
	}
	m := nn.FraudFC(rand.New(rand.NewSource(2)), 32)
	if _, err := nn.Train(m, d.X, d.Labels, nn.TrainConfig{Epochs: 3, BatchSize: 32, LR: 0.05, Seed: 3}); err != nil {
		return err
	}
	return cl.LoadModel(m, 0.9)
}

// shellCommand handles backslash commands; it returns true to exit.
func shellCommand(db *engine.DB, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return true
	case `\help`:
		fmt.Println(`SQL: CREATE TABLE t (a INT, f VECTOR) | INSERT INTO t VALUES (1, [1,2]) |`)
		fmt.Println(`     SELECT a, PREDICT(model, f) FROM t WHERE a > 0 ORDER BY a LIMIT 10 | DROP TABLE t`)
		fmt.Println(`     SELECT a, DISTANCE(f, [1,2]) FROM t ORDER BY distance LIMIT 5`)
		fmt.Println(`shell: \load <file.tbm>  \models  \tables  \explain <model> <batch>`)
		fmt.Println(`       \lower <model> <batch>  \profile <select...>  \stats  \quit`)
	case `\stats`:
		s := db.Stats()
		fmt.Printf("pool: %d hits, %d misses, %d evictions | disk: %d reads, %d writes | mem peak: %d KiB\n",
			s.PoolHits, s.PoolMisses, s.PoolEvictions, s.DiskReads, s.DiskWrites, s.MemPeak>>10)
		fmt.Printf("predict: %d batches (%d all-hit), %d model calls | cache: %d hits, %d misses, %d shared | pipeline: %d fills, %d stalls\n",
			s.PredictBatches, s.BatchesAllHit, s.PredictUDFCalls,
			s.CacheHits, s.CacheMisses, s.CacheShared, s.PipelineFills, s.PipelineStalls)
	case `\lower`:
		if len(fields) != 3 {
			fmt.Println(`usage: \lower <model> <batch>`)
			return false
		}
		batch, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Println("error: bad batch size")
			return false
		}
		dot, err := db.LowerPredict(fields[1], batch)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(dot)
	case `\profile`:
		if len(fields) < 2 {
			fmt.Println(`usage: \profile SELECT ...`)
			return false
		}
		res, stats, err := db.ExecProfiled(strings.TrimSpace(strings.TrimPrefix(line, `\profile`)))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		printResult(res)
		fmt.Print(exec.FormatProfile(stats))
	case `\tables`:
		for _, t := range db.Catalog().Tables() {
			fmt.Println(t)
		}
	case `\models`:
		for _, m := range db.Catalog().Models() {
			fmt.Println(m)
		}
	case `\load`:
		if len(fields) != 2 {
			fmt.Println(`usage: \load <file.tbm>`)
			return false
		}
		m, err := db.LoadModelFile(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("loaded %s (%d layers)\n", m.Name(), len(m.Layers))
	case `\explain`:
		if len(fields) != 3 {
			fmt.Println(`usage: \explain <model> <batch>`)
			return false
		}
		batch, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Println("error: bad batch size")
			return false
		}
		s, err := db.ExplainPredict(fields[1], batch)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(s)
	default:
		fmt.Println("unknown command; try \\help")
	}
	return false
}

func printResult(res *engine.Result) {
	if res.Schema == nil {
		fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
		return
	}
	var names []string
	for _, c := range res.Schema.Cols {
		names = append(names, c.Name)
	}
	fmt.Println(strings.Join(names, " | "))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = formatValue(v)
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func formatValue(v table.Value) string {
	if v.Type == table.FloatVec && len(v.Vec) > 8 {
		return fmt.Sprintf("vec[%d]", len(v.Vec))
	}
	return v.String()
}
