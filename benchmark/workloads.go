package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"tensorbase/internal/data"
	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// spec is one named workload: the topology it boots, the table and model it
// seeds, and the fixed cycle of operation kinds each client repeats. The
// sizes are frozen; BENCHMARK.json names the workloads and says why each
// exists.
type spec struct {
	name  string
	table string // the table reads scan, seeded with rows rows
	// ingest is the table INSERTs write (and read_own reads back), created
	// empty with the same schema. Writes do not go to the table the reads
	// scan: the engine has no index, every read is a heap scan, and a run
	// bounded by time that grew the table it reads would report how far it
	// got, not how fast it is.
	ingest   string
	rows     int // rows seeded before the first operation
	width    int // floats per feature vector
	hidden   int // Fraud-FC-<hidden>; 0 loads no model
	engine   engine.Options
	replicas int      // in-process log-shipping replicas behind server.Router
	shards   int      // in-process shards behind shard.Cluster
	cycle    []string // operation kinds, repeated by every client
	warmup   int      // untimed cycles per client before measuring
}

// The operation kinds a cycle is built from.
const (
	opPredictAll = "predict_all" // SELECT id, PREDICT(model, features) FROM t
	opPredictLow = "predict_low" // ... WHERE id < lowRows
	opPointID    = "point_id"    // SELECT id FROM t WHERE id = k
	opPointRow   = "point_row"   // SELECT id, features FROM t WHERE id = k
	opInsert8    = "insert8"     // 8-row INSERT of fresh ids
	opInsert1    = "insert1"     // 1-row INSERT of a fresh id
	opReadOwn    = "read_own"    // point_row of the id the previous op inserted
	opPinned     = "pinned"      // SELECT id, PREDICT(...) FROM t WHERE id = k
	opScatter    = "scatter"     // SELECT id, PREDICT(...) FROM t ORDER BY id LIMIT scatterRows
	opCount      = "count"       // SELECT COUNT(*) FROM t, once, after the last phase
)

const (
	nClients    = 2   // closed-loop clients, one keep-alive connection and one session each
	lowRows     = 256 // rows predict_low predicts
	scatterRows = 512 // rows scatter returns
	// freshBase is the first id INSERT operations use; ids below it belong
	// to the seeded rows. directBase marks the ids the traced pass inserts
	// when it re-executes an INSERT directly against the engine.
	freshBase  = int64(1) << 30
	directBase = int64(1) << 31
)

var specs = []*spec{
	{
		name: "predict_scan", table: "txns", rows: 2048, width: 28, hidden: 1024,
		cycle: []string{opPredictAll}, warmup: 10,
	},
	{
		name: "predict_cached", table: "txns", rows: 2048, width: 28, hidden: 1024,
		engine: engine.Options{ResultCache: true, ResultCacheDistance: 1e-9, ResultCacheMaxEntries: 1024},
		cycle:  []string{opPredictAll}, warmup: 8,
	},
	{
		name: "scan_cold", table: "wide", rows: 4096, width: 968,
		engine: engine.Options{BufferFrames: 64},
		cycle:  []string{opPointID}, warmup: 24,
	},
	{
		name: "mixed_rw", table: "live", ingest: "ingest", rows: 1024, width: 28, hidden: 32,
		cycle:  []string{opPointRow, opPointRow, opInsert8, opPointRow, opPredictLow, opPointRow, opInsert8, opPointRow},
		warmup: 96,
	},
	{
		name: "replica_read", table: "txns", ingest: "ingest", rows: 1024, width: 28, hidden: 256, replicas: 2,
		cycle: []string{
			opPredictAll, opPredictAll, opPredictAll, opPredictAll, opPredictAll,
			opPredictAll, opPredictAll, opPredictAll, opPredictAll, opPredictAll,
			opPredictAll, opPredictAll, opPredictAll, opPredictAll, opPredictAll,
			opInsert1, opReadOwn,
		},
		warmup: 10,
	},
	{
		name: "shard_mix", table: "txns", rows: 4096, width: 28, hidden: 32, shards: 4,
		cycle: []string{opPinned, opPinned, opPinned, opScatter}, warmup: 64,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func (sp *spec) modelName() string { return fmt.Sprintf("Fraud-FC-%d", sp.hidden) }

// flopsPerRow is the multiply-adds of one forward pass, counted as 2 FLOPs
// each, computed from the model's shapes (width→hidden→2).
func (sp *spec) flopsPerRow() float64 {
	if sp.hidden == 0 {
		return 0
	}
	return 2 * float64(sp.width*sp.hidden+sp.hidden*2)
}

// inputs is everything generated from the seed before the system is booted:
// the seeded rows, the model weights, and the reference predictions answers
// are checked against. The engine sees none of it except as statements.
type inputs struct {
	seed   int64
	feat   *tensor.Tensor // (rows, width) features of the seeded rows
	tuples []table.Tuple
	schema *table.Schema
	model  *nn.Model   // nil when the workload loads none
	ref    [][]float32 // ref[id] = reference prediction for seeded row id
}

func generate(sp *spec, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	if sp.hidden == 0 {
		in.feat = data.Dense(seed, sp.rows, sp.width)
		in.schema = table.MustSchema(
			table.Column{Name: "id", Type: table.Int64},
			table.Column{Name: "features", Type: table.FloatVec},
		)
		in.tuples = make([]table.Tuple, sp.rows)
		for i := range in.tuples {
			in.tuples[i] = table.Tuple{table.IntVal(int64(i)), table.VecVal(in.feat.Row(i))}
		}
		return in, nil
	}
	d := data.Fraud(seed, sp.rows)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		return nil, err
	}
	in.feat, in.tuples, in.schema = d.X, rows, schema
	in.model = nn.FraudFC(rand.New(rand.NewSource(seed)), sp.hidden)
	out := in.model.Forward(in.feat)
	in.ref = make([][]float32, sp.rows)
	for i := range in.ref {
		in.ref[i] = out.Row(i)
	}
	if sp.shards > 0 {
		if err := in.checkSingleNode(sp); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// checkSingleNode replaces the forward-pass reference with what a single
// unsharded engine answers for the same rows and model, so that shard_mix is
// compared with a single node and not only with the model. The two must
// agree bit for bit; a difference is a set-up failure, not a failed op.
func (in *inputs) checkSingleNode(sp *spec) error {
	dir, err := os.MkdirTemp("", "tbbench-ref-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := engine.Open(filepath.Join(dir, "ref.db"), engine.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.CreateTable(sp.table, in.schema); err != nil {
		return err
	}
	if _, err := db.InsertRows(sp.table, in.tuples); err != nil {
		return err
	}
	if err := db.LoadModel(in.model, 0.9); err != nil {
		return err
	}
	res, err := db.QueryContext(context.Background(),
		fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM %s ORDER BY id", sp.modelName(), sp.table))
	if err != nil {
		return err
	}
	if len(res.Rows) != sp.rows {
		return fmt.Errorf("single-node reference returned %d rows, want %d", len(res.Rows), sp.rows)
	}
	for i, row := range res.Rows {
		if row[0].Int != int64(i) || !sameBits(row[1].Vec, in.ref[i]) {
			return fmt.Errorf("single-node reference differs from model.Forward at row %d", i)
		}
		in.ref[i] = row[1].Vec
	}
	return nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// mix is splitmix64 over the combined arguments: the one source of
// randomness for operation keys and inserted features, so that operation i
// of client c is a pure function of the seed.
func mix(seed int64, a, b uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + a*0xbf58476d1ce4e5b9 + b*0x94d049bb133111eb + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// freshFeatures are the features of inserted row id: uniform in [-1, 1),
// exactly representable, a pure function of (seed, id).
func freshFeatures(seed int64, id int64, width int) []float32 {
	v := make([]float32, width)
	for j := range v {
		v[j] = float32(int32(mix(seed, uint64(id), uint64(j))>>40)-1<<23) / (1 << 23)
	}
	return v
}

// freshID is the id of row j of the INSERT that client c issues as its
// operation i.
func freshID(client, i, j int) int64 {
	return freshBase + int64(client)<<26 + int64(i)*8 + int64(j)
}

// op is one generated operation: the statement, and what its answer must be.
type op struct {
	kind string
	sql  string
	rows int     // result rows; rows affected for an INSERT
	key  int64   // the id a point read or pinned PREDICT asks for
	ids  []int64 // ids an INSERT writes
}

// makeOp generates operation i of client c.
func makeOp(sp *spec, in *inputs, client, i int) op {
	kind := sp.cycle[i%len(sp.cycle)]
	o := op{kind: kind, rows: 1}
	pick := func(n int) int64 { return int64(mix(in.seed, uint64(client)+1, uint64(i)) % uint64(n)) }
	insert := func(n int) {
		for j := 0; j < n; j++ {
			o.ids = append(o.ids, freshID(client, i, j))
		}
		o.sql, o.rows = insertSQL(sp.ingest, freshRows(sp, in, o.ids)), n
	}
	switch kind {
	case opPredictAll:
		o.sql = fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM %s", sp.modelName(), sp.table)
		o.rows = sp.rows
	case opPredictLow:
		o.sql = fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM %s WHERE id < %d", sp.modelName(), sp.table, lowRows)
		o.rows = lowRows
	case opPointID:
		o.key = pick(sp.rows)
		o.sql = fmt.Sprintf("SELECT id FROM %s WHERE id = %d", sp.table, o.key)
	case opPointRow:
		o.key = pick(sp.rows)
		o.sql = fmt.Sprintf("SELECT id, features FROM %s WHERE id = %d", sp.table, o.key)
	case opInsert8:
		insert(8)
	case opInsert1:
		insert(1)
	case opReadOwn:
		o.key = freshID(client, i-1, 0)
		o.sql = fmt.Sprintf("SELECT id, features FROM %s WHERE id = %d", sp.ingest, o.key)
	case opPinned:
		o.key = pick(sp.rows)
		o.sql = fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM %s WHERE id = %d", sp.modelName(), sp.table, o.key)
	case opScatter:
		o.sql = fmt.Sprintf("SELECT id, PREDICT(%s, features) FROM %s ORDER BY id LIMIT %d", sp.modelName(), sp.table, scatterRows)
		o.rows = scatterRows
	default:
		panic("benchmark: unknown op kind " + kind)
	}
	return o
}

// insertSQL renders one INSERT of rows into tbl.
func insertSQL(tbl string, rows []table.Tuple) string {
	ins := &sql.Insert{Table: tbl, Rows: make([][]sql.Literal, len(rows))}
	for i, r := range rows {
		lits := make([]sql.Literal, len(r))
		for j, v := range r {
			lits[j] = sql.Literal{Value: v}
		}
		ins.Rows[i] = lits
	}
	return sql.Render(ins)
}

// freshRows are the rows an INSERT of the given fresh ids writes to the
// ingest table.
func freshRows(sp *spec, in *inputs, ids []int64) []table.Tuple {
	rows := make([]table.Tuple, len(ids))
	for j, id := range ids {
		rows[j] = table.Tuple{table.IntVal(id), table.VecVal(freshFeatures(in.seed, id, sp.width)), table.IntVal(0)}
	}
	return rows
}

// directTwin is the statement the traced pass runs straight against the
// engine in place of o: the same statement for a read, and for an INSERT the
// same number of rows under ids nothing else uses, so that no id is ever
// written twice.
func directTwin(sp *spec, in *inputs, o op) op {
	if len(o.ids) == 0 {
		return o
	}
	twin := op{kind: o.kind, rows: o.rows}
	for _, id := range o.ids {
		twin.ids = append(twin.ids, id+directBase)
	}
	twin.sql = insertSQL(sp.ingest, freshRows(sp, in, twin.ids))
	return twin
}

// userBytes is the payload of one inserted row: id, features, label.
func (sp *spec) userBytes() int { return 8 + 4*sp.width + 8 }

// features returns the feature vector the system holds for id, seeded or
// inserted.
func (in *inputs) features(sp *spec, id int64) []float32 {
	if id < int64(sp.rows) {
		return in.feat.Row(int(id))
	}
	return freshFeatures(in.seed, id, sp.width)
}
