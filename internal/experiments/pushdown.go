package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"tensorbase/internal/core"
	"tensorbase/internal/data"
	"tensorbase/internal/exec"
	"tensorbase/internal/nn"
)

// Pushdown reproduces Sec. 7.2.1 (model decomposition and push-down): the
// Bosch-like workload vertically partitions 968 features into two tables of
// 484, similarity-joins them on their most-correlated column pair, and runs
// a 968→256→2 FFNN over the joined features. The decomposition rule
// rewrites W·(D1 ⋈ D2) into (W1·D1) ⋈ (W2·D2): the partial products run
// once per base row below the join, and the join carries 256-wide hidden
// vectors instead of 968-wide raw features. The paper measures a 5.7×
// speedup; the shape (substantially faster with identical results) is what
// this driver reproduces.
func Pushdown(cfg Config) ([]Row, error) {
	// Quick mode cuts rows and join multiplicity but keeps the paper's 484
	// features a side: the rewrite's premise is a hidden layer narrower
	// than the raw features. Narrower features would make the join carry
	// wider vectors after the rewrite than before it, leaving only the
	// first layer's FLOPs to save.
	rowsPerSide := 2000
	features := 484
	multiplicity := 8
	if cfg.Quick {
		rowsPerSide = 300
		multiplicity = 4
	}
	d1, d2 := data.BoschTables(cfg.seed(), rowsPerSide, features, multiplicity)
	rng := rand.New(rand.NewSource(cfg.seed() + 9))
	model := nn.BoschFC(rng, 2*features)

	q := &core.FeatureJoinQuery{
		LeftSim: "s1", RightSim: "s2",
		LeftVec: "v1", RightVec: "v2",
		Eps:   0.25,
		Model: model,
		Batch: 256,
	}

	// run times one plan over fresh scans: operators are single-use
	// pipelines.
	run := func(build func() (exec.Operator, error)) (time.Duration, int, error) {
		q.Left = exec.NewMemScan(data.BoschSchema("s1", "v1"), d1)
		q.Right = exec.NewMemScan(data.BoschSchema("s2", "v2"), d2)
		start := time.Now()
		op, err := build()
		if err != nil {
			return 0, 0, err
		}
		rows, err := exec.Collect(op)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), len(rows), nil
	}

	// One run takes tens of milliseconds at quick scale, so a single
	// timing is at the mercy of whatever else the machine runs. Alternate
	// the plans and report each one's median of three.
	const runs = 3
	var naiveLats, pdLats [runs]time.Duration
	var naiveRows, pdRows int
	for i := range runs {
		var err error
		if naiveLats[i], naiveRows, err = run(q.BuildNaive); err != nil {
			return nil, err
		}
		if pdLats[i], pdRows, err = run(q.BuildPushdown); err != nil {
			return nil, err
		}
		if naiveRows != pdRows {
			return nil, fmt.Errorf("experiments: plans disagree: naive %d rows, pushdown %d", naiveRows, pdRows)
		}
	}
	slices.Sort(naiveLats[:])
	slices.Sort(pdLats[:])
	naiveLat, pdLat := naiveLats[runs/2], pdLats[runs/2]
	speedup := float64(naiveLat) / float64(pdLat)
	return []Row{
		{Exp: "pushdown", Workload: "Bosch-FC", System: "join-then-infer", Batch: naiveRows, Latency: naiveLat, Status: "OK"},
		{Exp: "pushdown", Workload: "Bosch-FC", System: "decompose+pushdown", Batch: pdRows, Latency: pdLat, Status: "OK",
			Note: fmt.Sprintf("%.1fx speedup (paper: 5.7x)", speedup)},
	}, nil
}
