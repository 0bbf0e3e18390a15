package core

import (
	"fmt"

	"tensorbase/internal/exec"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
	"tensorbase/internal/udf"
)

// Model decomposition and push-down (Sec. 2, validated in Sec. 7.2.1).
//
// For a pipeline that joins two feature tables D1 ⋈ D2 and then applies a
// model whose first layer is fully connected, the weight matrix W splits
// column-wise into W1 (over D1's features) and W2 (over D2's features) such
// that W·[d1;d2] = W1·d1 + W2·d2. The transformation pushes the two partial
// matrix multiplications below the join: each base table is projected into
// the (much narrower) hidden space once per row, the join carries
// hidden-width vectors instead of raw features, and the partials are summed
// after the join. The win is twofold: the join shuffles less data, and the
// first-layer multiplication runs once per base row instead of once per
// join-output row.

// SplitLinear decomposes l into left and right parts over the first
// leftWidth and the remaining input columns:
//
//	l(concat(x1, x2)) = left(x1) + right(x2)
//
// The bias is assigned to the left part so the identity holds exactly.
func SplitLinear(l *nn.Linear, leftWidth int) (left, right *nn.Linear, err error) {
	in := l.In()
	if leftWidth <= 0 || leftWidth >= in {
		return nil, nil, fmt.Errorf("core: split width %d out of range (0, %d)", leftWidth, in)
	}
	out := l.Out()
	w1 := tensor.New(out, leftWidth)
	w2 := tensor.New(out, in-leftWidth)
	for o := 0; o < out; o++ {
		row := l.W.Row(o)
		copy(w1.Row(o), row[:leftWidth])
		copy(w2.Row(o), row[leftWidth:])
	}
	left = &nn.Linear{W: w1}
	if l.B != nil {
		left.B = l.B.Clone()
	}
	right = &nn.Linear{W: w2}
	return left, right, nil
}

// FeatureJoinQuery describes the Sec. 7.2.1 pipeline: two feature tables
// joined by similarity of one numeric column from each side, followed by a
// model over the concatenated feature vectors.
type FeatureJoinQuery struct {
	Left, Right       exec.Operator
	LeftSim, RightSim string // Float64 similarity-join columns
	LeftVec, RightVec string // FloatVec feature columns
	Eps               float64
	Model             *nn.Model // first layer must be *nn.Linear
	Batch             int       // inference micro-batch size
	Budget            *memlimit.Budget
}

func (q *FeatureJoinQuery) batch() int {
	if q.Batch > 0 {
		return q.Batch
	}
	return 256
}

// BuildNaive compiles the query without the push-down rule: similarity-join
// the raw feature tables, concatenate feature vectors, then run the whole
// model as a fused UDF over the joined rows. The output schema ends with a
// "prediction" FloatVec column.
func (q *FeatureJoinQuery) BuildNaive() (exec.Operator, error) {
	join, err := exec.NewBandJoin(q.Left, q.Right, q.LeftSim, q.RightSim, q.Eps)
	if err != nil {
		return nil, err
	}
	// The join's columns are the left side's, then the right side's.
	li, ri := q.Left.Schema().ColIndex(q.LeftVec), q.Right.Schema().ColIndex(q.RightVec)
	if li < 0 {
		return nil, fmt.Errorf("core: unknown feature column %q", q.LeftVec)
	}
	if ri < 0 {
		return nil, fmt.Errorf("core: unknown feature column %q", q.RightVec)
	}
	ri += q.Left.Schema().Len()
	concatSchema := table.MustSchema(table.Column{Name: "features", Type: table.FloatVec})
	concat := exec.NewMap(join, concatSchema, func(t table.Tuple) (table.Tuple, error) {
		l, r := t[li].Vec, t[ri].Vec
		full := make([]float32, 0, len(l)+len(r))
		full = append(full, l...)
		full = append(full, r...)
		return table.Tuple{table.VecVal(full)}, nil
	})
	return udf.NewInferOp(concat, udf.NewModelUDF(q.Model, q.Budget), "features", q.batch())
}

// BuildPushdown compiles the query with the decomposition + push-down rule
// applied: W1×D1 and W2×D2 run below the join, the join carries
// hidden-width partials, and the model tail runs over their sum. The output
// schema ends with a "prediction" FloatVec column, and the result rows
// equal BuildNaive's (up to order).
func (q *FeatureJoinQuery) BuildPushdown() (exec.Operator, error) {
	if len(q.Model.Layers) == 0 {
		return nil, fmt.Errorf("core: empty model")
	}
	first, ok := q.Model.Layers[0].(*nn.Linear)
	if !ok {
		return nil, fmt.Errorf("core: push-down requires a fully connected first layer, got %s", q.Model.Layers[0].Name())
	}
	leftWidth, err := vecWidthHint(q.Left, q.LeftVec)
	if err != nil {
		return nil, err
	}
	w1, w2, err := SplitLinear(first, leftWidth)
	if err != nil {
		return nil, err
	}

	// Push each partial multiplication below the join.
	leftPartial, err := udf.NewInferOp(q.Left, udf.NewOperatorUDF(w1, 0, q.Model.Name()+"/W1", q.Budget), q.LeftVec, q.batch())
	if err != nil {
		return nil, err
	}
	rightPartial, err := udf.NewInferOp(q.Right, udf.NewOperatorUDF(w2, 0, q.Model.Name()+"/W2", q.Budget), q.RightVec, q.batch())
	if err != nil {
		return nil, err
	}

	join, err := exec.NewBandJoin(leftPartial, rightPartial, q.LeftSim, q.RightSim, q.Eps)
	if err != nil {
		return nil, err
	}
	// Each partial's prediction is its last column, so in the join output
	// the left one ends the left side's columns and the right one ends all.
	lp, rp := leftPartial.Schema().Len()-1, join.Schema().Len()-1

	hiddenSchema := table.MustSchema(table.Column{Name: "hidden", Type: table.FloatVec})
	sum := exec.NewMap(join, hiddenSchema, func(t table.Tuple) (table.Tuple, error) {
		l, r := t[lp].Vec, t[rp].Vec
		if len(l) != len(r) {
			return nil, fmt.Errorf("core: partial widths differ (%d vs %d)", len(l), len(r))
		}
		h := make([]float32, len(l))
		for i := range h {
			h[i] = l[i] + r[i]
		}
		return table.Tuple{table.VecVal(h)}, nil
	})

	tail, err := nn.NewModel(q.Model.Name()+"/tail", []int{1, first.Out()}, q.Model.Layers[1:]...)
	if err != nil {
		return nil, err
	}
	return udf.NewInferOp(sum, udf.NewModelUDF(tail, q.Budget), "hidden", q.batch())
}

// vecWidthHint peeks at the operator's first tuple to learn the feature
// width. It requires the operator to be restartable (Open resets).
func vecWidthHint(op exec.Operator, col string) (int, error) {
	idx := op.Schema().ColIndex(col)
	if idx < 0 {
		return 0, fmt.Errorf("core: unknown feature column %q", col)
	}
	if err := op.Open(); err != nil {
		return 0, err
	}
	t, ok, err := op.Next()
	cerr := op.Close()
	if err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	if !ok {
		return 0, fmt.Errorf("core: cannot infer feature width from empty input")
	}
	return len(t[idx].Vec), nil
}
