package core

import (
	"fmt"
	"sync"

	"tensorbase/internal/blocked"
	"tensorbase/internal/dlruntime"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
	"tensorbase/internal/tensor"
	"tensorbase/internal/udf"
)

// Result is the value produced by executing an inference plan. Exactly one
// of Dense and Blocked is set: plans whose final operator ran
// relation-centrically leave the result as a blocked relation (so a huge
// feature map is never assembled), others produce a dense tensor.
type Result struct {
	Dense   *tensor.Tensor
	Blocked *blocked.Matrix
}

// Rows returns the number of result rows.
func (r *Result) Rows() int {
	if r.Dense != nil {
		return r.Dense.Dim(0)
	}
	return r.Blocked.Rows
}

// AsDense returns the result as a dense tensor, assembling a blocked result
// if necessary. Intended for verification and small results.
func (r *Result) AsDense() (*tensor.Tensor, error) {
	if r.Dense != nil {
		return r.Dense, nil
	}
	return r.Blocked.Assemble()
}

// Executor runs InferencePlans, dispatching each operator to its chosen
// representation: UDF-centric operators run whole-tensor inside the
// database (charged against Budget), relation-centric operators run over
// tensor-block relations in the buffer pool.
type Executor struct {
	Pool      *storage.BufferPool
	Budget    *memlimit.Budget
	BlockSize int
	// weights caches each relation-centric Linear's (out,in) weight matrix
	// chunked into blocks, keyed per layer — the paper's "chunk the weight
	// matrix into matrix blocks" done once at load.
	weights map[*nn.Linear]*blocked.Matrix
	// offloaders caches DL-centric executors per target runtime.
	offloaders map[*dlruntime.Runtime]*offloadExecutor
	// fused holds one whole-model UDF per model a fully UDF-centric plan
	// runs, so its forward-pass workspaces outlive the call.
	fusedMu sync.Mutex
	fused   map[*nn.Model]*udf.ModelUDF
}

// NewExecutor returns an executor over pool with the given whole-tensor
// budget (nil means unlimited).
func NewExecutor(pool *storage.BufferPool, budget *memlimit.Budget) *Executor {
	if budget == nil {
		budget = memlimit.Unlimited()
	}
	return &Executor{
		Pool: pool, Budget: budget, BlockSize: blocked.DefaultBlockSize,
		weights:    make(map[*nn.Linear]*blocked.Matrix),
		offloaders: make(map[*dlruntime.Runtime]*offloadExecutor),
		fused:      make(map[*nn.Model]*udf.ModelUDF),
	}
}

// fusedUDF returns the executor's whole-model UDF for m, built on first use.
func (e *Executor) fusedUDF(m *nn.Model) *udf.ModelUDF {
	e.fusedMu.Lock()
	defer e.fusedMu.Unlock()
	u, ok := e.fused[m]
	if !ok {
		u = udf.NewModelUDF(m, e.Budget)
		e.fused[m] = u
	}
	return u
}

// Prepare chunks the weight tensors of every relation-centric Linear
// operator in the plan into block relations, as happens when a model is
// loaded into the database. Safe to call more than once.
func (e *Executor) Prepare(plan *InferencePlan) error {
	for _, d := range plan.Decisions {
		if d.Repr != ReprRelation {
			continue
		}
		if lin, ok := plan.Model.Layers[d.Layer].(*nn.Linear); ok {
			if _, done := e.weights[lin]; done {
				continue
			}
			wt, err := blocked.Store(e.Pool, lin.W, e.BlockSize)
			if err != nil {
				return fmt.Errorf("core: chunking weights of layer %d: %w", d.Layer, err)
			}
			e.weights[lin] = wt
		}
	}
	return nil
}

// value is the executor's intermediate state: dense or blocked.
type value struct {
	dense *tensor.Tensor
	blk   *blocked.Matrix
}

// Run executes the plan over input x (dense, batch in dimension 0).
//
// Fully UDF-centric plans fuse into one model UDF. Mixed plans run operator
// by operator, converting between dense and blocked forms at representation
// boundaries; the dense↔blocked conversions are charged to the budget, so a
// plan that would need an over-budget dense intermediate fails with
// memlimit.ErrOOM rather than silently materialising it.
func (e *Executor) Run(plan *InferencePlan, x *tensor.Tensor) (*Result, error) {
	return e.RunCancel(plan, x, nil)
}

// RunCancel is Run observing a cancellation token: the executor checks tok
// between layers and threads it into the relation-centric block multiplies,
// so a cancelled query abandons the plan within one block of work. A nil
// token behaves exactly like Run.
func (e *Executor) RunCancel(plan *InferencePlan, x *tensor.Tensor, tok *lifecycle.Token) (*Result, error) {
	if plan.AllUDF() {
		out, err := e.fusedUDF(plan.Model).Apply(x)
		if err != nil {
			return nil, err
		}
		return &Result{Dense: out}, nil
	}
	if err := e.Prepare(plan); err != nil {
		return nil, err
	}
	// A relation-centric conv2d produces the (n·outH·outW, outC) patch-major
	// layout, which a later Flatten cannot reinterpret as (n, h·w·c); reject
	// such plans instead of silently mis-shaping them. (None of the paper's
	// workloads hit this: large convs are terminal operators.)
	convRelational := false
	for _, d := range plan.Decisions {
		if d.Op == "conv2d" && d.Repr == ReprRelation {
			convRelational = true
		}
		if convRelational && d.Op == "flatten" {
			return nil, fmt.Errorf("core: flatten after a relation-centric conv2d is unsupported")
		}
	}
	cur := value{dense: x}
	for i := 0; i < len(plan.Decisions); {
		if err := tok.Err(); err != nil {
			return nil, err
		}
		d := plan.Decisions[i]
		if d.Repr == ReprDLRuntime {
			// Execute the maximal consecutive offloaded span in one
			// round trip to the external runtime.
			j := i
			for j < len(plan.Decisions) && plan.Decisions[j].Repr == ReprDLRuntime {
				j++
			}
			out, err := e.runOffloaded(plan, plan.Decisions[i].Layer, plan.Decisions[j-1].Layer+1, cur)
			if err != nil {
				return nil, fmt.Errorf("core: layers %d-%d (dl-centric): %w", plan.Decisions[i].Layer, plan.Decisions[j-1].Layer, err)
			}
			cur = out
			i = j
			continue
		}
		layer := plan.Model.Layers[d.Layer]
		var err error
		if d.Repr == ReprRelation {
			cur, err = e.runRelational(plan, d, layer, cur, tok)
		} else {
			cur, err = e.runUDF(plan, d, layer, cur)
		}
		if err != nil {
			return nil, fmt.Errorf("core: layer %d (%s, %s): %w", d.Layer, d.Op, d.Repr, err)
		}
		i++
	}
	if cur.blk != nil {
		return &Result{Blocked: cur.blk}, nil
	}
	return &Result{Dense: cur.dense}, nil
}

// toDense assembles a blocked value, charging the dense footprint.
func (e *Executor) toDense(v value) (*tensor.Tensor, error) {
	if v.dense != nil {
		return v.dense, nil
	}
	need := int64(v.blk.Rows) * int64(v.blk.Cols) * 4
	res, err := e.Budget.TryReserve(need)
	if err != nil {
		return nil, fmt.Errorf("assembling blocked intermediate: %w", err)
	}
	defer res.Close()
	return v.blk.Assemble()
}

// runOffloaded ships the current value to the plan's external runtime for
// layers [from, to).
func (e *Executor) runOffloaded(plan *InferencePlan, from, to int, cur value) (value, error) {
	if plan.Offload == nil || plan.Offload.Runtime == nil {
		return value{}, fmt.Errorf("plan has offloaded operators but no runtime")
	}
	dense, err := e.toDense(cur)
	if err != nil {
		return value{}, err
	}
	rt := plan.Offload.Runtime
	o, ok := e.offloaders[rt]
	if !ok {
		o = newOffloadExecutor(rt)
		e.offloaders[rt] = o
	}
	out, err := o.run(plan.Model, from, to, dense)
	if err != nil {
		return value{}, err
	}
	return value{dense: out}, nil
}

func (e *Executor) runUDF(plan *InferencePlan, d OpDecision, layer nn.Layer, cur value) (value, error) {
	dense, err := e.toDense(cur)
	if err != nil {
		return value{}, err
	}
	out, err := udf.NewOperatorUDF(layer, d.Layer, plan.Model.Name(), e.Budget).Apply(dense)
	if err != nil {
		return value{}, err
	}
	return value{dense: out}, nil
}

func (e *Executor) runRelational(plan *InferencePlan, d OpDecision, layer nn.Layer, cur value, tok *lifecycle.Token) (value, error) {
	switch l := layer.(type) {
	case *nn.Linear:
		in := cur.blk
		if in == nil {
			var err error
			in, err = blocked.Store(e.Pool, cur.dense, e.BlockSize)
			if err != nil {
				return value{}, err
			}
		}
		wt, ok := e.weights[l]
		if !ok {
			return value{}, fmt.Errorf("weights not prepared")
		}
		out, err := blocked.MultiplyStreamingCancel(e.Pool, in, wt, e.Budget, tok)
		if err != nil {
			return value{}, err
		}
		if l.B != nil {
			out, err = blocked.AddBiasBlocks(e.Pool, out, l.B.Data())
			if err != nil {
				return value{}, err
			}
		}
		return value{blk: out}, nil

	case *nn.Conv2D:
		if cur.dense == nil {
			return value{}, fmt.Errorf("relation-centric conv2d needs a dense NHWC input (blocked feature maps cannot be re-windowed)")
		}
		out, err := blocked.Conv2DRelational(e.Pool, cur.dense, l.K, e.BlockSize, e.Budget)
		if err != nil {
			return value{}, err
		}
		return value{blk: out}, nil

	case nn.ReLU:
		if cur.blk != nil {
			out, err := blocked.ReLUBlocks(e.Pool, cur.blk)
			if err != nil {
				return value{}, err
			}
			return value{blk: out}, nil
		}
		return value{dense: tensor.ReLUInto(cur.dense)}, nil

	case nn.Sigmoid:
		if cur.blk != nil {
			out, err := blocked.MapBlocks(e.Pool, cur.blk, func(_, _ int, blk *tensor.Tensor) (*tensor.Tensor, error) {
				return tensor.SigmoidInto(blk), nil
			})
			if err != nil {
				return value{}, err
			}
			return value{blk: out}, nil
		}
		return value{dense: tensor.SigmoidInto(cur.dense)}, nil

	default:
		// Softmax (needs whole rows) and Flatten (reshapes across the
		// block grid) fall back to whole-tensor execution.
		return e.runUDF(plan, d, layer, cur)
	}
}
