// Package udf implements the UDF-centric execution path: model inference
// encapsulated as user-defined functions running inside the database, over
// data that never leaves it. A ModelUDF fuses the entire forward pass into
// one UDF (the paper's coarse-grained encapsulation); OperatorUDF wraps a
// single linear-algebra operator, the fine-grained form the unified IR
// schedules individually.
//
// UDF-centric execution is whole-tensor: operators materialise their full
// inputs and outputs, so a UDF whose operator footprint exceeds the engine's
// memory budget fails with memlimit.ErrOOM — the Table 3 behaviour that
// motivates falling back to the relation-centric representation.
package udf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/tensor"
)

// UDF is a batch tensor function registered with the database.
type UDF interface {
	// Name is the UDF's registry key.
	Name() string
	// Apply transforms a batch.
	Apply(in *tensor.Tensor) (*tensor.Tensor, error)
}

// CancelUDF is optionally implemented by UDFs whose execution observes a
// query-cancellation token (the adaptive inference UDF threads it through
// the block-multiply loops). Invoke through ApplyCancel, which falls back
// to plain Apply for UDFs without cancellation support.
type CancelUDF interface {
	UDF
	ApplyCancel(tok *lifecycle.Token, in *tensor.Tensor) (*tensor.Tensor, error)
}

// ApplyCancel applies u to in under tok when u supports cancellation, and
// plainly otherwise.
func ApplyCancel(u UDF, tok *lifecycle.Token, in *tensor.Tensor) (*tensor.Tensor, error) {
	if cu, ok := u.(CancelUDF); ok && tok != nil {
		return cu.ApplyCancel(tok, in)
	}
	return u.Apply(in)
}

// ModelUDF fuses a whole model forward pass into a single UDF.
type ModelUDF struct{ fused }

// NewModelUDF wraps m as one coarse-grained UDF charged against budget
// (nil means unlimited).
func NewModelUDF(m *nn.Model, budget *memlimit.Budget) *ModelUDF {
	return &ModelUDF{newFused("model:"+m.Name(), m, budget)}
}

// Apply implements UDF; see fused.apply.
func (u *ModelUDF) Apply(in *tensor.Tensor) (*tensor.Tensor, error) { return u.apply(in) }

// QuantizedUDF fuses the int8-resident twin of a model (see
// nn.QuantizeResident) into a single UDF: weights stay packed int8, each
// batch's activations quantize per row on entry, and the forward pass runs
// the packed int8 GEMM. Per-row activation scales keep its outputs
// batch-composition independent, so caching and miss compaction work unchanged.
type QuantizedUDF struct{ fused }

// NewQuantizedUDF wraps the quantized twin q of the model named owner,
// charged against budget (nil means unlimited).
func NewQuantizedUDF(q *nn.Model, owner string, budget *memlimit.Budget) *QuantizedUDF {
	return &QuantizedUDF{newFused("quantized:"+owner, q, budget)}
}

// Apply implements UDF; see fused.apply. The peak-footprint estimate
// reflects the quantized layers' smaller resident weights.
func (u *QuantizedUDF) Apply(in *tensor.Tensor) (*tensor.Tensor, error) { return u.apply(in) }

// workspacesBuilt counts nn.Workspaces made by every fused UDF.
var workspacesBuilt atomic.Int64

// WorkspacesBuilt returns how many forward-pass workspaces the process's
// model UDFs have built. A UDF builds one only when every one it holds is
// in use, so the count grows to the peak number of concurrent calls.
func WorkspacesBuilt() int64 { return workspacesBuilt.Load() }

// fused is the whole-model forward pass behind ModelUDF and QuantizedUDF:
// one reservation, one workspace and one panic boundary per call.
type fused struct {
	name   string
	model  *nn.Model
	budget *memlimit.Budget

	mu   sync.Mutex
	free []*nn.Workspace // idle workspaces, dropped with the UDF
}

func newFused(name string, m *nn.Model, budget *memlimit.Budget) fused {
	if budget == nil {
		budget = memlimit.Unlimited()
	}
	return fused{name: name, model: m, budget: budget}
}

// Name implements UDF.
func (u *fused) Name() string { return u.name }

// Model returns the wrapped model.
func (u *fused) Model() *nn.Model { return u.model }

// apply reserves the largest per-operator footprint (the paper's
// m·k + k·n + m·n rule) for the duration of the call and runs the forward
// pass in a workspace checked out for the same span. The workspace is used
// only when its bytes fit inside the reservation; a batch smaller than the
// one it grew for runs without it. A panic inside the forward pass (a bad
// weight shape, a malformed batch) is contained here: it comes back as a
// *lifecycle.PanicError query error, the reservation is released, the
// workspace is dropped rather than reused, and the database process
// survives.
func (u *fused) apply(in *tensor.Tensor) (out *tensor.Tensor, err error) {
	batch := in.Dim(0)
	peak, merr := u.model.MaxOpBytes(batch)
	if merr != nil {
		return nil, fmt.Errorf("udf: %s: %w", u.name, merr)
	}
	res, rerr := u.budget.TryReserve(peak)
	if rerr != nil {
		return nil, fmt.Errorf("udf: %s batch %d: %w", u.name, batch, rerr)
	}
	defer res.Close()
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			out, err = nil, fmt.Errorf("udf: %s: %w", u.name, perr)
		}
	}()
	ws := u.checkout()
	run := ws
	if need := u.model.WorkspaceBytes(batch); need < 0 || max(need, ws.Bytes()) > peak {
		run = nil
	}
	out = u.model.ForwardFrom(in, 0, run)
	u.checkin(ws)
	return out, nil
}

// checkout takes an idle workspace, building one when none is idle.
func (u *fused) checkout() *nn.Workspace {
	u.mu.Lock()
	defer u.mu.Unlock()
	if n := len(u.free); n > 0 {
		ws := u.free[n-1]
		u.free = u.free[:n-1]
		return ws
	}
	workspacesBuilt.Add(1)
	return new(nn.Workspace)
}

// checkin returns ws to the idle list.
func (u *fused) checkin(ws *nn.Workspace) {
	u.mu.Lock()
	u.free = append(u.free, ws)
	u.mu.Unlock()
}

// OperatorUDF wraps a single model operator as a fine-grained UDF.
type OperatorUDF struct {
	layer  nn.Layer
	index  int
	owner  string
	budget *memlimit.Budget
}

// NewOperatorUDF wraps layer (index i of model owner) as a UDF.
func NewOperatorUDF(layer nn.Layer, i int, owner string, budget *memlimit.Budget) *OperatorUDF {
	if budget == nil {
		budget = memlimit.Unlimited()
	}
	return &OperatorUDF{layer: layer, index: i, owner: owner, budget: budget}
}

// Name implements UDF.
func (u *OperatorUDF) Name() string {
	return fmt.Sprintf("op:%s[%d]:%s", u.owner, u.index, u.layer.Name())
}

// Apply implements UDF. Panics in the operator's forward pass are contained
// as in ModelUDF.Apply.
func (u *OperatorUDF) Apply(in *tensor.Tensor) (out *tensor.Tensor, err error) {
	need := u.layer.MemEstimate(in.Shape())
	res, rerr := u.budget.TryReserve(need)
	if rerr != nil {
		return nil, fmt.Errorf("udf: %s: %w", u.Name(), rerr)
	}
	defer res.Close()
	defer func() {
		if perr := lifecycle.AsError(recover()); perr != nil {
			out, err = nil, fmt.Errorf("udf: %s: %w", u.Name(), perr)
		}
	}()
	return u.layer.Forward(in), nil
}

// Registry is a thread-safe name → UDF map, the database's UDF catalog.
type Registry struct {
	mu   sync.RWMutex
	udfs map[string]UDF
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{udfs: make(map[string]UDF)} }

// Register adds u, rejecting duplicate names.
func (r *Registry) Register(u UDF) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.udfs[u.Name()]; dup {
		return fmt.Errorf("udf: %q already registered", u.Name())
	}
	r.udfs[u.Name()] = u
	return nil
}

// Unregister removes the named UDF; absent names are a no-op (a model
// may have no quantized twin).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.udfs, name)
}

// Lookup returns the named UDF.
func (r *Registry) Lookup(name string) (UDF, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	u, ok := r.udfs[name]
	return u, ok
}

// Names returns the registered UDF names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.udfs))
	for n := range r.udfs {
		out = append(out, n)
	}
	return out
}
