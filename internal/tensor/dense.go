package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Dense layers: y = x·Wᵀ (+ b) (then ReLU) as one pass.
//
// Each output column block of the Go kernel (denseRows without vec) computes
// s = ((0 + a₀w₀) + a₁w₁) + … in k order, every product and every sum
// rounded on its own. The AVX2 tile does the same roundings in the same
// order, eight columns per register: it broadcasts a[i,p] against a packed
// panel of Wᵀ and issues VMULPS then VADDPS, never FMA. The n mod 4 tail
// columns use dotUnrolled's order, which is one 4-lane SSE accumulator. Bias
// and ReLU fold into the tile's store. So every shape, CPU and worker count
// returns the same bits, and row i of a product depends on row i of x alone.

// Tile epilogue flags (TILE_* in dense_amd64.s).
const (
	tileLoad = 1 // continue from the partial sums already in out
	tileBias = 2 // add the bias on store
	tileReLU = 4 // apply ReLU's sign mask on store
)

const (
	tileRows = 4   // rows per AVX2 tile
	tileCols = 16  // columns per AVX2 tile: two 8-lane registers
	tileKC   = 256 // k block of one packed panel: 256×16 floats = 16 KiB
)

// vectorTransB reports whether Dense runs an (m,k)×(n,k)ᵀ product on the
// vector kernels: AVX2 tiles for the first n&^15 columns, SSE dots for the
// last n mod 4. The choice depends on the shape and the CPU alone. A
// product of fewer than four rows keeps the Go loop, because for it the
// panel pack costs as much as the product. An accumulating product
// (DenseAddInto) sums its n mod 4 tail columns in k order in Go, so only
// the tiles make it a vector call.
func vectorTransB(m, k, n int, load bool) bool {
	if !haveSSE || m < tileRows || k < 1 {
		return false
	}
	return (haveAVX2 && n >= tileCols) || (!load && n%4 != 0)
}

// Dense returns x·wᵀ, plus bias when bias is non-nil, through ReLU when
// relu is set: a fully connected layer in one pass. x is (m,k) and w is
// (n,k) in the (out,in) layout. The result has the bits of the bias-free,
// ReLU-free product, then AddBiasRowsInto, then ReLUInto, on every CPU.
func Dense(x, w, bias *Tensor, relu bool) *Tensor {
	if x.Rank() != 2 || w.Rank() != 2 {
		panic("tensor: Dense requires 2-D tensors")
	}
	out := New(x.shape[0], w.shape[0])
	DenseInto(out, x, w, bias, relu)
	return out
}

// DenseInto is Dense writing into out, an (m,n) tensor that must not
// overlap x. Every element of out is assigned, none read, so out may hold
// anything on entry: a reused buffer needs no clearing.
func DenseInto(out, x, w, bias *Tensor, relu bool) {
	m, k, n, b := denseShape(out, x, w, bias)
	vec := vectorTransB(m, k, n, false)
	if vec {
		kernelVectorCalls.Add(1)
	}
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		denseRows(out.data, x.data, w.data, b, relu, vec, false, nil, 0, m, k, n)
		return
	}
	defer release()
	bandLoop(m, workers, func(r0, r1 int) { denseRows(out.data, x.data, w.data, b, relu, vec, false, nil, r0, r1, k, n) })
}

// DenseAddInto computes out += x·wᵀ on Dense's kernels, for x (m,k), w
// (n,k) and out (m,n) not overlapping x: every sum continues from the
// value in out and adds the products in k order, each rounded to float32.
// So a chain of DenseAddInto over consecutive column blocks of x and w,
// started from zeros, returns Dense's bits on every column Dense sums in k
// order (its first n&^3). The relation-centric block multiply runs each of
// its k steps through it. The tiles pack into panel, the caller's own
// buffer. The product runs on the caller's goroutine alone: the blocked
// multiply parallelises over result blocks instead.
func DenseAddInto(out, x, w *Tensor, panel *Panel) {
	m, k, n, _ := denseShape(out, x, w, nil)
	vec := vectorTransB(m, k, n, true)
	if vec {
		kernelVectorCalls.Add(1)
	}
	kernelSerialRuns.Add(1)
	denseRows(out.data, x.data, w.data, nil, false, vec, true, panel, 0, m, k, n)
}

// denseShape checks the operands of DenseInto and DenseAddInto and returns
// the product's m, k and n and the bias data (nil without a bias).
func denseShape(out, x, w, bias *Tensor) (m, k, n int, b []float32) {
	if x.Rank() != 2 || w.Rank() != 2 {
		panic("tensor: Dense requires 2-D tensors")
	}
	m, k = x.shape[0], x.shape[1]
	n, k2 := w.shape[0], w.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: Dense shape mismatch (%d,%d)×(%d,%d)ᵀ", m, k, n, k2))
	}
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: Dense output shape %v, want (%d,%d)", out.shape, m, n))
	}
	if bias != nil {
		if bias.Len() != n {
			panic(fmt.Sprintf("tensor: bias length %d does not match row width %d", bias.Len(), n))
		}
		b = bias.data
	}
	return m, k, n, b
}

// denseRows computes rows [r0,r1) of Dense, or of DenseAddInto when load
// is set. With vec unset it is the Go kernel, which the vector kernels
// reproduce bit for bit and which runs where they do not. panel is
// transBTiles'.
func denseRows(out, a, w, bias []float32, relu, vec, load bool, panel *Panel, r0, r1, k, n int) {
	j0 := 0 // first column the tiles leave to the Go loop
	if vec && haveAVX2 && n >= tileCols {
		j0 = n &^ (tileCols - 1)
		transBTiles(out, a, w, bias, relu, load, panel, r0, r1, k, n)
	}
	n4 := n &^ 3
	transBCols4(out, a, w, r0, r1, k, n, j0, n4, load)
	for j := n4; j < n; j++ {
		wj := w[j*k : (j+1)*k : (j+1)*k]
		switch {
		case load:
			for i := r0; i < r1; i++ {
				s := out[i*n+j]
				for p, av := range a[i*k : (i+1)*k : (i+1)*k] {
					s += float32(av * wj[p])
				}
				out[i*n+j] = s
			}
		case vec:
			dotRows(&a[r0*k], 4*k, &wj[0], k, &out[r0*n+j], 4*n, r1-r0)
		default:
			for i := r0; i < r1; i++ {
				out[i*n+j] = dotUnrolled(a[i*k:(i+1)*k:(i+1)*k], wj)
			}
		}
	}
	epilogue(out, bias, relu, r0, r1, n, j0)
}

// transBCols4 computes columns [j0,j1) of rows [r0,r1) of a × bᵀ, four
// columns per pass; j1-j0 is a multiple of 4. One read of the a row feeds
// four independent dot-product accumulators, which hides the float-add
// latency chain a single-accumulator loop serialises on. Each sum runs in
// k order, s = ((s₀ + a₀b₀) + a₁b₁) + …, with every product rounded to
// float32 before it is added (see axpyUnrolled); s₀ is 0, or the value in
// out when load is set.
func transBCols4(out, a, b []float32, r0, r1, k, n, j0, j1 int, load bool) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		for j := j0; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			if load {
				s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
			}
			for p, av := range arow {
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
			}
			orow[j] = s0
			orow[j+1] = s1
			orow[j+2] = s2
			orow[j+3] = s3
		}
	}
}

// dotUnrolled is the tail-column dot product: four partial accumulators
// over a 4-wide k unroll, the k mod 4 tail added into the first, summed
// pairwise at the end.
func dotUnrolled(x, y []float32) float32 {
	k := min(len(x), len(y))
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= k; p += 4 {
		xs := x[p : p+4 : p+4]
		ys := y[p : p+4 : p+4]
		s0 += float32(xs[0] * ys[0])
		s1 += float32(xs[1] * ys[1])
		s2 += float32(xs[2] * ys[2])
		s3 += float32(xs[3] * ys[3])
	}
	for ; p < k; p++ {
		s0 += float32(x[p] * y[p])
	}
	return (s0 + s1) + (s2 + s3)
}

// Panel is the packing buffer of the AVX2 tiles: one (tileKC,16) slice of
// Wᵀ at a time. DenseInto takes its panels from panelPool, so model bytes do
// not grow with a resident copy of every weight matrix. DenseAddInto packs
// into a panel its caller owns: the blocked multiply makes one call per k
// step and keeps one panel per worker, so that call allocates nothing and
// shares no buffer, whatever a garbage collection does to the pool.
type Panel [tileKC * tileCols]float32

var panelPool = sync.Pool{New: func() any { return new(Panel) }}

// transBTiles computes columns [0, n&^15) of rows [r0,r1) on the AVX2 tiles,
// bias and ReLU included. For each k block of at most tileKC and each
// 16-column panel it packs that (kc,16) slice of Wᵀ, then runs it down the
// rows; a later k block resumes from the stored partial sums, which is
// exact, so blocking does not change a bit. With load set the first k
// block resumes from out too. A nil panel is taken from panelPool.
func transBTiles(out, a, w, bias []float32, relu, load bool, panel *Panel, r0, r1, k, n int) {
	blocks, rest := (r1-r0)/tileRows, (r1-r0)%tileRows
	if panel == nil {
		panel = panelPool.Get().(*Panel)
		defer panelPool.Put(panel)
	}
	for kb := 0; kb < k; kb += tileKC {
		kc := min(tileKC, k-kb)
		flags := 0
		if kb > 0 || load {
			flags |= tileLoad
		}
		if kb+kc == k {
			if bias != nil {
				flags |= tileBias
			}
			if relu {
				flags |= tileReLU
			}
		}
		for j := 0; j+tileCols <= n; j += tileCols {
			for c := 0; c < tileCols; c++ {
				src := w[(j+c)*k+kb : (j+c)*k+kb+kc]
				for p, v := range src {
					panel[p*tileCols+c] = v
				}
			}
			var bp *float32
			if bias != nil {
				bp = &bias[j]
			}
			if blocks > 0 {
				transBTile4(&a[r0*k+kb], 4*k, &panel[0], kc, &out[r0*n+j], 4*n, blocks, bp, flags)
			}
			if rest > 0 {
				r := r1 - rest
				transBTile1(&a[r*k+kb], 4*k, &panel[0], kc, &out[r*n+j], 4*n, rest, bp, flags)
			}
		}
	}
}

// epilogue adds bias to and applies ReLU on columns [j0,n) of rows [r0,r1):
// the same bias add and sign mask as AddBiasRowsInto and ReLUInto.
func epilogue(out, bias []float32, relu bool, r0, r1, n, j0 int) {
	if (bias == nil && !relu) || j0 == n {
		return
	}
	for i := r0; i < r1; i++ {
		row := out[i*n+j0 : (i+1)*n]
		if bias != nil {
			for j, b := range bias[j0:] {
				row[j] += b
			}
		}
		if relu {
			reluSlice(row)
		}
	}
}

// Q8Pairs is the resident weight format of DenseQ8: n output channels of k
// int8 weights with one scale per channel, stored as int16 pairs. Word q of
// channel j holds w[j,2q] in its low half and w[j,2q+1] in its high half
// (0 past an odd k), and the words sit in 16-channel panels of (⌈k/2⌉,16),
// the last panel n mod 16 wide — the order the AVX2 tile reads them in.
// That is 2 bytes per weight.
type Q8Pairs struct {
	k, n   int
	words  []int32
	scales []float32
}

// NewQ8Pairs packs n rows of k int8 weights — the (out,in) layout — and
// their per-channel scales.
func NewQ8Pairs(w8 []int8, scales []float32, n, k int) *Q8Pairs {
	if len(w8) < n*k || len(scales) < n {
		panic(fmt.Sprintf("tensor: NewQ8Pairs operands too short for (%d,%d)", n, k))
	}
	k2 := (k + 1) / 2
	p := &Q8Pairs{k: k, n: n, words: make([]int32, k2*n), scales: scales[:n:n]}
	for j := 0; j < n; j++ {
		base, width := p.panel(j)
		row := w8[j*k : (j+1)*k]
		for q := 0; q < k2; q++ {
			var hi int32
			if 2*q+1 < k {
				hi = int32(row[2*q+1])
			}
			p.words[base+q*width] = int32(row[2*q])&0xffff | hi<<16
		}
	}
	return p
}

// panel returns the index of channel j's first word and its panel's width.
func (p *Q8Pairs) panel(j int) (first, width int) {
	g := j &^ (tileCols - 1)
	return g*((p.k+1)/2) + j - g, min(tileCols, p.n-g)
}

// Bytes returns the resident size of the weights and their scales.
func (p *Q8Pairs) Bytes() int64 { return int64(len(p.words))*4 + int64(len(p.scales))*4 }

// q8Scratch is DenseQ8's per-call activation workspace, pooled so the
// serving path does not allocate it per micro-batch. Every row a call uses
// is overwritten first, so dirty reuse is safe.
type q8Scratch struct {
	words  []int32
	scales []float32
}

var q8ScratchPool = sync.Pool{New: func() any { return new(q8Scratch) }}

// DenseQ8 is Dense over int8 weights: each row of x is quantized to int8
// with its own scale, maxAbs(row)/127 (1 for an all-zero row), multiplied
// exactly in integers, and dequantized as float32(Σ a·w)·aScale·wScale,
// then biased and ReLU'd. The result has the bits of quantizing the rows,
// running a scalar int8 GEMM, then AddBiasRowsInto and ReLUInto — the
// oracle its tests check it against. Per-row scales make every output row
// a function of its input row alone, so batch composition cannot change
// any row's bits.
func DenseQ8(x *Tensor, w *Q8Pairs, bias *Tensor, relu bool) *Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("tensor: DenseQ8 input shape %v, want (m,%d)", x.shape, w.k))
	}
	out := New(x.shape[0], w.n)
	DenseQ8Into(out, x, w, bias, relu)
	return out
}

// DenseQ8Into is DenseQ8 writing into out, an (m,n) tensor that must not
// overlap x. Like DenseInto it assigns every element of out and reads none.
func DenseQ8Into(out, x *Tensor, w *Q8Pairs, bias *Tensor, relu bool) {
	if x.Rank() != 2 || x.shape[1] != w.k {
		panic(fmt.Sprintf("tensor: DenseQ8 input shape %v, want (m,%d)", x.shape, w.k))
	}
	m, k2 := x.shape[0], (w.k+1)/2
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != w.n {
		panic(fmt.Sprintf("tensor: DenseQ8 output shape %v, want (%d,%d)", out.shape, m, w.n))
	}
	var b []float32
	if bias != nil {
		if bias.Len() != w.n {
			panic(fmt.Sprintf("tensor: bias length %d does not match row width %d", bias.Len(), w.n))
		}
		b = bias.data
	}
	s := q8ScratchPool.Get().(*q8Scratch)
	if cap(s.words) < m*k2 {
		s.words = make([]int32, m*k2)
	}
	if cap(s.scales) < m {
		s.scales = make([]float32, m)
	}
	a, as := s.words[:m*k2], s.scales[:m]
	kernelQ8Calls.Add(1)
	vec := haveAVX2 && m >= tileRows && w.n >= tileCols && w.k >= 1 && w.k <= q8WideK
	if vec {
		kernelVectorCalls.Add(1)
	}
	workers, release := fanOut(m, m*w.k*w.n)
	if workers == 1 {
		q8Rows(out.data, a, as, x.data, w, b, relu, vec, 0, m)
	} else {
		bandLoop(m, workers, func(r0, r1 int) { q8Rows(out.data, a, as, x.data, w, b, relu, vec, r0, r1) })
		release()
	}
	q8ScratchPool.Put(s)
}

// q8Rows quantizes rows [r0,r1) of x into pair words and computes those
// rows of DenseQ8.
func q8Rows(out []float32, a []int32, as []float32, x []float32, w *Q8Pairs, bias []float32, relu, vec bool, r0, r1 int) {
	k, n, k2 := w.k, w.n, (w.k+1)/2
	for i := r0; i < r1; i++ {
		row := x[i*k : (i+1)*k]
		scale := maxAbsF32(row) / 127
		if scale == 0 {
			scale = 1
		}
		as[i] = scale
		quantPairs(a[i*k2:(i+1)*k2], row, 1/scale)
	}
	j0 := 0
	if vec {
		j0 = n &^ (tileCols - 1)
		flags := 0
		if bias != nil {
			flags |= tileBias
		}
		if relu {
			flags |= tileReLU
		}
		blocks, rest := (r1-r0)/tileRows, (r1-r0)%tileRows
		for j := 0; j < j0; j += tileCols {
			var bp *float32
			if bias != nil {
				bp = &bias[j]
			}
			if blocks > 0 {
				q8Tile4(&a[r0*k2], 4*k2, &w.words[j*k2], k2, &out[r0*n+j], 4*n, blocks, &as[r0], &w.scales[j], bp, flags)
			}
			if rest > 0 {
				r := r1 - rest
				q8Tile1(&a[r*k2], 4*k2, &w.words[j*k2], k2, &out[r*n+j], 4*n, rest, &as[r], &w.scales[j], bp, flags)
			}
		}
	}
	for j := j0; j < n; j++ {
		first, width := w.panel(j)
		bs := w.scales[j]
		for i := r0; i < r1; i++ {
			var sum int64 // exact for any k, so no separate wide path
			for q, av := range a[i*k2 : (i+1)*k2] {
				wv := w.words[first+q*width]
				sum += int64(int16(av))*int64(int16(wv)) + int64(av>>16)*int64(wv>>16)
			}
			out[i*n+j] = float32(sum) * as[i] * bs
		}
	}
	epilogue(out, bias, relu, r0, r1, n, j0)
}

// q8WideK is the largest inner dimension an int32 accumulator of int8
// products handles without overflow risk: k·127² must stay below 2³¹.
const q8WideK = 1 << 17

// quantQ8 rounds v·inv half away from zero and clamps to ±127 — the
// arithmetic of math.Round, done by an add-and-truncate that the hot loops
// can afford. The product is computed in float32 (matching the historical
// behaviour) and widened before the ±0.5 add, which is then exact: a
// widened float32 of magnitude ≥ 2⁻²⁹ has its lowest bit well above
// float64's rounding point, and anything smaller rounds to 0 either way.
func quantQ8(v, inv float32) int32 {
	f := float64(v * inv)
	switch {
	case f >= 126.5: // rounds to ≥ 127: clamp before int conversion
		return 127
	case f <= -126.5:
		return -127
	case f >= 0:
		return int32(f + 0.5)
	case f < 0:
		return int32(f - 0.5)
	}
	return 0 // NaN input: comparisons all false
}

// maxAbsGo is the row maximum a row's int8 scale is taken from: the
// largest |v|, NaNs skipped.
func maxAbsGo(x []float32) float32 {
	var maxAbs float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs
}

// quantPairsGo is the portable quantPairs.
func quantPairsGo(dst []int32, x []float32, inv float32) {
	for q := 0; 2*q < len(x); q++ {
		var hi int32
		if 2*q+1 < len(x) {
			hi = quantQ8(x[2*q+1], inv)
		}
		dst[q] = quantQ8(x[2*q], inv)&0xffff | hi<<16
	}
}

// reluSlice is ReLUInto's branchless sign mask: a word with the sign bit
// set (−0 and negative NaNs included) becomes +0.
func reluSlice(x []float32) {
	for i, v := range x {
		b := math.Float32bits(v)
		x[i] = math.Float32frombits(b &^ uint32(int32(b)>>31))
	}
}
