package tensor

// amd64 vector kernels (dense_amd64.s). SSE2 is part of the amd64 baseline,
// so the SSE kernels (the tail-column dot and the activation quantizer) run
// on every amd64 CPU; the AVX2 tiles run only where CPUID and XGETBV say the
// CPU and the OS both support 256-bit registers. The choice is made once,
// here, and depends on nothing but the CPU.

// haveSSE reports that the SSE kernels exist on this architecture.
const haveSSE = true

// haveAVX2 reports whether the AVX2 tiles may run on this CPU.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// The OS must save XMM (bit 1) and YMM (bit 2) state across switches.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// transBTile4 runs blocks 4-row × 16-column tiles of a·Wᵀ down the rows:
// a is the first row's first element (row stride lda bytes), panel a
// packed (kc,16) block of Wᵀ, out the first output element (row stride
// ldo bytes). flags is a tile* mask; bias points at the tile's 16 bias
// values when tileBias is set.
//
//go:noescape
func transBTile4(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, blocks int, bias *float32, flags int)

// transBTile1 is transBTile4 one row at a time, for rows left over after
// the 4-row blocks.
//
//go:noescape
func transBTile1(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, rows int, bias *float32, flags int)

// dotRows stores dotUnrolled(row r of a, y) at out+r·ldo for rows rows,
// four rows at a time, in dotUnrolled's exact order.
//
//go:noescape
func dotRows(a *float32, lda int, y *float32, k int, out *float32, ldo int, rows int)

// q8Tile4 runs blocks 4-row × 16-column tiles of the int16-pair GEMM: a
// holds activation pair words (row stride lda bytes), panel a (k2,16)
// block of weight pair words; each int32 sum is dequantized as
// float32(sum)·as[r]·bs[c], then biased and ReLU'd per flags.
//
//go:noescape
func q8Tile4(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, blocks int, as *float32, bs *float32, bias *float32, flags int)

// q8Tile1 is q8Tile4 one row at a time.
//
//go:noescape
func q8Tile1(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, rows int, as *float32, bs *float32, bias *float32, flags int)

//go:noescape
func maxAbsSSE(x *float32, n int) float32

//go:noescape
func quantPairsSSE(dst *int32, src *float32, groups int, inv float32)

// maxAbsF32 returns maxAbsGo(x): the largest |v|, NaNs skipped, +0 for
// an empty or all-zero row.
func maxAbsF32(x []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	return maxAbsSSE(&x[0], len(x))
}

// quantPairs writes x quantized with quantQ8(·, inv) as int16 pair words:
// dst[q] holds elements 2q (low half) and 2q+1 (high half), the missing
// partner of an odd tail being 0.
func quantPairs(dst []int32, x []float32, inv float32) {
	groups := len(x) / 4
	if groups > 0 {
		_ = dst[2*groups-1]
		quantPairsSSE(&dst[0], &x[0], groups, inv)
	}
	quantPairsGo(dst[2*groups:], x[4*groups:], inv)
}
