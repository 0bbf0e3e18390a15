//go:build !amd64

package tensor

// Other architectures have no vector kernels: Dense and DenseQ8 always take
// the Go loops, and these stubs are never reached.

const haveSSE = false

var haveAVX2 = false

func transBTile4(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, blocks int, bias *float32, flags int) {
	panic("tensor: no vector kernels on this architecture")
}

func transBTile1(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, rows int, bias *float32, flags int) {
	panic("tensor: no vector kernels on this architecture")
}

func dotRows(a *float32, lda int, y *float32, k int, out *float32, ldo int, rows int) {
	panic("tensor: no vector kernels on this architecture")
}

func q8Tile4(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, blocks int, as *float32, bs *float32, bias *float32, flags int) {
	panic("tensor: no vector kernels on this architecture")
}

func q8Tile1(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, rows int, as *float32, bs *float32, bias *float32, flags int) {
	panic("tensor: no vector kernels on this architecture")
}

func maxAbsF32(x []float32) float32 { return maxAbsGo(x) }

func quantPairs(dst []int32, x []float32, inv float32) { quantPairsGo(dst, x, inv) }
