package main

import (
	"sort"
	"time"
)

// FROZEN: never edit this file. The calibration kernel must execute the same
// instructions on every commit, so that a change in calib_ms can only mean
// the machine changed, not the program. It deliberately does not call
// internal/tensor.

const (
	calibM, calibK, calibN = 256, 28, 256
	calibReps              = 96 // a full run; -smoke runs fewer
)

var calibSink float32

// calibGEMM is a scalar f32 C = A·B with A 256×28 and B 28×256.
func calibGEMM(a, b, c []float32) {
	for i := 0; i < calibM; i++ {
		ci := c[i*calibN : (i+1)*calibN]
		for j := range ci {
			ci[j] = 0
		}
		for p := 0; p < calibK; p++ {
			av := a[i*calibK+p]
			bp := b[p*calibN : (p+1)*calibN]
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
}

// calibrate returns the median wall time of one calibGEMM over reps (an even
// number of) runs, in milliseconds.
func calibrate(reps int) float64 {
	a := make([]float32, calibM*calibK)
	b := make([]float32, calibK*calibN)
	c := make([]float32, calibM*calibN)
	for i := range a {
		a[i] = float32(i%13) * 0.25
	}
	for i := range b {
		b[i] = float32(i%7) * 0.5
	}
	times := make([]float64, reps)
	for r := range times {
		t0 := time.Now()
		calibGEMM(a, b, c)
		times[r] = float64(time.Since(t0)) / float64(time.Millisecond)
		calibSink += c[r%len(c)]
	}
	sort.Float64s(times)
	return (times[reps/2-1] + times[reps/2]) / 2
}
