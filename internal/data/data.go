// Package data generates the seeded synthetic datasets that stand in for
// the paper's evaluation data (credit-card fraud features, the Bosch
// production-line dataset, MNIST, land-cover imagery). Generators reproduce
// the schemas and shapes the experiments need — dimensionality, class
// structure, join-key distributions — because the latency experiments
// depend only on those, and the caching experiment needs a learnable class
// structure, which the Gaussian-cluster construction provides.
package data

import (
	"fmt"
	"math/rand"

	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// Classified is a labelled feature set.
type Classified struct {
	X      *tensor.Tensor // (n, features) or (n, h, w, c)
	Labels []int
}

// Clusters draws n samples of the given width from `classes` Gaussian
// clusters with the given intra-cluster spread. Cluster centres are
// deterministic in the seed.
func Clusters(seed int64, n, width, classes int, spread float64) *Classified {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, width)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 2
		}
	}
	x := tensor.New(n, width)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		labels[i] = c
		row := x.Row(i)
		for j := range row {
			row[j] = float32(centers[c][j] + rng.NormFloat64()*spread)
		}
	}
	return &Classified{X: x, Labels: labels}
}

// Fraud generates transaction feature rows shaped like the paper's fraud
// workload: 28 features, 2 classes (legitimate/fraudulent), with the
// fraudulent class rare-ish and offset in feature space.
func Fraud(seed int64, n int) *Classified {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 28)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		fraud := rng.Float64() < 0.2
		row := x.Row(i)
		for j := range row {
			v := rng.NormFloat64()
			if fraud {
				v += 2.5
			}
			row[j] = float32(v)
		}
		if fraud {
			labels[i] = 1
		}
	}
	return &Classified{X: x, Labels: labels}
}

// Dense returns an (n, width) tensor of standard normal features — the
// generic feature payload for latency workloads (Encoder-FC, Amazon-14k).
func Dense(seed int64, n, width int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, width)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	return x
}

// Images returns an (n, side, side, channels) NHWC tensor of normal pixel
// values — the LandCover / DeepBench input payload.
func Images(seed int64, n, side, channels int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, side, side, channels)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	return x
}

// MNISTLikeNoisy draws side×side single-channel digit-like images: 10
// classes built as 5 sibling pairs — the odd class of each pair is the even
// class's prototype with a small fraction of pixels redrawn (like 3 vs 8 or
// 1 vs 7 in real MNIST). Samples are noisy copies of their prototype.
//
// The sibling structure is what makes the Sec. 7.2.2 trade-off real: a
// trained model keys on the few discriminative pixels and classifies with
// high accuracy, while whole-vector nearest-neighbour reuse (the result
// cache) cannot tell siblings apart once noise dominates, so approximate
// caching trades accuracy for latency.
func MNISTLikeNoisy(seed int64, n, side int, noise float64) *Classified {
	rng := rand.New(rand.NewSource(seed))
	const classes = 10
	protos := make([][]float32, classes)
	drawPixel := func() float32 {
		// Sparse bright strokes on a dark background.
		if rng.Float64() < 0.25 {
			return 0.7 + 0.3*rng.Float32()
		}
		return 0
	}
	for c := 0; c < classes; c += 2 {
		// Each pair gets its own flip fraction (0.09 … 0.25), so as noise
		// grows the pairs become nearest-neighbour-confusable one at a
		// time — a gradual accuracy/latency trade-off rather than a cliff.
		siblingFlip := 0.09 + 0.04*float64(c/2)
		p := make([]float32, side*side)
		for j := range p {
			p[j] = drawPixel()
		}
		protos[c] = p
		sib := append([]float32(nil), p...)
		for j := range sib {
			if rng.Float64() < siblingFlip {
				sib[j] = drawPixel()
			}
		}
		protos[c+1] = sib
	}
	x := tensor.New(n, side, side, 1)
	labels := make([]int, n)
	pix := side * side
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		labels[i] = c
		dst := x.Data()[i*pix : (i+1)*pix]
		for j, v := range protos[c] {
			dst[j] = v + float32(rng.NormFloat64()*noise)
		}
	}
	return &Classified{X: x, Labels: labels}
}

// FlatImages reshapes a Classified image set to (n, side·side) for FFNN
// input, sharing storage.
func (c *Classified) FlatImages() *Classified {
	n := c.X.Dim(0)
	return &Classified{X: c.X.Reshape(n, c.X.Len()/n), Labels: c.Labels}
}

// BoschTables generates the Sec. 7.2.1 workload: a wide production-line
// feature set vertically partitioned into two tables D1 and D2 of
// featuresPerSide columns each, joined by similarity of one numeric column
// from each side. Join keys are drawn from a discretised grid so a band
// join with eps of about half the grid step produces multiplicity: each
// left row matches `multiplicity` right rows on average.
func BoschTables(seed int64, rowsPerSide, featuresPerSide int, multiplicity int) (d1, d2 []table.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	if multiplicity < 1 {
		multiplicity = 1
	}
	// Grid of rowsPerSide/multiplicity distinct key values on each side.
	distinct := rowsPerSide / multiplicity
	if distinct < 1 {
		distinct = 1
	}
	gen := func() []table.Tuple {
		rows := make([]table.Tuple, rowsPerSide)
		for i := range rows {
			key := float64(rng.Intn(distinct))
			vec := make([]float32, featuresPerSide)
			for j := range vec {
				vec[j] = float32(rng.NormFloat64())
			}
			rows[i] = table.Tuple{table.FloatVal(key), table.VecVal(vec)}
		}
		return rows
	}
	return gen(), gen()
}

// BoschSchema returns the schema of a BoschTables side with the given
// column names.
func BoschSchema(simCol, vecCol string) *table.Schema {
	return table.MustSchema(
		table.Column{Name: simCol, Type: table.Float64},
		table.Column{Name: vecCol, Type: table.FloatVec},
	)
}

// FeatureRows converts a Classified set into (id, features, label) tuples.
func (c *Classified) FeatureRows() ([]table.Tuple, *table.Schema, error) {
	if c.X.Rank() != 2 {
		return nil, nil, fmt.Errorf("data: FeatureRows needs 2-D features, got %v", c.X.Shape())
	}
	schema := table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "features", Type: table.FloatVec},
		table.Column{Name: "label", Type: table.Int64},
	)
	n := c.X.Dim(0)
	rows := make([]table.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = table.Tuple{
			table.IntVal(int64(i)),
			table.VecVal(append([]float32(nil), c.X.Row(i)...)),
			table.IntVal(int64(c.Labels[i])),
		}
	}
	return rows, schema, nil
}
