package data

import (
	"math"
	"testing"

	"tensorbase/internal/exec"
)

func TestClustersDeterministicInSeed(t *testing.T) {
	a := Clusters(42, 100, 8, 3, 0.5)
	b := Clusters(42, 100, 8, 3, 0.5)
	if !a.X.Equal(b.X) {
		t.Fatal("same seed must give same features")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
	c := Clusters(43, 100, 8, 3, 0.5)
	if a.X.Equal(c.X) {
		t.Fatal("different seed must differ")
	}
}

func TestClustersSeparable(t *testing.T) {
	d := Clusters(1, 500, 8, 3, 0.2)
	// Within-class distance must be far below between-class distance.
	var within, between float64
	var nw, nb int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			var dist float64
			for k := 0; k < 8; k++ {
				diff := float64(d.X.At(i, k) - d.X.At(j, k))
				dist += diff * diff
			}
			if d.Labels[i] == d.Labels[j] {
				within += dist
				nw++
			} else {
				between += dist
				nb++
			}
		}
	}
	if nw == 0 || nb == 0 {
		t.Fatal("degenerate class assignment")
	}
	if within/float64(nw) >= between/float64(nb) {
		t.Fatal("clusters are not separable")
	}
}

func TestFraudShapes(t *testing.T) {
	d := Fraud(2, 300)
	if d.X.Dim(0) != 300 || d.X.Dim(1) != 28 {
		t.Fatalf("shape %v", d.X.Shape())
	}
	pos := 0
	for _, l := range d.Labels {
		if l != 0 && l != 1 {
			t.Fatalf("label %d", l)
		}
		pos += l
	}
	if pos == 0 || pos == 300 {
		t.Fatalf("degenerate fraud rate: %d/300", pos)
	}
}

func TestMNISTLikeLearnableStructure(t *testing.T) {
	d := MNISTLikeNoisy(3, 400, 12, 0.18)
	if d.X.Dim(1) != 12 || d.X.Dim(3) != 1 {
		t.Fatalf("shape %v", d.X.Shape())
	}
	// Prototype structure: two samples of the same class must on
	// average be closer than samples of different classes.
	flat := d.FlatImages()
	var within, between float64
	var nw, nb int
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			var dist float64
			for k := 0; k < flat.X.Dim(1); k++ {
				diff := float64(flat.X.At(i, k) - flat.X.At(j, k))
				dist += diff * diff
			}
			if d.Labels[i] == d.Labels[j] {
				within += dist
				nw++
			} else {
				between += dist
				nb++
			}
		}
	}
	if nw == 0 || nb == 0 {
		t.Skip("sample too small for both pair kinds")
	}
	if within/float64(nw) >= between/float64(nb) {
		t.Fatal("MNIST-like classes are not separable")
	}
}

func TestFlatImagesSharesStorage(t *testing.T) {
	d := MNISTLikeNoisy(4, 10, 8, 0.18)
	f := d.FlatImages()
	if f.X.Dim(0) != 10 || f.X.Dim(1) != 64 {
		t.Fatalf("flat shape %v", f.X.Shape())
	}
	f.X.Set(42, 0, 0)
	if d.X.At(0, 0, 0, 0) != 42 {
		t.Fatal("FlatImages must share storage")
	}
}

func TestDenseAndImages(t *testing.T) {
	x := Dense(5, 10, 7)
	if x.Dim(0) != 10 || x.Dim(1) != 7 {
		t.Fatalf("Dense shape %v", x.Shape())
	}
	img := Images(6, 2, 5, 3)
	if img.Dim(0) != 2 || img.Dim(1) != 5 || img.Dim(3) != 3 {
		t.Fatalf("Images shape %v", img.Shape())
	}
	var nonzero int
	for _, v := range x.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("Dense produced all zeros")
	}
}

func TestBoschTablesJoinMultiplicity(t *testing.T) {
	d1, d2 := BoschTables(7, 400, 16, 4)
	if len(d1) != 400 || len(d2) != 400 {
		t.Fatalf("sizes %d/%d", len(d1), len(d2))
	}
	if len(d1[0][1].Vec) != 16 {
		t.Fatalf("feature width %d", len(d1[0][1].Vec))
	}
	// Band join with eps 0.25 (below the unit grid step) matches equal
	// keys only; expected multiplicity ≈ 4 per left row.
	j, err := exec.NewBandJoin(
		exec.NewMemScan(BoschSchema("s1", "v1"), d1),
		exec.NewMemScan(BoschSchema("s2", "v2"), d2),
		"s1", "s2", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	mult := float64(len(rows)) / 400
	if mult < 1.5 || mult > 12 {
		t.Fatalf("join multiplicity %.1f outside the expected band", mult)
	}
}

func TestFeatureRows(t *testing.T) {
	d := Clusters(8, 20, 6, 2, 0.3)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 || schema.Len() != 3 {
		t.Fatalf("rows=%d cols=%d", len(rows), schema.Len())
	}
	for i, r := range rows {
		if r[0].Int != int64(i) {
			t.Fatal("ids must be sequential")
		}
		if len(r[1].Vec) != 6 {
			t.Fatal("wrong feature width")
		}
		if r[2].Int != int64(d.Labels[i]) {
			t.Fatal("label mismatch")
		}
	}
	img := MNISTLikeNoisy(9, 5, 8, 0.18)
	if _, _, err := img.FeatureRows(); err == nil {
		t.Fatal("4-D features must be rejected")
	}
}

func TestClustersStatistics(t *testing.T) {
	d := Clusters(10, 2000, 4, 1, 1.0)
	// Single cluster with unit spread: variance around the centre ≈ 1.
	var mean [4]float64
	for i := 0; i < 2000; i++ {
		for k := 0; k < 4; k++ {
			mean[k] += float64(d.X.At(i, k))
		}
	}
	for k := range mean {
		mean[k] /= 2000
	}
	var variance float64
	for i := 0; i < 2000; i++ {
		for k := 0; k < 4; k++ {
			dv := float64(d.X.At(i, k)) - mean[k]
			variance += dv * dv
		}
	}
	variance /= 2000 * 4
	if math.Abs(variance-1) > 0.15 {
		t.Fatalf("variance %.3f, want ≈ 1", variance)
	}
}
