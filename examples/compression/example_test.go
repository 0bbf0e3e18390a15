// Package compression_test shows the storage co-optimisation of Sec. 4:
// the catalog keeps compressed versions of a model with their measured
// accuracy and serves the smallest version that meets an accuracy SLA, and
// tensor-block deduplication shares identical weight blocks across stored
// models.
package compression_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"tensorbase/internal/blocked"
	"tensorbase/internal/catalog"
	"tensorbase/internal/data"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
)

func Example() {
	// Overlapping clusters, so the model errs on some held-out rows and
	// its int8 twin errs on a few more.
	all := data.Clusters(10, 3200, 24, 4, 3.0)
	trainX, trainY := all.X.SliceRows(0, 1200), all.Labels[:1200]
	testX, testY := all.X.SliceRows(1200, 3200), all.Labels[1200:]
	rng := rand.New(rand.NewSource(10))
	model := nn.MustModel("classifier", []int{1, 24},
		nn.NewLinear(rng, 24, 64), nn.ReLU{},
		nn.NewLinear(rng, 64, 4), nn.Softmax{},
	)
	if _, err := nn.Train(model, trainX, trainY, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.1, Seed: 11,
	}); err != nil {
		log.Fatal(err)
	}
	quant, err := nn.QuantizeResident(model)
	if err != nil {
		log.Fatal(err)
	}
	accuracy := func(m *nn.Model) float64 {
		acc, err := nn.Accuracy(m, testX.Clone(), testY)
		if err != nil {
			log.Fatal(err)
		}
		return acc
	}
	fullAcc, quantAcc := accuracy(model), accuracy(quant)
	fmt.Printf("original:  accuracy %.2f%%, %d resident weight bytes\n", 100*fullAcc, model.ParamBytes())
	fmt.Printf("int8 twin: accuracy %.2f%%, %d resident weight bytes\n", 100*quantAcc, quant.ParamBytes())

	// Register both in the catalog and let the SLA pick: a floor the twin
	// meets serves the smaller twin, a floor only the original meets
	// serves the original, and a floor neither meets is refused.
	cat := catalog.New()
	if err := cat.RegisterModel(model, fullAcc, "train"); err != nil {
		log.Fatal(err)
	}
	if err := cat.AddVersion(model.Name(), quant, "quantized-8bit", quantAcc); err != nil {
		log.Fatal(err)
	}
	for _, sla := range []float64{quantAcc, fullAcc, 0.95} {
		v, err := cat.SelectVersion(model.Name(), sla)
		if err != nil {
			fmt.Printf("SLA accuracy >= %.2f%%: %v\n", 100*sla, err)
			continue
		}
		fmt.Printf("SLA accuracy >= %.2f%%: serve %q\n", 100*sla, v.Tag)
	}

	// Two deployments of the same model (e.g. per-tenant copies) share
	// every weight block.
	dir, err := os.MkdirTemp("", "tensorbase-dedup-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	disk, err := storage.OpenDisk(filepath.Join(dir, "dedup.db"))
	if err != nil {
		log.Fatal(err)
	}
	defer disk.Close()
	ds, err := blocked.NewDedupStore(storage.NewBufferPool(disk, 128), 16, 0.002)
	if err != nil {
		log.Fatal(err)
	}
	w := model.Layers[0].(*nn.Linear).W
	if _, err := ds.Store(w); err != nil {
		log.Fatal(err)
	}
	if _, err := ds.Store(w.Clone()); err != nil {
		log.Fatal(err)
	}
	stored, shared, saved := ds.Stats()
	fmt.Printf("dedup store: %d blocks stored, %d shared, %d bytes saved\n", stored, shared, saved)

	// Output:
	// original:  accuracy 90.45%, 7440 resident weight bytes
	// int8 twin: accuracy 90.35%, 4640 resident weight bytes
	// SLA accuracy >= 90.35%: serve "quantized-8bit"
	// SLA accuracy >= 90.45%: serve "original"
	// SLA accuracy >= 95.00%: catalog: no version of "classifier" meets accuracy 0.950
	// dedup store: 16 blocks stored, 8 shared, 6144 bytes saved
}
