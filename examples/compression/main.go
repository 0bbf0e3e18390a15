// Storage co-optimization (Sec. 4): the catalog keeps compressed versions
// of a model with measured accuracy and picks the smallest version meeting
// an accuracy SLA; tensor-block deduplication shares identical and
// near-identical weight blocks across stored models.
package main

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

func main() {
	// Train a model, then derive its int8-resident twin.
	train := data.Clusters(9, 1200, 24, 4, 0.4)
	rng := rand.New(rand.NewSource(10))
	model := nn.MustModel("classifier", []int{1, 24},
		nn.NewLinear(rng, 24, 64), nn.ReLU{},
		nn.NewLinear(rng, 64, 4), nn.Softmax{},
	)
	if _, err := nn.Train(model, train.X, train.Labels, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.1, Seed: 11,
	}); err != nil {
		log.Fatal(err)
	}
	fullAcc := accuracy(model, train)
	quant, err := nn.QuantizeResident(model)
	if err != nil {
		log.Fatal(err)
	}
	quantAcc := accuracy(quant, train)
	fmt.Printf("original:        accuracy %.2f%%, %6d resident weight bytes\n", 100*fullAcc, model.ParamBytes())
	fmt.Printf("int8 twin:       accuracy %.2f%%, %6d resident weight bytes (%.1fx smaller)\n",
		100*quantAcc, quant.ParamBytes(), float64(model.ParamBytes())/float64(quant.ParamBytes()))

	// Register both in the catalog; let the SLA pick.
	cat := catalog.New()
	if err := cat.RegisterModel(model, fullAcc, "train"); err != nil {
		log.Fatal(err)
	}
	if err := cat.AddVersion(model.Name(), quant, "quantized-8bit", quantAcc); err != nil {
		log.Fatal(err)
	}
	for _, sla := range []float64{quantAcc - 0.001, (quantAcc + fullAcc) / 2} {
		v, err := cat.SelectVersion(model.Name(), sla)
		if err != nil {
			// An SLA no version meets falls back to the caller's policy.
			fmt.Printf("SLA accuracy >= %.2f%% → %v\n", 100*sla, err)
			continue
		}
		fmt.Printf("SLA accuracy >= %.2f%% → serve %q (%d bytes)\n", 100*sla, v.Tag, v.Bytes)
	}

	// Deduplicate weight blocks across "two deployments" of the model.
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
	pool := storage.NewBufferPool(disk, 128)
	ds, err := blocked.NewDedupStore(pool, 16, 0.002)
	if err != nil {
		log.Fatal(err)
	}
	// Two deployments of the same model (e.g. per-tenant copies) share
	// every block exactly.
	w := model.Layers[0].(*nn.Linear).W
	if _, err := ds.Store(w); err != nil {
		log.Fatal(err)
	}
	if _, err := ds.Store(w.Clone()); err != nil {
		log.Fatal(err)
	}
	stored, shared, saved := ds.Stats()
	fmt.Printf("dedup store: %d blocks stored, %d shared, %d bytes saved\n", stored, shared, saved)
}

func accuracy(m *nn.Model, d *data.Classified) float64 {
	acc, err := nn.Accuracy(m, d.X.Clone(), d.Labels)
	if err != nil {
		log.Fatal(err)
	}
	return acc
}
