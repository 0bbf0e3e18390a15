// Package quickstart_test opens a database, creates a table, loads a model,
// and runs an inference query with PREDICT nested in SQL.
package quickstart_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
)

func Example() {
	dir, err := os.MkdirTemp("", "tensorbase-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open an embedded database.
	db, err := engine.Open(filepath.Join(dir, "quickstart.db"), engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Plain SQL for the relational side.
	for _, sql := range []string{
		"CREATE TABLE transactions (id INT, amount DOUBLE, features VECTOR)",
		"INSERT INTO transactions VALUES " +
			"(1, 12.50, [0.1, 0.2, 0.3, 0.4]), " +
			"(2, 980.00, [2.5, 2.6, 2.7, 2.8]), " +
			"(3, 47.10, [0.2, 0.1, 0.4, 0.3])",
	} {
		if _, err := db.Exec(sql); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}

	// Build and load a small scoring model (4 features → 2 classes).
	rng := rand.New(rand.NewSource(1))
	model := nn.MustModel("scorer", []int{1, 4},
		nn.NewLinear(rng, 4, 8), nn.ReLU{},
		nn.NewLinear(rng, 8, 2), nn.Softmax{},
	)
	if err := db.LoadModel(model, 0); err != nil {
		log.Fatal(err)
	}

	// Nest inference in SQL: every qualifying row gets a prediction.
	res, err := db.Exec("SELECT id, amount, PREDICT(scorer, features) FROM transactions WHERE amount > 20")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("id | amount | P(class)")
	for _, row := range res.Rows {
		p := row[2].Vec
		fmt.Printf("%2d | %6.2f | [%.4f %.4f]\n", row[0].Int, row[1].Float, p[0], p[1])
	}

	// The adaptive optimizer explains how it would execute each batch.
	plan, err := db.ExplainPredict("scorer", 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)

	// Output:
	// id | amount | P(class)
	//  2 | 980.00 | [0.4618 0.5382]
	//  3 |  47.10 | [0.4826 0.5174]
	// InferencePlan model=scorer batch=1000 threshold=0B
	//   fused: single model UDF (4 ops)
	//   [0] linear   est=47.0KiB    → udf-centric
	//   [1] relu     est=31.2KiB    → udf-centric
	//   [2] linear   est=39.1KiB    → udf-centric
	//   [3] softmax  est=7.8KiB     → udf-centric
}
