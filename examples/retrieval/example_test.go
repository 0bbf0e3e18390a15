// Package retrieval_test shows the database in the retrieving role the
// paper gives it (Sec. 6.3): documents are stored with embedding vectors,
// and nearest-neighbour retrieval is an ordinary SELECT that orders by
// DISTANCE under a LIMIT, so it runs as the engine's in-memory top-k.
package retrieval_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"tensorbase/internal/data"
	"tensorbase/internal/engine"
)

// vector renders v as a SQL vector literal that parses back to the same
// float32 bits.
func vector(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(float64(f), 'g', -1, 32)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func Example() {
	dir, err := os.MkdirTemp("", "tensorbase-retrieval-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := engine.Open(filepath.Join(dir, "retrieval.db"), engine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 2000 "documents": id, topic label, embedding. Embeddings come from
	// 8 topic clusters, like encoder outputs would.
	const n, dim, topics = 2000, 32, 8
	d := data.Clusters(17, n, dim, topics, 0.35)
	if _, err := db.Exec("CREATE TABLE docs (id INT, topic INT, embedding VECTOR)"); err != nil {
		log.Fatal(err)
	}
	const perInsert = 250
	for lo := 0; lo < n; lo += perInsert {
		var b strings.Builder
		b.WriteString("INSERT INTO docs VALUES ")
		for i := lo; i < lo+perInsert; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %s)", i, d.Labels[i], vector(d.X.Row(i)))
		}
		if _, err := db.Exec(b.String()); err != nil {
			log.Fatal(err)
		}
	}

	// Query with a stored document's embedding; the retrieved context
	// should come from that document's topic.
	q := rand.New(rand.NewSource(18)).Intn(n)
	res, err := db.Query("SELECT id, topic, DISTANCE(embedding, " + vector(d.X.Row(q)) + ") FROM docs ORDER BY distance LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-5 retrieved for a topic-%d query:\n", d.Labels[q])
	correct := 0
	for _, r := range res.Rows {
		fmt.Printf("  doc %4d  topic %d  dist² %.3f\n", r[0].Int, r[1].Int, r[2].Float)
		if int(r[1].Int) == d.Labels[q] {
			correct++
		}
	}
	fmt.Printf("%d/5 retrieved documents share the query's topic\n", correct)
	// Output:
	// top-5 retrieved for a topic-5 query:
	//   doc 1111  topic 5  dist² 0.000
	//   doc  822  topic 5  dist² 3.251
	//   doc  668  topic 5  dist² 3.740
	//   doc  956  topic 5  dist² 4.207
	//   doc  289  topic 5  dist² 4.379
	// 5/5 retrieved documents share the query's topic
}
