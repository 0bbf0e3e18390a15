// Command benchmark is the repository's client-observed serving benchmark.
// It boots the server in-process with the wiring `tensorbase --serve` uses,
// drives POST /query through a real net/http client in a closed loop of two
// clients, checks every answer, and reports end-to-end metrics (untraced
// run) or per-layer metrics (traced run) for six named workloads. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for data, weights and key sequences")
	seconds := fs.Int("seconds", 15, "how long the measured phases of one workload run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "a few operations per workload, every answer checked value by value")
	out := fs.String("out", "", "write the results of this invocation to this JSON file")
	traceOut := fs.String("trace-out", filepath.Join("benchmark", "out", "trace.json"), "where a traced run writes its spans")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	todo := specs
	if *workload != "all" {
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		todo = []*spec{sp}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}

	var results []*result
	for _, sp := range todo {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		results = append(results, res)
		res.print(stdout, stderr)
	}
	if cfg.trace {
		if err := writeSpans(*traceOut, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// print writes one `workload metric value unit` line per metric, then the
// diagnostics, then — as the last line — the result object the benchmark
// contract asks for.
func (res *result) print(stdout, stderr io.Writer) {
	for _, msg := range res.Failures {
		fmt.Fprintf(stderr, "%s FAILED %s\n", res.Workload, msg)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		line := fmt.Sprintf("%s %s %.6g %s", res.Workload, m.name, res.Metrics[m.name].Value, m.unit)
		if s, ok := res.Spread[m.name]; ok {
			line += fmt.Sprintf(" spread=%.3f", s)
		}
		fmt.Fprintln(stdout, line)
	}
	for _, name := range sortedKeys(res.Diagnostics) {
		fmt.Fprintf(stdout, "# %s %s %.6g\n", res.Workload, name, res.Diagnostics[name])
	}
	for _, name := range sortedKeys(res.Layers) {
		fmt.Fprintf(stdout, "# %s share_of_p50.%s %.3f\n", res.Workload, name, res.Layers[name])
	}
	if res.Noisy {
		fmt.Fprintf(stdout, "# %s noisy: calib_ms moved by more than 10%% across the run\n", res.Workload)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	fmt.Fprintf(stdout, "%s\n", line)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeSpans writes every traced workload's spans, kept in memory until
// now, to one file.
func writeSpans(path string, results []*result) error {
	byWorkload := make(map[string][]span)
	for _, res := range results {
		byWorkload[res.Workload] = res.spans
	}
	return writeJSON(path, map[string]any{"spans": byWorkload})
}
