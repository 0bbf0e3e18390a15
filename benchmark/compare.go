package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric of one workload across two runs.
// change is relative to a, signed so that positive is worse. A metric whose
// windows spread wider than its bound on either side cannot resolve a
// change of the bound's size: it is unresolved, not unchanged.
func verdict(m metricDef, a, b, spreadA, spreadB float64) (change float64, word string) {
	if a != 0 {
		change = (b - a) / a
	}
	if m.better == "higher" {
		change = -change
	}
	switch {
	case spreadA > m.bound || spreadB > m.bound:
		return change, "unresolved"
	case change > m.bound:
		return change, "worse"
	}
	return change, "ok"
}

func readResults(path string) (map[string]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*result
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*result)
	for _, r := range list {
		if !r.Traced {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// change with its base, the bound and the verdict. It returns 1 when any
// metric is worse or any run had a failed operation.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b map[string]*result, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-15s %-17s %12s %12s %22s %6s  %s\n", "workload", "metric", "a", "b", "worse by (of a)", "bound", "verdict")
	for _, sp := range specs {
		ra, rb := a[sp.name], b[sp.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.name].Value, rb.Metrics[m.name].Value
			change, word := verdict(m, va, vb, ra.Spread[m.name], rb.Spread[m.name])
			if word == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-17s %12.6g %12.6g %+10.1f%% of %-8.5g %5.0f%%  %s\n",
				sp.name, m.name, va, vb, 100*change, va, 100*m.bound, word)
		}
		for _, r := range []*result{ra, rb} {
			if r.Failed > 0 {
				fmt.Fprintf(stdout, "%-15s %d of %d operations failed\n", sp.name, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
