#!/usr/bin/env python3
"""Parse `go test -bench` output into a benchmark JSON artifact and gate
the serving-path benchmarks.

Usage: bench_gate.py <bench-output.txt> <out.json>

Collects every benchmark line (several -count repetitions per name), keeps
the full run list plus the best (minimum) ns/op — the minimum is the
stable statistic on a noisy shared runner, since scheduler interference
only ever adds time.

Gates (the job fails after the JSON is written, so the artifact survives
for inspection):

  quantized  BenchmarkQuantizedPredict/quantized's best run must beat
             /f32's best run — serving the int8-resident twin must be
             faster than f32 serving end-to-end.
  snapshot   BenchmarkSnapshotReadUnderWrites/underwrites throughput must
             be >= 0.8x the /readonly baseline — MVCC snapshot reads must
             keep PREDICT off the lock manager while a writer commits.
  dedup      BenchmarkModelLoadDedup's marginal_frac_of_model must be
             <= 0.30 — one extra fine-tuned variant may cost at most 30%
             of a full model's resident bytes, or the block store is not
             actually deduplicating.
"""
import json
import re
import sys

# "BenchmarkQuantizedPredict/f32-4   44   5562608 ns/op   184086 rows/s"
LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$")
EXTRA = re.compile(r"([\d.]+) ([\w./]+)")

# underwrites must retain this fraction of read-only PREDICT throughput.
SNAPSHOT_FLOOR = 0.8

# one extra fine-tuned variant may cost at most this fraction of a full
# model's resident bytes.
DEDUP_CEILING = 0.30


def parse(src):
    runs = {}
    with open(src) as f:
        for line in f:
            m = LINE.match(line.strip())
            if not m:
                continue
            name, ns, rest = m.group(1), float(m.group(3)), m.group(4)
            entry = runs.setdefault(name, {"runs_ns_per_op": [], "metrics": {}})
            entry["runs_ns_per_op"].append(ns)
            for val, unit in EXTRA.findall(rest):
                if unit != "ns/op":
                    entry["metrics"].setdefault(unit, []).append(float(val))
    for entry in runs.values():
        entry["best_ns_per_op"] = min(entry["runs_ns_per_op"])
    return runs


def quantized_gate(runs):
    f32 = runs.get("BenchmarkQuantizedPredict/f32")
    q8 = runs.get("BenchmarkQuantizedPredict/quantized")
    if not (f32 and q8):
        return None
    return {
        "f32_best_ns_per_op": f32["best_ns_per_op"],
        "quantized_best_ns_per_op": q8["best_ns_per_op"],
        "speedup": f32["best_ns_per_op"] / q8["best_ns_per_op"],
        "pass": q8["best_ns_per_op"] < f32["best_ns_per_op"],
    }


def snapshot_gate(runs):
    ro = runs.get("BenchmarkSnapshotReadUnderWrites/readonly")
    uw = runs.get("BenchmarkSnapshotReadUnderWrites/underwrites")
    if not (ro and uw):
        return None
    # Throughput is 1/ns, so the throughput ratio is readonly/underwrites.
    ratio = ro["best_ns_per_op"] / uw["best_ns_per_op"]
    return {
        "readonly_best_ns_per_op": ro["best_ns_per_op"],
        "underwrites_best_ns_per_op": uw["best_ns_per_op"],
        "throughput_ratio": ratio,
        "floor": SNAPSHOT_FLOOR,
        "pass": ratio >= SNAPSHOT_FLOOR,
    }


def dedup_gate(runs):
    entry = runs.get("BenchmarkModelLoadDedup")
    if not entry:
        return None
    fracs = entry["metrics"].get("marginal_frac_of_model")
    if not fracs:
        return None
    # The fraction is a property of the block layout, not of runner speed,
    # but take the minimum across repetitions for symmetry with the other
    # gates (it is identical across runs in practice).
    frac = min(fracs)
    rates = entry["metrics"].get("dedup_hit_rate", [])
    return {
        "marginal_frac_of_model": frac,
        "dedup_hit_rate": max(rates) if rates else None,
        "ceiling": DEDUP_CEILING,
        "pass": frac <= DEDUP_CEILING,
    }


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <bench-output.txt> <out.json>")
    src, dst = sys.argv[1], sys.argv[2]
    runs = parse(src)
    qgate = quantized_gate(runs)
    sgate = snapshot_gate(runs)
    dgate = dedup_gate(runs)

    with open(dst, "w") as f:
        json.dump(
            {
                "benchmarks": runs,
                "quantized_gate": qgate,
                "snapshot_gate": sgate,
                "dedup_gate": dgate,
            },
            f, indent=2, sort_keys=True,
        )
        f.write("\n")

    failures = []
    if qgate is None:
        failures.append("BenchmarkQuantizedPredict/{f32,quantized} runs missing from input")
    else:
        print("bench_gate: quantized %.0f ns/op vs f32 %.0f ns/op (%.2fx)"
              % (qgate["quantized_best_ns_per_op"], qgate["f32_best_ns_per_op"],
                 qgate["speedup"]))
        if not qgate["pass"]:
            failures.append("quantized PREDICT must be faster than f32 end-to-end")
    if sgate is None:
        failures.append("BenchmarkSnapshotReadUnderWrites/{readonly,underwrites} runs missing from input")
    else:
        print("bench_gate: snapshot reads under writes at %.2fx read-only throughput (floor %.2f)"
              % (sgate["throughput_ratio"], sgate["floor"]))
        if not sgate["pass"]:
            failures.append(
                "PREDICT under a concurrent writer fell below %.2fx of the read-only baseline"
                % SNAPSHOT_FLOOR)
    if dgate is None:
        failures.append("BenchmarkModelLoadDedup run missing from input")
    else:
        rate = dgate["dedup_hit_rate"]
        print("bench_gate: dedup marginal variant cost %.3fx of a full model (ceiling %.2f), hit rate %s"
              % (dgate["marginal_frac_of_model"], dgate["ceiling"],
                 "%.2f" % rate if rate is not None else "n/a"))
        if not dgate["pass"]:
            failures.append(
                "a fine-tuned variant cost more than %.0f%% of a full model's resident bytes"
                % (DEDUP_CEILING * 100))
    if failures:
        sys.exit("bench_gate: FAIL — " + "; ".join(failures))


if __name__ == "__main__":
    main()
