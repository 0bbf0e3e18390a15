#!/usr/bin/env python3
"""Fail when a `go test -run` pattern in a CI workflow selects no test.

Each `-run` pattern in the workflow is split into its top-level `|`
alternatives, and each alternative is listed with `go test -list` over the
packages its command names. An alternative that lists nothing, such as a
renamed or misspelled test, fails the check: CI would otherwise run
nothing for it and pass. Commands that run benchmarks (`-bench`) are
skipped, because their `-run` deliberately matches nothing.

usage: python3 scripts/check_run_patterns.py [.github/workflows/ci.yml]
"""

import shlex
import subprocess
import sys


def go_test_commands(path):
    """Yields the argument list of every `go test` command in the file."""
    with open(path) as f:
        text = f.read().replace("\\\n", " ")
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("run:"):
            line = line[len("run:"):].strip()
        if not line.startswith("go test "):
            continue
        args = shlex.split(line)
        if "|" in args:
            args = args[: args.index("|")]
        yield args


def run_pattern(args):
    """Returns the command's -run pattern and its packages, or None."""
    pattern, pkgs = None, []
    for i, a in enumerate(args):
        if a == "-run" and i + 1 < len(args):
            pattern = args[i + 1]
        elif a.startswith("-run="):
            pattern = a[len("-run="):]
        elif a == "." or a.startswith("./"):
            pkgs.append(a)
    if pattern is None or any(a == "-bench" or a.startswith("-bench=") for a in args):
        return None
    return pattern, pkgs or ["."]


def alternatives(pattern):
    """Splits a regexp on the `|` that are not inside parentheses."""
    alts, depth, cur = [], 0, ""
    for ch in pattern:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "|" and depth == 0:
            alts.append(cur)
            cur = ""
        else:
            cur += ch
    return alts + [cur]


def listed(alt, pkgs):
    """Returns the test names `go test -list alt pkgs` prints."""
    out = subprocess.run(["go", "test", "-list", alt] + pkgs,
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"go test -list {alt!r} {' '.join(pkgs)} failed:\n{out.stdout}{out.stderr}")
    return [l for l in out.stdout.splitlines()
            if l.startswith(("Test", "Benchmark", "Fuzz", "Example"))]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    missing, checked = [], 0
    for args in go_test_commands(path):
        found = run_pattern(args)
        if found is None:
            continue
        pattern, pkgs = found
        for alt in alternatives(pattern):
            checked += 1
            if not listed(alt, pkgs):
                missing.append(f"-run alternative {alt!r} matches no test in {' '.join(pkgs)}")
    for m in missing:
        print(m, file=sys.stderr)
    if missing:
        sys.exit(1)
    print(f"{checked} -run alternatives in {path}: each matches a test")


if __name__ == "__main__":
    main()
