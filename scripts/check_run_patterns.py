#!/usr/bin/env python3
"""Fail when a `go test -run` or `-bench` pattern in a CI workflow selects
nothing.

Each pattern in the workflow is split into its top-level `|` alternatives,
and each alternative is listed with `go test -list` over the packages its
command names. An alternative that lists nothing, such as a renamed or
misspelled test, fails the check: CI would otherwise run nothing for it
and pass. In a command that runs benchmarks, each `-bench` alternative
must list a Benchmark, and the `-run` pattern is not checked, because it
deliberately matches nothing.

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


def selection(args):
    """Returns the flag whose pattern selects what the command runs (-bench
    if it has one, else -run), that pattern and the command's packages, or
    None when the command has neither flag."""
    flags, pkgs = {}, []
    for i, a in enumerate(args):
        for flag in ("-run", "-bench"):
            if a == flag and i + 1 < len(args):
                flags[flag] = args[i + 1]
            elif a.startswith(flag + "="):
                flags[flag] = a[len(flag) + 1:]
        if a == "." or a.startswith("./"):
            pkgs.append(a)
    for flag in ("-bench", "-run"):
        if flag in flags:
            return flag, flags[flag], pkgs or ["."]
    return None


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


def listed(alt, pkgs, prefixes):
    """Returns the names with one of prefixes that `go test -list alt pkgs`
    prints."""
    out = subprocess.run(["go", "test", "-list", alt] + pkgs,
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"go test -list {alt!r} {' '.join(pkgs)} failed:\n{out.stdout}{out.stderr}")
    return [l for l in out.stdout.splitlines() if l.startswith(prefixes)]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    missing, checked = [], 0
    for args in go_test_commands(path):
        found = selection(args)
        if found is None:
            continue
        flag, pattern, pkgs = found
        prefixes = ("Benchmark",) if flag == "-bench" else ("Test", "Benchmark", "Fuzz", "Example")
        for alt in alternatives(pattern):
            checked += 1
            if not listed(alt, pkgs, prefixes):
                missing.append(f"{flag} alternative {alt!r} matches no {prefixes[0]} in {' '.join(pkgs)}")
    for m in missing:
        print(m, file=sys.stderr)
    if missing:
        sys.exit(1)
    print(f"{checked} -run and -bench alternatives in {path}: each matches")


if __name__ == "__main__":
    main()
