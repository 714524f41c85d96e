#!/usr/bin/env python3
"""Checks that the committed docs and benchmark curves are real.

Usage: artifacts_check.py SOURCE_DIR

Fails when README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md still hold a
PLACEHOLDER_ token, or when a BENCH_*.json at the source root is empty or
is not valid JSON.
"""
import glob
import json
import os
import re
import sys


def main(root):
    problems = []
    docs = [os.path.join(root, name) for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    for path in docs:
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                for token in re.findall(r"PLACEHOLDER_\w*", line):
                    problems.append(f"{os.path.relpath(path, root)}:{number}: {token}")

    benches = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not benches:
        problems.append("no BENCH_*.json at the source root")
    for path in benches:
        name = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if not text.strip():
            problems.append(f"{name}: empty")
            continue
        try:
            json.loads(text)
        except json.JSONDecodeError as error:
            problems.append(f"{name}: not valid JSON ({error})")

    for problem in problems:
        print(problem)
    print(f"artifacts_check: {len(docs)} docs, {len(benches)} BENCH files, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
