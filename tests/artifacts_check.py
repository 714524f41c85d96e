#!/usr/bin/env python3
"""Checks that the committed docs and benchmark curves are real.

Usage: artifacts_check.py SOURCE_DIR

Fails when README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md still hold a
PLACEHOLDER_ token, when an experiment heading of EXPERIMENTS.md (`## E<n>`
or `### E<n>`) repeats an earlier one (a stale copy of a section), or when
a BENCH_*.json at the source root is empty, is not valid JSON, does not
record the host it ran on (`host_cores`, `build_type`), or holds tier rows
with differing key sets (a curve regenerated only in part), or when
BENCH_serve.json does not record `verdicts_identical` as true (the quick and
full serve modes must admit the same requests).
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

    first_heading = {}
    with open(os.path.join(root, "EXPERIMENTS.md"), encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            heading = re.match(r"#{2,3} (E\d+)\b", line)
            if heading is None:
                continue
            experiment = heading.group(1)
            if experiment in first_heading:
                problems.append(f"EXPERIMENTS.md:{number}: heading {experiment} repeats "
                                f"line {first_heading[experiment]}")
            else:
                first_heading[experiment] = number

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
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            problems.append(f"{name}: not valid JSON ({error})")
            continue
        if not isinstance(doc, dict):
            problems.append(f"{name}: top level is not an object")
            continue
        for field in ("host_cores", "build_type"):
            if field not in doc:
                problems.append(f"{name}: no {field}")
        if name == "BENCH_serve.json" and doc.get("verdicts_identical") is not True:
            problems.append(f"{name}: verdicts_identical is "
                            f"{json.dumps(doc.get('verdicts_identical'))}, not true")
        rows = doc.get("tiers", [])
        if rows:
            keys = set(rows[0])
            for row in rows[1:]:
                if set(row) != keys:
                    problems.append(f"{name}: tier {row.get('tier')} differs from tier "
                                    f"{rows[0].get('tier')} in keys "
                                    f"{sorted(set(row) ^ keys)}")

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
