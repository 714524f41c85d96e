#!/bin/sh
# End-to-end smoke test of the CLI tool chain:
#   datastage_gen -> datastage_run (save schedule) -> datastage_verify.
# Invoked by CTest with the build's tools directory as $1.
set -eu

TOOLS_DIR="$1"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

"$TOOLS_DIR/datastage_gen" --seed=5 --preset=light --quiet \
    --out="$WORK_DIR/case.ds"
test -s "$WORK_DIR/case.ds"

"$TOOLS_DIR/datastage_gen" --seed=5 --preset=light --quiet --stats \
    | grep -q "demand/supply ratio"

"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --ratio=2 --save="$WORK_DIR/plan.dss" | grep -q "replay:           clean"
test -s "$WORK_DIR/plan.dss"

"$TOOLS_DIR/datastage_verify" "$WORK_DIR/case.ds" "$WORK_DIR/plan.dss" \
    | grep -q "verdict:        VALID"

# The baselines and the report path must run too.
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=priority_first \
    --report > /dev/null
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=random_dijkstra \
    --seed=9 > /dev/null

# Observability: --metrics-out writes valid JSON with nonzero cache counters,
# --trace-out writes valid JSON-lines, and --paranoid reports zero cache hits
# while producing the exact same schedule.
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --metrics-out="$WORK_DIR/metrics.json" --trace-out="$WORK_DIR/trace.jsonl" \
    --save="$WORK_DIR/cached.dss" > /dev/null
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --paranoid --metrics-out="$WORK_DIR/metrics_paranoid.json" \
    --save="$WORK_DIR/paranoid.dss" > /dev/null
cmp -s "$WORK_DIR/cached.dss" "$WORK_DIR/paranoid.dss"
python3 - "$WORK_DIR/metrics.json" "$WORK_DIR/metrics_paranoid.json" \
    "$WORK_DIR/trace.jsonl" <<'PYEOF'
import json, sys
cached = json.load(open(sys.argv[1]))["counters"]
paranoid = json.load(open(sys.argv[2]))["counters"]
assert cached["engine.cache_hits"] > 0, cached
assert cached["engine.tree_recomputes"] > 0, cached
assert paranoid["engine.cache_hits"] == 0, paranoid
assert paranoid["engine.tree_recomputes"] > cached["engine.tree_recomputes"]
events = [json.loads(line) for line in open(sys.argv[3])]
assert events, "empty trace"
assert [e["seq"] for e in events] == list(range(len(events)))
types = {e["type"] for e in events}
for required in ("recompute", "round", "commit", "finish"):
    assert required in types, (required, types)
# Cache hits are reported as an aggregate field on round events (the engine
# no longer emits a per-plan cache_hit event).
assert any(e.get("cache_hits", 0) > 0 for e in events if e["type"] == "round")
commits = sum(1 for e in events if e["type"] == "commit")
assert commits == cached["engine.steps_committed"], (commits, cached)
PYEOF

# Request-lifecycle tracing + explain: on a congested case every heuristic
# leaves requests unsatisfied, each must carry a structured loss reason, and
# datastage_explain must replay that reason from the trace alone.
"$TOOLS_DIR/datastage_gen" --seed=7 --preset=congested --quiet \
    --out="$WORK_DIR/congested.ds"
for sched in partial/C4 full_one/C4 full_all/C4; do
  name=$(echo "$sched" | tr '/' '_')
  "$TOOLS_DIR/datastage_run" "$WORK_DIR/congested.ds" --scheduler="$sched" \
      --trace-out="$WORK_DIR/$name.jsonl" > /dev/null
  "$TOOLS_DIR/datastage_explain" "$WORK_DIR/$name.jsonl" --summary \
      > "$WORK_DIR/$name.summary.txt"
  grep -q "loss reason" "$WORK_DIR/$name.summary.txt"
  # Pick one unsatisfied request from the trace; --request must show why.
  python3 - "$WORK_DIR/$name.jsonl" > "$WORK_DIR/$name.lost" <<'PYEOF'
import json, sys
for line in open(sys.argv[1]):
    e = json.loads(line)
    if e.get("type") == "request" and not e["satisfied"] and "reason" in e:
        print(e["item"], e["k"], e["reason"])
        break
else:
    sys.exit("no unsatisfied request with a structured reason in the trace")
PYEOF
  read -r item k reason < "$WORK_DIR/$name.lost"
  "$TOOLS_DIR/datastage_explain" "$WORK_DIR/$name.jsonl" \
      --request="$item:$k" > "$WORK_DIR/$name.request.txt"
  grep -q "$reason" "$WORK_DIR/$name.request.txt"
done
# A selector is whole numbers: "0x" is not item 0.
status=0
"$TOOLS_DIR/datastage_explain" "$WORK_DIR/full_one_C4.jsonl" --request=0x \
    > /dev/null 2> "$WORK_DIR/err.txt" || status=$?
test "$status" -eq 1
grep -q "bad --request" "$WORK_DIR/err.txt"

# Chrome trace export must be loadable Trace Event JSON, and
# --metrics-format=openmetrics must produce a well-formed text exposition.
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --chrome-trace-out="$WORK_DIR/run.chrome.json" \
    --metrics-out="$WORK_DIR/metrics.om" --metrics-format=openmetrics \
    | grep -q "chrome trace written"
grep -q "_total" "$WORK_DIR/metrics.om"
grep -q "# EOF" "$WORK_DIR/metrics.om"
python3 - "$WORK_DIR/run.chrome.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["displayTimeUnit"] == "ms", doc.keys()
events = doc["traceEvents"]
assert any(e["ph"] == "X" and e["pid"] == 1 for e in events), "no sim slices"
for e in events:
    assert {"name", "ph", "pid", "tid"} <= e.keys(), e
    if e["ph"] != "M":
        assert "ts" in e, e
    if e["ph"] == "X":
        assert "dur" in e, e
PYEOF

# benchdiff: a document diffed against itself is clean, a perturbed counter
# trips the threshold (exit 1), and --warn-only downgrades that to exit 0.
python3 - "$WORK_DIR/metrics.json" "$WORK_DIR/metrics_perturbed.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["counters"]["engine.tree_recomputes"] *= 10
json.dump(doc, open(sys.argv[2], "w"))
PYEOF
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/metrics.json" "$WORK_DIR/metrics.json" \
    > /dev/null
status=0
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/metrics.json" \
    "$WORK_DIR/metrics_perturbed.json" > "$WORK_DIR/benchdiff.txt" || status=$?
test "$status" -eq 1
grep -q "engine.tree_recomputes" "$WORK_DIR/benchdiff.txt"
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/metrics.json" \
    "$WORK_DIR/metrics_perturbed.json" --warn-only > /dev/null
status=0
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/metrics.json" "$WORK_DIR/metrics.json" \
    --thresholds=engine=0.5x > /dev/null 2> "$WORK_DIR/err.txt" || status=$?
test "$status" -eq 1
grep -q "bad --thresholds" "$WORK_DIR/err.txt"
# The host facts every BENCH_*.json records (host_cores, build_type) label
# the run: documents from different hosts diff clean and never list them.
python3 - "$WORK_DIR/metrics.json" "$WORK_DIR/host_a.json" "$WORK_DIR/host_b.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for path, cores, build in ((sys.argv[2], 4, "Release"), (sys.argv[3], 64, "Debug")):
    json.dump(dict(doc, host_cores=cores, build_type=build), open(path, "w"))
PYEOF
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/host_a.json" "$WORK_DIR/host_b.json" \
    > "$WORK_DIR/benchdiff.txt"
if grep -q "host_cores" "$WORK_DIR/benchdiff.txt"; then exit 1; fi
# Under --warn-only a missing, empty or unparsable baseline is a warning
# (exit 0); an unparsable current document still fails (exit 2).
: > "$WORK_DIR/empty.json"
printf '{"broken": \n' > "$WORK_DIR/broken.json"
for baseline in "$WORK_DIR/empty.json" "$WORK_DIR/broken.json" \
    "$WORK_DIR/no-such-baseline.json"; do
  "$TOOLS_DIR/datastage_benchdiff" "$baseline" "$WORK_DIR/metrics.json" \
      --warn-only > "$WORK_DIR/benchdiff.txt" 2>&1
  grep -q "nothing compared" "$WORK_DIR/benchdiff.txt"
  status=0
  "$TOOLS_DIR/datastage_benchdiff" "$baseline" "$WORK_DIR/metrics.json" \
      > /dev/null 2>&1 || status=$?
  test "$status" -eq 2
done
status=0
"$TOOLS_DIR/datastage_benchdiff" "$WORK_DIR/metrics.json" \
    "$WORK_DIR/empty.json" --warn-only > /dev/null 2>&1 || status=$?
test "$status" -eq 2

# A bad output path must fail eagerly with exit 2 and name the path.
for flag in --metrics-out --trace-out --chrome-trace-out; do
  status=0
  "$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
      "$flag=$WORK_DIR/no-such-dir/out.file" \
      > /dev/null 2> "$WORK_DIR/err.txt" || status=$?
  test "$status" -eq 2
  grep -q "no-such-dir" "$WORK_DIR/err.txt"
done

# Fault chain: seeded fault generation, replay + recovery under a fault
# spec, and the fault-intensity sweep with its CSV.
"$TOOLS_DIR/datastage_gen" --seed=5 --preset=light \
    --out="$WORK_DIR/fcase.ds" --faults-out="$WORK_DIR/case.dsf" \
    --fault-intensity=0.4 --fault-seed=17 2>&1 | grep -q "faults:"
test -s "$WORK_DIR/case.dsf"
grep -q "datastage-faults" "$WORK_DIR/case.dsf"

"$TOOLS_DIR/datastage_run" "$WORK_DIR/fcase.ds" --scheduler=full_one/C4 \
    --faults="$WORK_DIR/case.dsf" > "$WORK_DIR/faults.txt"
grep -q "realized value" "$WORK_DIR/faults.txt"
grep -q "recovered value" "$WORK_DIR/faults.txt"

"$TOOLS_DIR/datastage_run" "$WORK_DIR/fcase.ds" --fault-sweep \
    --csv="$WORK_DIR/fault_sweep.csv" > "$WORK_DIR/fault_sweep.txt"
grep -q "clairvoyant" "$WORK_DIR/fault_sweep.txt"
head -1 "$WORK_DIR/fault_sweep.csv" | grep -q "scheduler,intensity"

# The one-shot reproduction tool must emit every figure and write CSVs.
"$TOOLS_DIR/datastage_repro" --cases=1 --outdir="$WORK_DIR/results" \
    > "$WORK_DIR/repro.txt"
grep -q "Figure 2" "$WORK_DIR/repro.txt"
grep -q "Figure 5" "$WORK_DIR/repro.txt"
grep -q "Engine cost metrics" "$WORK_DIR/repro.txt"
test -s "$WORK_DIR/results/fig2.csv"
test -s "$WORK_DIR/results/priority_first.csv"
test -s "$WORK_DIR/results/engine_cost.csv"

# Online serving: a scripted datastage_serve session must answer every
# command line (including a malformed one) with one response line, mirror
# them into --decision-log, and admit a fresh new-item submission.
cat > "$WORK_DIR/serve_script.txt" <<'EOF'
{"v":1,"cmd":"stats"}
{"v":1,"cmd":"submit","id":"s1","t_usec":0,"item":"smoke_item","dest":"M1","deadline_usec":7200000000,"priority":2,"new_item":{"size_bytes":4096,"sources":[{"machine":"M0","available_at_usec":0}]}}
{"v":1,"cmd":"query","id":"s1"}
{"v":1,"cmd":"advance","to_usec":3600000000}
{"v":1,"cmd":"cancel","id":"s1","t_usec":3600000000}
not even json
{"v":1,"cmd":"shutdown"}
EOF
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/serve.log" > "$WORK_DIR/serve.out"
cmp -s "$WORK_DIR/serve.log" "$WORK_DIR/serve.out"
python3 - "$WORK_DIR/serve.out" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert len(lines) == 7, len(lines)
assert all(l["v"] == 1 for l in lines), lines
submit = lines[1]
assert submit["ok"] and submit["cmd"] == "submit", submit
assert submit["admitted"] and submit["outcome"] == "admitted", submit
assert lines[2]["status"] in ("pending", "satisfied"), lines[2]
bad = lines[5]
assert not bad["ok"] and bad["error"] == "bad_json", bad
finish = lines[6]
assert finish["ok"] and finish["cmd"] == "shutdown", finish
assert finish["requests"] > 0 and finish["satisfied"] > 0, finish
PYEOF

# A bad --decision-log path fails eagerly with exit 2, like every sink flag.
status=0
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/no-such-dir/serve.log" \
    > /dev/null 2> "$WORK_DIR/err.txt" || status=$?
test "$status" -eq 2
grep -q "no-such-dir" "$WORK_DIR/err.txt"

# Corrupting the schedule must be detected — an INVALID verdict is exit 1
# (a lint-style "findings" exit), distinct from usage/load errors (exit 2).
printf 'step 0 0 1 0 0 1\n' >> "$WORK_DIR/plan.dss"
status=0
"$TOOLS_DIR/datastage_verify" "$WORK_DIR/case.ds" "$WORK_DIR/plan.dss" \
    > "$WORK_DIR/verdict.txt" 2>&1 || status=$?
test "$status" -eq 1
grep -q "INVALID" "$WORK_DIR/verdict.txt"

# Usage and load errors exit 2: missing operands, unreadable scenario.
status=0
"$TOOLS_DIR/datastage_verify" > /dev/null 2>&1 || status=$?
test "$status" -eq 2
status=0
"$TOOLS_DIR/datastage_verify" "$WORK_DIR/no-such.ds" "$WORK_DIR/plan.dss" \
    > /dev/null 2> "$WORK_DIR/verify_err.txt" || status=$?
test "$status" -eq 2
grep -q "cannot load scenario" "$WORK_DIR/verify_err.txt"

# A schedule file is read strictly: a step whose last field is partly numeric
# or that carries an extra token is a load error, never a silently trimmed
# step that might verify as VALID.
for edit in 's/$/x/' 's/$/ 7/'; do
  sed "2$edit" "$WORK_DIR/plan.dss" > "$WORK_DIR/bad.dss"
  status=0
  "$TOOLS_DIR/datastage_verify" "$WORK_DIR/case.ds" "$WORK_DIR/bad.dss" \
      > /dev/null 2> "$WORK_DIR/verify_err.txt" || status=$?
  test "$status" -eq 2
  grep -q "cannot load schedule" "$WORK_DIR/verify_err.txt"
done

# Every tool answers --help: exit 0 and a list of its known flags on stdout.
for tool in "$TOOLS_DIR"/datastage_*; do
  [ -f "$tool" ] && [ -x "$tool" ] || continue
  "$tool" --help > "$WORK_DIR/help.txt"
  grep -q -- "--" "$WORK_DIR/help.txt" || {
    echo "no flags in --help of $(basename "$tool")" >&2
    exit 1
  }
done

echo "tools smoke test passed"
