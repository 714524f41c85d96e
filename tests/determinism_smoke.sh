#!/bin/sh
# End-to-end determinism check for the parallel executor: every artifact a
# tool produces — stdout tables, per-figure CSVs, the merged metrics JSON and
# saved schedules — must be byte-identical for --jobs=1 and --jobs=8, and
# likewise for the intra-engine refresh parallelism under --engine-jobs.
# Invoked by CTest with the build's tools directory as $1 and the bench
# directory as $2.
set -eu

TOOLS_DIR="$1"
BENCH_DIR="$2"
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

# datastage_repro: identical output directories. The runs use the same
# relative paths (cwd-switched) so even the "written to ..." lines match.
mkdir "$WORK_DIR/serial" "$WORK_DIR/parallel"
(cd "$WORK_DIR/serial" && "$TOOLS_DIR/datastage_repro" --cases=4 --jobs=1 \
    --outdir=out --metrics-out=metrics.json > stdout.txt)
(cd "$WORK_DIR/parallel" && "$TOOLS_DIR/datastage_repro" --cases=4 --jobs=8 \
    --outdir=out --metrics-out=metrics.json > stdout.txt)
diff -r "$WORK_DIR/serial" "$WORK_DIR/parallel"

# The merged metrics JSON must be non-trivial (engine counters present).
grep -q "engine." "$WORK_DIR/serial/metrics.json"

# datastage_run --sweep: table, CSV and schedule byte-equality.
"$TOOLS_DIR/datastage_gen" --seed=5 --preset=light --quiet \
    --out="$WORK_DIR/case.ds"
(cd "$WORK_DIR" && "$TOOLS_DIR/datastage_run" case.ds --sweep --jobs=1 \
    --csv=sweep1.csv > sweep1.txt)
(cd "$WORK_DIR" && "$TOOLS_DIR/datastage_run" case.ds --sweep --jobs=8 \
    --csv=sweep8.csv > sweep8.txt)
cmp -s "$WORK_DIR/sweep1.csv" "$WORK_DIR/sweep8.csv"
# stdout differs only in the CSV filename it echoes.
sed 's/sweep[18]\.csv//' "$WORK_DIR/sweep1.txt" > "$WORK_DIR/sweep1.norm"
sed 's/sweep[18]\.csv//' "$WORK_DIR/sweep8.txt" > "$WORK_DIR/sweep8.norm"
cmp -s "$WORK_DIR/sweep1.norm" "$WORK_DIR/sweep8.norm"

# datastage_run --fault-sweep: the degradation-curve CSV must be
# byte-identical across job counts (faults are drawn per grid cell from the
# fault seed, never from scheduler or thread state).
(cd "$WORK_DIR" && "$TOOLS_DIR/datastage_run" case.ds --fault-sweep --jobs=1 \
    --csv=faults1.csv > faults1.txt)
(cd "$WORK_DIR" && "$TOOLS_DIR/datastage_run" case.ds --fault-sweep --jobs=8 \
    --csv=faults8.csv > faults8.txt)
cmp -s "$WORK_DIR/faults1.csv" "$WORK_DIR/faults8.csv"
sed 's/faults[18]\.csv//' "$WORK_DIR/faults1.txt" > "$WORK_DIR/faults1.norm"
sed 's/faults[18]\.csv//' "$WORK_DIR/faults8.txt" > "$WORK_DIR/faults8.norm"
cmp -s "$WORK_DIR/faults1.norm" "$WORK_DIR/faults8.norm"

# Saved schedules are jobs-independent too (the single-run path does not fan
# out, but the flag must be accepted and harmless everywhere).
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --jobs=1 --save="$WORK_DIR/plan1.dss" > /dev/null
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --jobs=8 --save="$WORK_DIR/plan8.dss" > /dev/null
cmp -s "$WORK_DIR/plan1.dss" "$WORK_DIR/plan8.dss"

# A bench binary: stdout (with its jobs-independent header) and CSV must
# match across job counts.
(cd "$WORK_DIR" && "$BENCH_DIR/tbl_links_traversed" --cases=3 --jobs=1 \
    --csv=links1.csv > links1.txt)
(cd "$WORK_DIR" && "$BENCH_DIR/tbl_links_traversed" --cases=3 --jobs=8 \
    --csv=links8.csv > links8.txt)
cmp -s "$WORK_DIR/links1.csv" "$WORK_DIR/links8.csv"
sed 's/links[18]\.csv//' "$WORK_DIR/links1.txt" > "$WORK_DIR/links1.norm"
sed 's/links[18]\.csv//' "$WORK_DIR/links8.txt" > "$WORK_DIR/links8.norm"
cmp -s "$WORK_DIR/links1.norm" "$WORK_DIR/links8.norm"

# datastage_serve: replaying a recorded command script must produce a
# byte-identical decision log across runs and --jobs settings (the serving
# determinism contract — wall-clock latency is measured but never logged).
# The script cancels an admitted request and re-submits its (item, dest)
# pair, so the log also covers per-request queries and the committed value
# of a pair that two requests shared.
cat > "$WORK_DIR/serve_script.txt" <<'EOF'
{"v":1,"cmd":"stats"}
{"v":1,"cmd":"submit","id":"s1","t_usec":0,"item":"serve_item","dest":"M1","deadline_usec":7200000000,"priority":2,"new_item":{"size_bytes":4096,"sources":[{"machine":"M0","available_at_usec":0}]}}
{"v":1,"cmd":"cancel","id":"s1","t_usec":0}
{"v":1,"cmd":"submit","id":"s2","t_usec":0,"item":"serve_item","dest":"M1","deadline_usec":7200000000,"priority":2}
{"v":1,"cmd":"advance","to_usec":1800000000}
{"v":1,"cmd":"query","id":"s1"}
{"v":1,"cmd":"query","id":"s2"}
{"v":1,"cmd":"stats"}
{"v":1,"cmd":"shutdown"}
EOF
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" --jobs=1 \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/serve1.log" > /dev/null
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" --jobs=1 \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/serve1b.log" > /dev/null
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" --jobs=8 \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/serve8.log" > /dev/null
cmp -s "$WORK_DIR/serve1.log" "$WORK_DIR/serve1b.log"
cmp -s "$WORK_DIR/serve1.log" "$WORK_DIR/serve8.log"
grep -q '"id":"s1","cancelled":true' "$WORK_DIR/serve1.log"
grep -q '"id":"s2","outcome":"admitted"' "$WORK_DIR/serve1.log"
grep -q '"id":"s1","status":"cancelled"' "$WORK_DIR/serve1.log"

# --engine-jobs: the parallel plan-refresh path inside one engine must be
# byte-identical to the serial engine in every artifact — the saved schedule,
# the structured trace stream, the repro output tree, and the serve decision
# log. (The tier-1 ctest grid covers the same contract at unit level; this
# exercises the real CLI plumbing.)
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --engine-jobs=1 --save="$WORK_DIR/eplan1.dss" \
    --trace-out="$WORK_DIR/etrace1.jsonl" > /dev/null
"$TOOLS_DIR/datastage_run" "$WORK_DIR/case.ds" --scheduler=full_one/C4 \
    --engine-jobs=8 --save="$WORK_DIR/eplan8.dss" \
    --trace-out="$WORK_DIR/etrace8.jsonl" > /dev/null
cmp -s "$WORK_DIR/eplan1.dss" "$WORK_DIR/eplan8.dss"
cmp -s "$WORK_DIR/etrace1.jsonl" "$WORK_DIR/etrace8.jsonl"

mkdir "$WORK_DIR/eserial" "$WORK_DIR/eparallel"
(cd "$WORK_DIR/eserial" && "$TOOLS_DIR/datastage_repro" --cases=2 --jobs=1 \
    --engine-jobs=1 --outdir=out --metrics-out=metrics.json > stdout.txt)
(cd "$WORK_DIR/eparallel" && "$TOOLS_DIR/datastage_repro" --cases=2 --jobs=1 \
    --engine-jobs=8 --outdir=out --metrics-out=metrics.json > stdout.txt)
diff -r "$WORK_DIR/eserial" "$WORK_DIR/eparallel"

"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/case.ds" --engine-jobs=8 \
    --script="$WORK_DIR/serve_script.txt" \
    --decision-log="$WORK_DIR/serve_ej8.log" > /dev/null
cmp -s "$WORK_DIR/serve1.log" "$WORK_DIR/serve_ej8.log"

# Replay oracle: a replan verifies the previous replan's route trees instead
# of re-running Dijkstra (docs/PERFORMANCE.md item 11); --paranoid turns that
# off along with the cache. The decision logs must match on a congested case
# with submits at several instants, new items and full rejects (each one a
# withdrawal replan, which keeps the submit replan's plan when that replan
# never used the request: item 12; w1 is due 1 ms after its submit);
# --no-quick sends every submit through the replan. Only `stats` lines
# differ, by the replay and kept-plan counts they report.
"$TOOLS_DIR/datastage_gen" --seed=5 --preset=congested --quiet \
    --out="$WORK_DIR/congested.ds"
cat > "$WORK_DIR/replay_script.txt" <<'EOF'
{"v":1,"cmd":"submit","id":"a1","t_usec":1400000000,"item":"d0","dest":"M1","deadline_usec":2544184832,"priority":2}
{"v":1,"cmd":"submit","id":"a2","t_usec":1500000000,"item":"d1","dest":"M5","deadline_usec":4000000000,"priority":1}
{"v":1,"cmd":"submit","id":"n1","t_usec":1600000000,"item":"fresh","dest":"M1","deadline_usec":5400000000,"priority":2,"new_item":{"size_bytes":4096,"sources":[{"machine":"M0","available_at_usec":1600000000}]}}
{"v":1,"cmd":"submit","id":"r1","t_usec":1700000000,"item":"huge","dest":"M3","deadline_usec":1700001000,"priority":2,"new_item":{"size_bytes":4000000000,"sources":[{"machine":"M7","available_at_usec":1700000000}]}}
{"v":1,"cmd":"submit","id":"a3","t_usec":2000000000,"item":"d1","dest":"M7","deadline_usec":5000000000,"priority":0}
{"v":1,"cmd":"submit","id":"w1","t_usec":2100000000,"item":"d2","dest":"M3","deadline_usec":2100001000,"priority":0}
{"v":1,"cmd":"advance","to_usec":2500000000}
{"v":1,"cmd":"query","id":"a1"}
{"v":1,"cmd":"stats"}
{"v":1,"cmd":"shutdown"}
EOF
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/congested.ds" --no-quick \
    --script="$WORK_DIR/replay_script.txt" \
    --decision-log="$WORK_DIR/replay.log" > /dev/null
"$TOOLS_DIR/datastage_serve" --scenario="$WORK_DIR/congested.ds" --no-quick \
    --paranoid --script="$WORK_DIR/replay_script.txt" \
    --decision-log="$WORK_DIR/paranoid.log" > /dev/null
grep -v '"cmd":"stats"' "$WORK_DIR/replay.log" > "$WORK_DIR/replay.norm"
grep -v '"cmd":"stats"' "$WORK_DIR/paranoid.log" > "$WORK_DIR/paranoid.norm"
cmp -s "$WORK_DIR/replay.norm" "$WORK_DIR/paranoid.norm"
# The script takes the paths it claims: a withdrawal, an admitted new item,
# replans that replay and withdrawals that keep the plan (none of either
# under --paranoid).
grep -q '"id":"w1","outcome":"full_reject"' "$WORK_DIR/replay.log"
grep -q '"id":"n1","outcome":"admitted"' "$WORK_DIR/replay.log"
grep -q '"tree_replays":[1-9]' "$WORK_DIR/replay.log"
grep -q '"tree_replays":0,' "$WORK_DIR/paranoid.log"
grep -q '"withdrawals_kept_plan":[1-9]' "$WORK_DIR/replay.log"
grep -q '"withdrawals_kept_plan":0,' "$WORK_DIR/paranoid.log"

echo "determinism smoke test passed"
