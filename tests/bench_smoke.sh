#!/bin/sh
# Smoke test: every figure/table bench binary must run to completion with a
# tiny case count and produce a table, and must know every flag its source
# header documents. Invoked by CTest with the build's bench directory as $1
# and the source tree as $2.
set -eu

BENCH_DIR="$1"
SOURCE_DIR="$2"
failures=0

for bench in "$BENCH_DIR"/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  # Every bench answers --help with exit 0 and a list of its flags.
  help="$("$bench" --help 2>&1)" && echo "$help" | grep -q -- "--" || {
    echo "FAILED (--help): $name" >&2
    failures=$((failures + 1))
  }
  # Each flag documented in the source header as a `//   --flag` line must
  # be in the --help list.
  header="$SOURCE_DIR/bench/$name.cpp"
  if [ -f "$header" ]; then
    known=" $(echo "$help" | tr '\n' ' ') "
    for flag in $(sed -n 's#^//   \(--[a-z0-9-]*\).*#\1#p' "$header"); do
      case "$known" in
        *" $flag "*) ;;
        *)
          echo "FAILED (documented $flag missing from --help): $name" >&2
          failures=$((failures + 1))
          ;;
      esac
    done
  fi
  case "$name" in
    tbl_exec_time)
      # google-benchmark binary: run one quick repetition.
      if ! "$bench" --benchmark_min_time=0.01 --benchmark_filter='bounds' \
          > /dev/null 2>&1; then
        echo "FAILED: $name" >&2
        failures=$((failures + 1))
      fi
      ;;
    *)
      case "$name" in
        # The default tier set ends at `huge` (500k requests) — far past a
        # smoke budget. The small tier exercises the same code path.
        perf_scale) args="--tier=small --out=/dev/null" ;;
        # Also exercises the documented --engine-jobs flag (parallel refresh).
        perf_engine) args="--grid=small --cases=1 --engine-jobs=2 --out=/dev/null" ;;
        *) args="--cases=1" ;;
      esac
      # shellcheck disable=SC2086  # args is a flag list, split on purpose
      out="$("$bench" $args 2>&1)" || {
        echo "FAILED: $name" >&2
        echo "$out" >&2
        failures=$((failures + 1))
        continue
      }
      # Every table bench prints at least one pipe-framed row.
      echo "$out" | grep -q '|' || {
        echo "FAILED (no table): $name" >&2
        failures=$((failures + 1))
      }
      ;;
  esac
done

# A binary's own flags come from the same parse as the shared ones: fig2
# with --jobs next to its --minmax must print the dispersion table and
# report no flag unknown.
fig2="$BENCH_DIR/fig2_bounds_comparison"
if [ -x "$fig2" ]; then
  out="$("$fig2" --cases=1 --jobs=1 --minmax 2>&1)" || {
    echo "FAILED: fig2_bounds_comparison --jobs=1 --minmax" >&2
    failures=$((failures + 1))
  }
  if ! echo "$out" | grep -q '| mean *| min *| max *| stddev *|' ||
      echo "$out" | grep -q 'unknown flag'; then
    echo "FAILED (--minmax table with --jobs): fig2_bounds_comparison" >&2
    echo "$out" >&2
    failures=$((failures + 1))
  fi
fi

[ "$failures" -eq 0 ] && echo "bench smoke test passed"
exit "$failures"
