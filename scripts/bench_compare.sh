#!/usr/bin/env bash
# Regression gate for the pinned hot-path benchmarks.
#
#   scripts/bench_compare.sh [--smoke]
#
# Re-runs bench_hotpaths against the checked-in BENCH_hotpaths.json and
# fails when any benchmark regresses by more than BEEPS_BENCH_TOLERANCE
# percent (default 25, i.e. speedup < 0.75 relative to the pinned
# numbers). The harness also emits a "lanes" section — the bit-sliced
# engine's per-trial speedup over its scalar twin, measured within the
# same run — and full mode fails when any lane ratio drops below
# BEEPS_LANES_FLOOR (default 4); likewise a "soa" section — the
# collapsed struct-of-arrays engine and the sparse channel against
# their pre-scaling twins — gated at BEEPS_SOA_FLOOR (default 3).
# When the baseline was pinned on different hardware (the config
# block's host_cores / beeps_threads fields differ from this run's),
# the speedup comparison warns instead of failing: cross-machine
# ns/op deltas are provenance, not regressions. Every gated ratio key
# (and its speedup coverage in the pinned baseline) is *required*:
# a benchmark that disappears from a gated section is a hard failure,
# not a silent skip, in both modes. --smoke runs the 1-iteration
# harness instead: it exercises the harness, the comparison plumbing,
# and the required-key checks end to end but skips the numeric
# thresholds, because 1-iteration numbers are noise — that is the mode
# tier1.sh and CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${BEEPS_BENCH_TOLERANCE:-25}"
SMOKE=""
[[ "${1:-}" == "--smoke" ]] && SMOKE="--smoke"

BASELINE=BENCH_hotpaths.json
OUT=target/BENCH_compare.json

# shellcheck disable=SC2086 # SMOKE is intentionally empty or one flag
cargo run --release -q -p beeps-bench --bin bench_hotpaths -- \
  ${SMOKE} --baseline "$BASELINE" --out "$OUT"

# The harness embeds per-benchmark speedups (pinned ns / current ns) as
# a flat "speedup":{"name":float,…} object — the last section of the
# file, with no nested braces.
SPEEDUPS=$(sed -n 's/.*"speedup":{\([^}]*\)}.*/\1/p' "$OUT")
if [[ -z "$SPEEDUPS" ]]; then
  echo "bench_compare: no speedup section in $OUT (is $BASELINE readable?)" >&2
  exit 1
fi

# The lane gate reads the same-run "lanes" section (scalar ns ÷ lane
# ns per scalar benchmark name) — also flat, no nested braces.
LANES_SECTION=$(sed -n 's/.*"lanes":{\([^}]*\)}.*/\1/p' "$OUT")
if [[ -z "$LANES_SECTION" ]]; then
  echo "bench_compare: no lanes section in $OUT (bench_hotpaths too old?)" >&2
  exit 1
fi

# Same shape for the "soa" section: collapsed-engine and sparse-channel
# ratios over their pre-scaling twins, measured within the same run.
SOA_SECTION=$(sed -n 's/.*"soa":{\([^}]*\)}.*/\1/p' "$OUT")
if [[ -z "$SOA_SECTION" ]]; then
  echo "bench_compare: no soa section in $OUT (bench_hotpaths too old?)" >&2
  exit 1
fi

# Every gated ratio the harness is supposed to emit, by section. A
# missing key is a hard failure even in smoke mode: if a benchmark row
# is renamed or dropped, its floor must not silently stop applying.
REQUIRED_LANES=(
  executor.run.correlated
  executor.run.independent
  scheme.repetition.n64
  scheme.rewind
  scheme.hierarchical
  scheme.one_to_zero
)
REQUIRED_SOA=(
  party.soa.scalar.n1e4
  channel.dense.transmit.n1e4
  scheme.repetition.n64
  scheme.rewind.independent
  scheme.hierarchical.independent
  scheme.owned_rounds.independent
)
STATUS=0
for key in "${REQUIRED_LANES[@]}"; do
  if [[ "$LANES_SECTION" != *"\"$key\":"* ]]; then
    echo "bench_compare: required lane ratio '$key' missing from lanes section" >&2
    STATUS=1
  fi
done
for key in "${REQUIRED_SOA[@]}"; do
  if [[ "$SOA_SECTION" != *"\"$key\":"* ]]; then
    echo "bench_compare: required soa ratio '$key' missing from soa section" >&2
    STATUS=1
  fi
done
# The speedup section must cover every gated scalar row too: a gated
# benchmark absent from the pinned baseline would otherwise be
# silently exempt from the regression tolerance.
for key in "${REQUIRED_LANES[@]}" "${REQUIRED_SOA[@]}" channel.lanes.sparse.n1e4 scheme.repetition.soa; do
  if [[ "$SPEEDUPS" != *"\"$key\":"* ]]; then
    echo "bench_compare: '$key' missing from speedup section (not in $BASELINE? re-pin it)" >&2
    STATUS=1
  fi
done
if [[ "$STATUS" != 0 ]]; then
  exit "$STATUS"
fi

# Provenance check, not a gate: if the pinned baseline came from a
# different machine (core count) or thread setting, absolute ns/op are
# not comparable — say so loudly, but let the tolerance gate decide.
host_field() { sed -n "s/.*\"$2\":\"\{0,1\}\([^\",}]*\)\"\{0,1\}[,}].*/\1/p" "$1" | head -n1; }
BASE_CORES=$(host_field "$BASELINE" host_cores)
BASE_THREADS=$(host_field "$BASELINE" beeps_threads)
CUR_CORES=$(host_field "$OUT" host_cores)
CUR_THREADS=$(host_field "$OUT" beeps_threads)
if [[ -z "$BASE_CORES" ]]; then
  echo "bench_compare: WARNING: $BASELINE has no host provenance (host_cores/beeps_threads); speedup deltas may reflect hardware, not code" >&2
elif [[ "$BASE_CORES" != "$CUR_CORES" || "$BASE_THREADS" != "$CUR_THREADS" ]]; then
  echo "bench_compare: WARNING: baseline pinned on host_cores=$BASE_CORES beeps_threads='$BASE_THREADS', this run has host_cores=$CUR_CORES beeps_threads='$CUR_THREADS'; speedup deltas may reflect hardware, not code" >&2
fi

if [[ -n "$SMOKE" ]]; then
  echo "bench_compare: smoke mode — harness, lanes and soa sections, and comparison plumbing OK, thresholds skipped"
  exit 0
fi

FLOOR=$(awk -v t="$TOLERANCE" 'BEGIN { printf "%.4f", 1.0 - t / 100.0 }')
STATUS=0
IFS=',' read -ra ENTRIES <<<"$SPEEDUPS"
for entry in "${ENTRIES[@]}"; do
  name="${entry%%:*}"
  name="${name//\"/}"
  value="${entry##*:}"
  ok=$(awk -v v="$value" -v f="$FLOOR" 'BEGIN { print (v >= f) ? 1 : 0 }')
  if [[ "$ok" != 1 ]]; then
    echo "bench_compare: $name regressed: speedup ${value}x < ${FLOOR}x (tolerance ${TOLERANCE}%)" >&2
    STATUS=1
  fi
done
LANE_FLOOR="${BEEPS_LANES_FLOOR:-4}"
IFS=',' read -ra LANE_ENTRIES <<<"$LANES_SECTION"
for entry in "${LANE_ENTRIES[@]}"; do
  name="${entry%%:*}"
  name="${name//\"/}"
  value="${entry##*:}"
  ok=$(awk -v v="$value" -v f="$LANE_FLOOR" 'BEGIN { print (v >= f) ? 1 : 0 }')
  if [[ "$ok" != 1 ]]; then
    echo "bench_compare: lane engine on $name only ${value}x vs scalar, floor ${LANE_FLOOR}x" >&2
    STATUS=1
  fi
done
SOA_FLOOR="${BEEPS_SOA_FLOOR:-3}"
IFS=',' read -ra SOA_ENTRIES <<<"$SOA_SECTION"
for entry in "${SOA_ENTRIES[@]}"; do
  name="${entry%%:*}"
  name="${name//\"/}"
  value="${entry##*:}"
  ok=$(awk -v v="$value" -v f="$SOA_FLOOR" 'BEGIN { print (v >= f) ? 1 : 0 }')
  if [[ "$ok" != 1 ]]; then
    echo "bench_compare: scaling path on $name only ${value}x vs its twin, floor ${SOA_FLOOR}x" >&2
    STATUS=1
  fi
done

if [[ "$STATUS" == 0 ]]; then
  echo "bench_compare: all benchmarks within ${TOLERANCE}% of $BASELINE; lane ratios >= ${LANE_FLOOR}x; soa ratios >= ${SOA_FLOOR}x"
fi
exit "$STATUS"
