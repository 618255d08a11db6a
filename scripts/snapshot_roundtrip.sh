#!/usr/bin/env bash
# CLI-level snapshot round-trip gate: for each backend, a run restored from
# a mid-run -snapshot must finish with a final snapshot byte-identical to
# the uninterrupted run's. This is the end-to-end version of the
# internal/pop restore tests — it additionally crosses the flag plumbing
# (sweep.Flags' embedded sweep.Trajectory -> sweep.Observe ->
# pop.RunObserved, reached through core.Run for the main pipeline and the
# table harness for the zoo) and the snapshot file codec, and it also
# checks that a -history run emits a readable trajectory stream for both.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/popsim" ./cmd/popsim

N=20000
SEED=7
base=(-protocol main -n "$N" -trials 1 -seed "$SEED")

for backend in seq batch dense; do
  echo "== backend=$backend =="
  # Uninterrupted run, snapshot at the end.
  "$workdir/popsim" "${base[@]}" -backend "$backend" \
    -snapshot "$workdir/final_a.json" >/dev/null
  # Same run, snapshot mid-flight...
  "$workdir/popsim" "${base[@]}" -backend "$backend" \
    -snapshot "$workdir/mid.json" -snapshot-at 20 >/dev/null
  # ...then restore and finish.
  "$workdir/popsim" -protocol main -trials 1 \
    -restore "$workdir/mid.json" -snapshot "$workdir/final_b.json" >/dev/null
  cmp "$workdir/final_a.json" "$workdir/final_b.json"
  echo "restore-then-run byte-identical"
done

# Table-compiled protocol: the same gate through the registry's generic
# table harness (internal/protocol) instead of the core pipeline's
# trajectory plumbing — the declared-table bypass must not perturb the
# schedule across a snapshot/restore boundary on any backend.
for backend in seq batch dense; do
  echo "== protocol=approxmajority backend=$backend =="
  "$workdir/popsim" -protocol approxmajority -n "$N" -trials 1 -seed "$SEED" \
    -backend "$backend" -snapshot "$workdir/am_final_a.json" >/dev/null
  "$workdir/popsim" -protocol approxmajority -n "$N" -trials 1 -seed "$SEED" \
    -backend "$backend" -snapshot "$workdir/am_mid.json" -snapshot-at 4 >/dev/null
  "$workdir/popsim" -protocol approxmajority -trials 1 \
    -restore "$workdir/am_mid.json" -snapshot "$workdir/am_final_b.json" >/dev/null
  cmp "$workdir/am_final_a.json" "$workdir/am_final_b.json"
  echo "restore-then-run byte-identical"
done

# The bypass actually carries the run: the batched backends must resolve
# every interaction from the compiled table, never the rule closure.
if ! "$workdir/popsim" -protocol approxmajority -n "$N" -trials 1 -seed "$SEED" \
    -backend batch -stats | grep -q 'rule=0'; then
  echo "table bypass incomplete: expected rule=0 in -stats output" >&2
  exit 1
fi
echo "table bypass covers the full run (rule=0)"

# History stream, for the core pipeline and the table harness: valid
# JSONL (every line parses), sampled on the Δ grid.
for protocol in main approxmajority; do
  "$workdir/popsim" -protocol "$protocol" -n "$N" -trials 1 -seed "$SEED" \
    -backend batch -history "$workdir/hist.jsonl" -history-dt 5 >/dev/null
  lines=$(wc -l <"$workdir/hist.jsonl")
  if [ "$lines" -lt 3 ]; then
    echo "$protocol history stream has only $lines lines" >&2
    exit 1
  fi
  while IFS= read -r line; do
    case "$line" in
      '{"t":'*'"config":{'*'}'*) ;;
      *) echo "malformed $protocol history line: $line" >&2; exit 1 ;;
    esac
  done <"$workdir/hist.jsonl"
  echo "$protocol history stream: $lines valid JSONL records"
done
