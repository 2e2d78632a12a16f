#!/usr/bin/env bash
# Asserts the pipeline's determinism guarantee at the CLI level: a --jobs 4
# demo run writes byte-identical artifacts and findings output to a --jobs 1
# run, and --trace-json produces a version-2 trace.
# Usage: check_demo_determinism.sh <llhsc-binary>
set -eu

LLHSC="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/serial" "$TMP/parallel"

"$LLHSC" demo --out "$TMP/serial" --jobs 1 > "$TMP/serial.out"
"$LLHSC" demo --out "$TMP/parallel" --jobs 4 \
    --trace-json "$TMP/trace.json" --verbose > "$TMP/parallel.out" \
    2> "$TMP/parallel.err"

diff -r "$TMP/serial" "$TMP/parallel"
# The summary line names the output directory; normalise it before diffing.
sed "s|$TMP/serial|OUT|" "$TMP/serial.out" > "$TMP/serial.norm"
sed "s|$TMP/parallel|OUT|" "$TMP/parallel.out" > "$TMP/parallel.norm"
diff "$TMP/serial.norm" "$TMP/parallel.norm"

grep -q '"jobs": 4' "$TMP/trace.json"
grep -q '"schema_version": 2' "$TMP/trace.json"
grep -q '"stage": "semantic"' "$TMP/trace.json"
# --verbose printed the summary table on stderr.
grep -q 'solver checks' "$TMP/parallel.err"
