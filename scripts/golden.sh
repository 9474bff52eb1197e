#!/usr/bin/env bash
# Golden-output gate for one deterministic bench command: runs it, writes
# its stdout to OUT and compares OUT byte for byte with the committed GOLDEN.
# Fails when the command exits non-zero (the benches' self-gates abort) and
# when the output differs, printing `diff -u GOLDEN OUT`. stderr (wall-clock
# timings) goes unchecked to OUT.stderr and is shown only when the command
# fails.
#
# Usage: scripts/golden.sh GOLDEN OUT COMMAND [ARGS...]
#
# The golden_* ctests (bench/CMakeLists.txt) and scripts/check.sh --scale
# run it. To accept an intended change: cp OUT GOLDEN.
set -uo pipefail

golden="$1" out="$2"
shift 2
mkdir -p "$(dirname "$out")"
if ! "$@" >"$out" 2>"$out.stderr"; then
  cat "$out.stderr" >&2
  echo "golden FAILED: '$*' exited non-zero" >&2
  exit 1
fi
if ! diff -u "$golden" "$out"; then
  echo "golden FAILED: stdout of '$*' differs from $golden" >&2
  echo "if the change is intended: cp $out $golden" >&2
  exit 1
fi
