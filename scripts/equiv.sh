#!/usr/bin/env bash
# Virtual-time equivalence of the working tree against a base revision.
# Builds perfbench at BASE_REV (exported with `git archive` into a temporary
# directory) and at the working tree, runs the three BENCHMARK.json workloads
# x seeds 1-3 for a fixed 6 steps with tracing on, and compares each pair's
# trace byte for byte and every non-host value of its JSON (host times,
# calibration runs and peak RSS are left out). Prints one line per pair and
# exits non-zero on any difference. The temporary directory is removed.
#
# Usage: scripts/equiv.sh BASE_REV
#
# Moved bench rows need no script: `git diff BASE_REV -- tests/golden`.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
base_rev="$(git rev-parse --verify "$1^{commit}")"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
workloads=(ps-inception-8 allreduce-auto-1000 ps-vgg16-congested-16)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

build() {  # SOURCE_ROOT BUILD_DIR
  cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$2" --target perfbench -j "$jobs" >/dev/null
}
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"
echo "building perfbench at ${base_rev:0:12} and at the working tree" >&2
build "$tmp/base" "$tmp/base-build"
build "$PWD" "$tmp/head-build"

status=0
for workload in "${workloads[@]}"; do
  for seed in 1 2 3; do
    for side in base head; do
      "$tmp/$side-build/perfbench" --workload "$workload" --seed "$seed" \
        --setup-reps 1 --steps 6 --trace-out "$tmp/$side.trace" >"$tmp/$side.json"
    done
    if ! python3 - "$tmp" "$workload seed $seed" <<'EOF'; then status=1; fi
import json, sys

# Values that measure the host rather than the model.
HOST_KEYS = {"setup_s", "construct_s", "warmup_s", "step_host_s", "setup_calibration_s",
             "calibration_s", "window_host_s", "peak_rss_mb", "calibration_sink"}


def flatten(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in HOST_KEYS:
                flatten(item, f"{path}.{key}" if path else key, out)
    else:
        out[path] = value
    return out


tmp, label = sys.argv[1], sys.argv[2]
with open(f"{tmp}/base.json") as f:
    base = flatten(json.load(f), "", {})
with open(f"{tmp}/head.json") as f:
    head = flatten(json.load(f), "", {})
with open(f"{tmp}/base.trace", "rb") as f:
    base_trace = f.read()
with open(f"{tmp}/head.trace", "rb") as f:
    head_trace = f.read()
moved = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
trace_same = base_trace == head_trace
if trace_same and not moved:
    print(f"{label}: identical (trace {len(head_trace)} bytes, {len(head)} values)")
    sys.exit(0)
detail = [] if trace_same else ["trace differs"]
detail += [f"{k}: {base.get(k)} -> {head.get(k)}" for k in moved[:10]]
print(f"{label}: DIFFERENT ({len(moved)} values): " + "; ".join(detail))
sys.exit(1)
EOF
  done
done
exit "$status"
