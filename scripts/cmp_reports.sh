#!/usr/bin/env bash
# Byte-compare the reports of the working tree with those of a revision.
#
#   scripts/cmp_reports.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, builds it
# (with its own target directory) and the working tree in release mode,
# and runs the same report-producing binaries on both at smoke scale with
# the wall-clock columns off:
#
#   all_figures, fig6, ext_failover, serving, ext_chaos   (COHFREE_JSON)
#   serving again with COHFREE_METRICS on                 (COHFREE_JSON)
#   ext_breakdown with its Chrome trace                   (COHFREE_TRACE)
#
# Every JSON report, trace and stdout is compared with `cmp`; the script
# exits 1 naming the first file that differs (or the first binary that
# exits non-zero, with the tail of its stderr), 0 when all are identical.
# The Prometheus export itself is not compared (it holds host events/s),
# but the metrics-on serving report must also equal the metrics-off one.
#
# TMPDIR chooses where the temporary directory goes. It is removed on
# success and kept, with its path printed, on any failure.
set -euo pipefail

rev=${1:?usage: scripts/cmp_reports.sh <rev>}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/cmp_reports.XXXXXX")
trap 'echo "kept $work" >&2' EXIT

# fail <message>: report a failure and exit 1, keeping $work.
fail() {
    echo "FAIL: $*" >&2
    exit 1
}

mkdir -p "$work/tree" "$work/base" "$work/head"
git -C "$root" archive "$sha" | tar -x -C "$work/tree"

# build <tree> <target dir>
build() {
    echo "building $1" >&2
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --workspace \
        --manifest-path "$1/Cargo.toml"
}

# run <bin dir> <out dir> <name> <binary> [VAR=value...]: run one binary
# with the given extra environment, its stdout and stderr going to
# <out dir>/<name>.{stdout,stderr}; a non-zero exit is a failure.
run() {
    local bin=$1 out=$2 name=$3 b=$4 status=0
    shift 4
    echo "running $name -> $out" >&2
    env "$@" "$bin/$b" >"$out/$name.stdout" 2>"$out/$name.stderr" || status=$?
    if [ "$status" -ne 0 ]; then
        tail -n 20 "$out/$name.stderr" >&2
        fail "$b exited $status on ${out##*/}"
    fi
}

# reports <bin dir> <out dir>
reports() {
    local bin=$1 out=$2 b
    export COHFREE_SCALE=smoke COHFREE_NO_WALLCLOCK=1
    for b in all_figures fig6 ext_failover serving ext_chaos; do
        run "$bin" "$out" "$b" "$b" "COHFREE_JSON=$out/$b.json"
    done
    run "$bin" "$out" serving_metrics serving \
        "COHFREE_METRICS=$out/metrics.prom" "COHFREE_JSON=$out/serving_metrics.json"
    run "$bin" "$out" ext_breakdown ext_breakdown \
        "COHFREE_TRACE=$out/ext_breakdown_trace.json" "COHFREE_JSON=$out/ext_breakdown.json"
}

head_target=${CARGO_TARGET_DIR:-$root/target}
build "$work/tree" "$work/target"
build "$root" "$head_target"
reports "$work/target/release" "$work/base"
reports "$head_target/release" "$work/head"

compared=0
for base in "$work"/base/*.json "$work"/base/*.stdout; do
    f=${base##*/}
    cmp "$base" "$work/head/$f" || fail "$f differs between $rev and the working tree"
    compared=$((compared + 1))
done
cmp "$work/head/serving.json" "$work/head/serving_metrics.json" ||
    fail "serving.json differs with COHFREE_METRICS on"
trap - EXIT
rm -rf "$work"
echo "OK: $compared files byte-identical between $rev ($sha) and the working tree"
