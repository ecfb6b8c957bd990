#!/bin/sh
# Engine benchmark gate: the BenchmarkDES_* and BenchmarkMPISim_*
# benchmarks, plus the paper's two pair sweeps BenchmarkFigure4 and
# BenchmarkFigure5, of a base commit and of the working tree, built side
# by side and run on this machine, compared by scripts/benchdiff. Run via
# `make benchdiff-engine` or the CI benchdiff job:
#
#   ./scripts/benchdiff_engine.sh               # base = HEAD^1
#   BASE=origin/main ./scripts/benchdiff_engine.sh
#
# BASE is checked out into a temporary git worktree, removed on every
# exit. Each side's test binaries are compiled once; then ROUNDS rounds
# run both sides, alternating which goes first, so drift in the machine's
# speed lands on both. benchdiff compares the per-benchmark medians and
# exits 1 when one regresses by more than 10% plus its absolute floor, or
# when the two sides share no benchmark.
set -eu

base=${BASE:-HEAD^1}
rounds=5
bench='^(Benchmark(DES|MPISim)_|BenchmarkFigure[45]$)'
# The engine benchmarks lived in the root package before they moved into
# the packages they measure; listing all three keeps either layout
# comparable. Figs. 4 and 5 are most of a paper regeneration.
pkgs='. ./internal/des ./internal/mpisim ./internal/bench/osu'

root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || {
    echo "benchdiff_engine: cannot resolve BASE=$base (a shallow clone needs fetch-depth 2)" >&2
    exit 1
}
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
git -C "$root" worktree add --detach --quiet "$tmp/base" "$commit"
echo "benchdiff_engine: base $base ($commit) vs the working tree, $rounds rounds"

# build SIDE DIR compiles DIR's copy of each package's tests into
# $tmp/SIDE/, named after the package path.
build() {
    for pkg in $pkgs; do
        (cd "$2" && go test -c -o "$tmp/$1/$(echo "$pkg" | tr ./ __).test" "$pkg")
    done
}
build base "$tmp/base"
build head "$root"
(cd "$root" && go build -o "$tmp/benchdiff" ./scripts/benchdiff)

# run SIDE DIR appends one round of SIDE's gated benchmarks to
# $tmp/SIDE.txt, each binary run from its package directory as go test
# runs it. A failing benchmark fails the gate.
run() {
    for pkg in $pkgs; do
        bin=$tmp/$1/$(echo "$pkg" | tr ./ __).test
        [ -x "$bin" ] || continue # a package without tests on this side
        out=$(cd "$2/$pkg" && "$bin" -test.run '^$' -test.bench "$bench" -test.benchmem -test.timeout 10m) || {
            printf '%s\n' "$out" >&2
            echo "benchdiff_engine: $1 benchmarks of $pkg failed" >&2
            exit 1
        }
        printf '%s\n' "$out" | grep '^Benchmark' | tee -a "$tmp/$1.txt" | sed "s/^/  $1 /" || true
    done
}
i=1
while [ "$i" -le "$rounds" ]; do
    echo "benchdiff_engine: round $i/$rounds"
    if [ $((i % 2)) -eq 1 ]; then
        run base "$tmp/base"
        run head "$root"
    else
        run head "$root"
        run base "$tmp/base"
    fi
    i=$((i + 1))
done
touch "$tmp/base.txt" "$tmp/head.txt"
"$tmp/benchdiff" "$tmp/base.txt" "$tmp/head.txt"
