#!/usr/bin/env bash
# The benchmark as a gate: one quick set (every workload, 5 untraced runs and
# a traced one, 3 s windows) of <base-ref> and one of the work tree, on this
# machine, one after the other, then `benchmark compare base.json head.json`.
# Five runs, not fewer: compare computes a side's spread from four values up,
# and with three it can never call a noisy pair "unresolved".
#
#   scripts/bench-gate.sh <base-ref> <out-dir> [base|head]
#
# The third argument says which side runs its set first (default base); CI
# alternates it with the run number, so whatever the order does to the second
# set does not always fall on the same side. Exit status is compare's: 1 on a
# REGRESSION row or a rise in fail_share, 0 otherwise ("unresolved" rows are
# printed, not failed); a set that cannot be measured or verified fails the
# gate before compare runs. Both result files stay in <out-dir>.
set -euo pipefail
cd "$(dirname "$0")/.."

base=$(git rev-parse --verify "$1^{commit}")
mkdir -p "$2"
out=$(cd "$2" && pwd)
first=${3:-base}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A clone, not an archive: the results file records the commit it measured.
git clone --quiet --no-checkout . "$tmp/base"
git -C "$tmp/base" checkout --quiet --detach "$base"

set_of() { # <side> <dir>
	echo "== bench-gate: $1 set, $(git -C "$2" rev-parse --short HEAD)" >&2
	(cd "$2" && go run ./benchmark -quick -repeat 5 -out "$out/$1.json")
}
if [ "$first" = head ]; then
	set_of head .
	set_of base "$tmp/base"
else
	set_of base "$tmp/base"
	set_of head .
fi

go run ./benchmark compare "$out/base.json" "$out/head.json" | tee "$out/compare.txt"
