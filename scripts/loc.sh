#!/usr/bin/env bash
# Non-test Go line counts, the number every PR states:
#
#   scripts/loc.sh          the work tree (tracked and untracked, not ignored)
#   scripts/loc.sh <ref>    the same, then <ref> and the delta against it
#
# Three columns: every non-test .go file, those outside benchmark/, and the
# latter without blank lines and comment-only lines (so a deletion made of
# comments or reformatting shows as what it is).
set -euo pipefail
cd "$(dirname "$0")/.."

# count reads NUL-separated paths relative to the directory $1.
count() {
	(cd "$1" && xargs -0 awk '
		FNR == 1 { inblock = 0 }
		{
			out = FILENAME !~ /^(\.\/)?benchmark\//
			total++
			if (out) outside++
			line = $0
			sub(/^[ \t]+/, "", line)
			if (inblock) { if (line ~ /\*\//) inblock = 0; next }
			if (line == "" || line ~ /^\/\//) next
			if (line ~ /^\/\*/) { if (line !~ /\*\//) inblock = 1; next }
			if (out) code++
		}
		END { printf "%d %d %d\n", total, outside, code }')
}

# The deleted-but-still-indexed files of an uncommitted deletion are skipped.
tree=$(git ls-files -z -co --exclude-standard -- '*.go' |
	while IFS= read -r -d '' f; do
		case $f in *_test.go) ;; *) [ -f "$f" ] && printf '%s\0' "$f" ;; esac
	done | count .)
read -r t_total t_outside t_code <<<"$tree"
printf '%-12s %8s %18s %26s\n' '' total 'outside benchmark/' 'non-blank non-comment'
printf '%-12s %8d %18d %26d\n' 'work tree' "$t_total" "$t_outside" "$t_code"

if [ $# -ge 1 ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$1" | tar -x -C "$tmp"
	read -r r_total r_outside r_code < <(cd "$tmp" && find . -name '*.go' ! -name '*_test.go' -print0 | count "$tmp")
	printf '%-12s %8d %18d %26d\n' "${1:0:12}" "$r_total" "$r_outside" "$r_code"
	printf '%-12s %+8d %+18d %+26d\n' 'delta' $((t_total - r_total)) $((t_outside - r_outside)) $((t_code - r_code))
fi
