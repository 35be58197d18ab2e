#!/usr/bin/env bash
# Fails when any alternative of a -run or -bench pattern of a `go test`
# command in .github/workflows/ci.yml matches nothing in the packages that
# command names, so renaming a test can never silently empty a CI step.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r cmd; do
	pkgs=$(grep -oE '(^| )\.(/[^ ]*)?' <<<"$cmd" | tr -d ' ' | tr '\n' ' ')
	while IFS= read -r pat; do
		[ -n "$pat" ] && [ "$pat" != '^$' ] || continue
		# shellcheck disable=SC2086 # pkgs is a word list
		names=$(go test -list "$pat" $pkgs | grep -vE '^(ok|\?) ' || true)
		for alt in ${pat//|/ }; do
			if ! grep -qE "$alt" <<<"$names"; then
				echo "ci.yml: '$alt' matches no test in: $pkgs" >&2
				status=1
			fi
		done
	done < <(grep -oE -- "-(run|bench) '[^']*'" <<<"$cmd" | sed -E "s/^-(run|bench) '(.*)'\$/\2/")
done < <(grep -E '^ *run: .*go test' .github/workflows/ci.yml | sed -E 's/^ *run: //; s/ && /\n/g')
exit $status
