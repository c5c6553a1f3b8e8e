#!/usr/bin/env bash
# Re-pins every exact output of the repository after an intended model
# change, checks the new pins, and prints the pinned cells that moved.
#
#   scripts/repin.sh
#
# 1. Runs the root module's tests with EOLE_UPDATE_GOLDEN=1, so every
#    golden (internal/golden.Check) is rewritten from what the code
#    produces now, and bench's TestPinnedCycles with -update, which
#    rewrites bench/testdata/sim_cycles.json.
# 2. Runs the same tests again without the update path.
# 3. Prints an old -> new table of every pinned cell that moved (bench's
#    cold cells and the sampled cell), from git diff of the pin files.
#
# A file whose output did not move is rewritten with the same bytes, so
# when nothing moved git status stays clean. Exits non-zero when a test
# fails in either pass.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

status=0
echo "== re-pinning" >&2
EOLE_UPDATE_GOLDEN=1 go test -count=1 ./... || status=1
(cd bench && go test -count=1 -run '^TestPinnedCycles$' -update .) || status=1

echo "== checking the new pins" >&2
go test -count=1 ./... || status=1
(cd bench && go test -count=1 -run '^TestPinnedCycles$' .) || status=1

echo "== goldens rewritten" >&2
git --no-pager diff --stat -- '*testdata/*'

echo "== pinned cells that moved" >&2
git diff --no-color -U0 -- bench/testdata/sim_cycles.json testdata/sampled_cell.json | awk '
/^\+\+\+ b\// { file = substr($0, 7); next }
/^[-+] *"[^"]+": *[0-9]+,?$/ {
	sign = substr($0, 1, 1)
	match($0, /"[^"]+"/)
	key = substr($0, RSTART + 1, RLENGTH - 2)
	val = $0
	sub(/.*: */, "", val)
	sub(/,$/, "", val)
	id = file " " key
	if (!(id in seen)) { seen[id] = 1; order[++n] = id }
	if (sign == "-") old[id] = val; else new[id] = val
}
END {
	if (n == 0) { print "no pinned cell moved"; exit }
	printf "%-32s %-24s %10s    %s\n", "file", "cell", "old", "new"
	for (i = 1; i <= n; i++) {
		split(order[i], f, " ")
		printf "%-32s %-24s %10s -> %s\n", f[1], f[2], \
			(order[i] in old) ? old[order[i]] : "-", (order[i] in new) ? new[order[i]] : "-"
	}
}'
exit $status
