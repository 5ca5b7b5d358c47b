#!/usr/bin/env bash
# Run every request of tools/frontiers.txt under a 20 s timeout and print its
# wall time, then the total wall of those requests and every request slower
# than README's 3 s bound, slowest first (information only: it fails
# nothing).  A request fails when it
# exits nonzero (a timeout included), when its stdout's SHA-256 is not the
# recorded one, or, for `verify`, when the top-level status is not "ok".  A
# `frontier` row fails too unless the same request one degree higher exits 3
# and prints nothing; those refusals are not timed.  Every row is run; the
# exit status is 1 if any failed.  Requests run as the benchmark runs them:
# unbuffered, and writing no bytecode cache.  Run from any directory:
#   bash tools/frontiers.sh [OTHER_CHECKOUT]
# With OTHER_CHECKOUT, a checkout of another commit, every row also runs
# against that checkout's src/, right after or right before this one's,
# alternating which goes first, and is checked there alike.  Each row then
# prints both walls, and the end prints the other side's total and on how
# many rows this checkout was faster: paired walls, taken under the same
# machine load, compare two commits where whole-script totals measure drift.
set -fu
sides=(src)
if (($#)); then
  other=$(cd "$1" && pwd) || exit 2
  sides+=("$other/src")
fi
cd "$(dirname "$0")/.."
base=${PYTHONPATH:+:$PYTHONPATH}
export PYTHONDONTWRITEBYTECODE=1 PYTHONUNBUFFERED=1
out=$(mktemp) && trap 'rm -f "$out"' EXIT
ok='import json, sys; sys.exit(json.load(sys.stdin)["status"] != "ok")'
failed=0
totals=(0 0)
rows=0
faster=0
slow=()
fail() { echo "FAIL: $*${at[side]}"; failed=1; }
# Microseconds since the epoch, whatever the locale's decimal separator.
now() { echo "${EPOCHREALTIME//[.,]/}"; }
seconds() { printf '%d.%03d s\n' $(($1 / 1000000)) $(($1 / 1000 % 1000)); }
# Run the request of the words "$@" against the src/ of $side, stdout to $out.
ask() {
  code=0
  PYTHONPATH=${sides[side]}$base timeout 20 python3 -m qhurwitz "$@" < /dev/null > "$out" || code=$?
}
if ((${#sides[@]} == 1)); then
  at=("")
else
  at=(" (this checkout)" " ($other)")
fi
while read -r digest marker request; do
  [[ -z $digest || $digest == "#"* ]] && continue
  echo "$request"
  order=("${!sides[@]}")
  ((${#sides[@]} == 1 || rows % 2 == 0)) || order=(1 0)
  rows=$((rows + 1))
  walls=()
  for side in "${order[@]}"; do
    start=$(now)
    ask $request
    walls[side]=$(($(now) - start))
    totals[side]=$((totals[side] + walls[side]))
    [[ $code == 0 ]] || fail "exit $code"
    [[ $(sha256sum < "$out") == "$digest  -" ]] || fail "stdout SHA-256 is not $digest"
    [[ $request != verify* ]] || python3 -c "$ok" < "$out" || fail 'status is not "ok"'
  done
  wall=${walls[0]}
  if ((${#sides[@]} == 1)); then
    echo "wall $(seconds $wall)"
  else
    echo "wall $(seconds $wall), other $(seconds ${walls[1]})"
    ((wall >= walls[1])) || faster=$((faster + 1))
  fi
  ((wall <= 3000000)) || slow+=("$wall $request")
  [[ $marker == frontier ]] || continue
  next="${request% *} $((${request##* } + 1))"
  echo "$next"
  for side in "${!sides[@]}"; do
    ask $next
    [[ $code == 3 && ! -s $out ]] || fail "one degree more: exit $code, $(wc -c < "$out") bytes of stdout"
  done
done < tools/frontiers.txt
echo "total wall $(seconds ${totals[0]})"
if ((${#sides[@]} == 2)); then
  echo "other total wall $(seconds ${totals[1]})"
  echo "rows faster: $faster of $rows"
fi
echo "${#slow[@]} requests over 3 s, slowest first"
for row in "${slow[@]}"; do echo "$row"; done | sort -rn | while read -r wall request; do
  echo "$(seconds "$wall") $request"
done
[[ $failed == 0 ]] && echo "every row passes"
exit $failed
