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
#   bash tools/frontiers.sh
set -fu
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export PYTHONDONTWRITEBYTECODE=1 PYTHONUNBUFFERED=1
out=$(mktemp) && trap 'rm -f "$out"' EXIT
ok='import json, sys; sys.exit(json.load(sys.stdin)["status"] != "ok")'
failed=0
total=0
slow=()
fail() { echo "FAIL: $*"; failed=1; }
# Microseconds since the epoch, whatever the locale's decimal separator.
now() { echo "${EPOCHREALTIME//[.,]/}"; }
seconds() { printf '%d.%03d s\n' $(($1 / 1000000)) $(($1 / 1000 % 1000)); }
while read -r digest marker request; do
  [[ -z $digest || $digest == "#"* ]] && continue
  echo "$request"
  code=0
  start=$(now)
  timeout 20 python3 -m qhurwitz $request < /dev/null > "$out" || code=$?
  wall=$(($(now) - start))
  total=$((total + wall))
  echo "wall $(seconds $wall)"
  ((wall <= 3000000)) || slow+=("$wall $request")
  [[ $code == 0 ]] || fail "exit $code"
  [[ $(sha256sum < "$out") == "$digest  -" ]] || fail "stdout SHA-256 is not $digest"
  [[ $request != verify* ]] || python3 -c "$ok" < "$out" || fail 'status is not "ok"'
  [[ $marker == frontier ]] || continue
  next="${request% *} $((${request##* } + 1))"
  echo "$next"
  code=0
  timeout 20 python3 -m qhurwitz $next < /dev/null > "$out" || code=$?
  [[ $code == 3 && ! -s $out ]] || fail "one degree more: exit $code, $(wc -c < "$out") bytes of stdout"
done < tools/frontiers.txt
echo "total wall $(seconds $total)"
echo "${#slow[@]} requests over 3 s, slowest first"
for row in "${slow[@]}"; do echo "$row"; done | sort -rn | while read -r wall request; do
  echo "$(seconds "$wall") $request"
done
[[ $failed == 0 ]] && echo "every row passes"
exit $failed
