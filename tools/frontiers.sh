#!/usr/bin/env bash
# Run every request of tools/frontiers.txt under a 20 s timeout and print its
# wall time.  A request fails when it exits nonzero (a timeout included),
# when its stdout's SHA-256 is not the recorded one, or, for `verify`, when
# the top-level status is not "ok".  A `frontier` row fails too unless the
# same request one degree higher exits 3 and prints nothing.  Every row is
# run; the exit status is 1 if any failed.  Run from any directory:
#   bash tools/frontiers.sh
set -fu
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
TIMEFORMAT="wall %R s"
out=$(mktemp) && trap 'rm -f "$out"' EXIT
ok='import json, sys; sys.exit(json.load(sys.stdin)["status"] != "ok")'
failed=0
fail() { echo "FAIL: $*"; failed=1; }
while read -r digest marker request; do
  [[ -z $digest || $digest == "#"* ]] && continue
  echo "$request"
  code=0
  time timeout 20 python3 -m qhurwitz $request < /dev/null > "$out" || code=$?
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
[[ $failed == 0 ]] && echo "every row passes"
exit $failed
