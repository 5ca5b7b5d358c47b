"""Print the pinned exit code and stdout SHA-256 of every fixed request.

Usage: python3 bench/pin.py > bench/pins.json

Covers the tau-table and triangle lists, the point-queries lists of the
default and the held-out seed, and the set-up request.  The pins in
pins.json were taken at the commit that defined the benchmark; CLI output
must not change, so they are not meant to be regenerated.
"""

import hashlib
import json

import workloads
from run import SETUP_REQUEST, spawn

requests = [(SETUP_REQUEST, 0)]
for name in workloads.FIXED:
    requests += workloads.requests(name, workloads.DEFAULT_SEED)
for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
    requests += workloads.point_queries(seed)
pins = {}
for argv, expect in requests:
    outcome = spawn(argv, expect)
    if outcome.timed_out or outcome.code != expect:
        raise SystemExit(f"{workloads.key(argv)}: exit {outcome.code}, expected {expect}")
    pins[workloads.key(argv)] = [outcome.code, hashlib.sha256(outcome.stdout).hexdigest()]
print(json.dumps(pins, indent=1, sort_keys=True))
