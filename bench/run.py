"""End-to-end and per-layer benchmark of the qhurwitz CLI.

Usage (from the root of a checkout; stdlib only):

    python3 bench/run.py [--workload tau-table|triangle|point-queries|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each request is a real ``python -m qhurwitz ...`` process, run against the
checkout's ``src/``.  The load is a closed loop with one client: a request
starts only after the previous one has exited, so at most one runs at a time.
Workloads and their request lists are in ``workloads.py``.

A run first measures set-up (``setup_s``: interpreter start, import and
parser build, as the median wall time of a trivial request), then makes a
fixed number of passes (``PASSES_AT_25_S``) over the workload's request list, and
checks every output after its pass: exit code and stdout SHA-256 against
``pins.json`` where the request is pinned, exit code and record shape where it
is not.  A request that fails a check, or is killed at its timeout, counts as
failed.

Times are reported at a reference CPU speed; see ``Outcome.speed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one, in which ``traced.py`` times the calls into
every layer from inside each request process, and reports per-layer self
times and counts, and the tracing overhead (traced minus untraced pass wall).

Every metric is printed by name, with its unit and sample count; the whole
result, with the run environment and every request, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: A request running longer than this is killed and counted as failed.
REQUEST_TIMEOUT_S = 60.0
#: Trivial requests timed for setup_s; one more before them warms the caches.
SETUP_REQUEST = ("chartable", "--n", "1")
SETUP_SAMPLES = 7
#: Time of probe() at the reference CPU speed.
PROBE_REFERENCE_S = 0.0113
#: A run starts no new pass once this many times --seconds have passed.
OVERRUN_FACTOR = 4
#: End-to-end metrics of the final JSON line.  failed_ratio, zero when all is
#: well, is printed above it and is that line's failed / attempted.
END_TO_END = ("wall_s", "values_per_s", "request_s_p50", "request_s_tail", "setup_s", "peak_rss_mb")


def probe() -> float:
    """Time a fixed pure-Python integer loop in this process, in seconds."""
    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k
    return time.perf_counter() - start


class Outcome:
    """One finished request: its argv, what it printed and how long it ran."""

    def __init__(self, argv, expect, wall_s, code, stdout, stderr, maxrss_mb, timed_out):
        self.argv = argv
        self.expect = expect
        self.wall_s = wall_s
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_mb = maxrss_mb
        self.timed_out = timed_out
        self.probes: list[float] = []
        self.values = 0
        self.error = None
        self.pinned = False
        self.trace = None

    @property
    def speed(self) -> float:
        """PROBE_REFERENCE_S / mean of the probes run just before and after.

        The CPU speed of a shared machine drifts: by up to 1.5x, over seconds
        to minutes, on the 2-CPU Xeon this benchmark was defined on, and every
        request slows with it.  probe() runs in the benchmark's own process
        while no request runs, so the program cannot change its time.
        Multiplying a request's times by this factor reports them at the
        reference speed; the result file keeps the raw times too.
        """
        return PROBE_REFERENCE_S / statistics.mean(self.probes)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


def spawn(argv, expect=0, trace_prefix=None) -> Outcome:
    """Run one request in a fresh process and wait for it to exit."""
    if trace_prefix is None:
        command = [sys.executable, "-m", "qhurwitz", *argv]
    else:
        command = [sys.executable, str(BENCH / "traced.py"), str(trace_prefix), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
    timer.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        # wait4 instead of Popen.wait, to read the child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no request running behind.
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(argv, expect, wall, proc.returncode, stdout, stderr[0],
                   usage.ru_maxrss / 1024, killed.is_set())


def check(outcome: Outcome, pins: dict) -> None:
    """Set outcome.error (None when correct) and outcome.values."""
    pin = pins.get(workloads.key(outcome.argv))
    outcome.pinned = pin is not None
    if outcome.timed_out:
        outcome.error = f"killed after {REQUEST_TIMEOUT_S:.0f} s"
        return
    expected_code = pin[0] if pin else outcome.expect
    if outcome.code != expected_code:
        outcome.error = f"exit {outcome.code}, expected {expected_code}: {outcome.stderr[-300:]!r}"
        return
    if pin and hashlib.sha256(outcome.stdout).hexdigest() != pin[1]:
        outcome.error = "stdout differs from the pinned digest"
        return
    if outcome.code == 3:
        if outcome.stdout or not outcome.stderr.startswith(b"error: "):
            outcome.error = "a refusal prints nothing on stdout and one error line on stderr"
        return
    try:
        outcome.values = workloads.count_values(outcome.argv, outcome.stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        outcome.error = f"output shape: {exc}"


def check_pass(outcomes: list[Outcome], pins: dict) -> None:
    """Check each output, then that geometric and combinatorial values agree."""
    for outcome in outcomes:
        check(outcome, pins)
    by_arguments: dict[tuple, list[Outcome]] = {}
    for outcome in outcomes:
        if outcome.argv[0] == "compute" and outcome.argv[1] != "tau" and outcome.error is None:
            by_arguments.setdefault(outcome.argv[2:], []).append(outcome)
    for group in by_arguments.values():
        if len({json.loads(o.stdout)["value"] for o in group}) > 1:
            for outcome in group:
                outcome.error = "geometric and combinatorial values differ"


class Run:
    """Requests of one benchmark run, each between two probe() times."""

    def __init__(self, pins: dict):
        self.pins = pins

    def sequence(self, request_list, trace_dir=None, pass_index=0) -> list[Outcome]:
        outcomes = []
        before = probe()
        for index, (argv, expect) in enumerate(request_list):
            prefix = None if trace_dir is None else trace_dir / f"p{pass_index}-r{index}"
            outcome = spawn(argv, expect, prefix)
            after = probe()
            outcome.probes = [before, after]
            before = after
            outcomes.append(outcome)
        return outcomes

    def setup(self) -> list[Outcome]:
        """SETUP_SAMPLES trivial requests, after one that warms caches."""
        outcomes = self.sequence([(SETUP_REQUEST, 0)] * (SETUP_SAMPLES + 1))[1:]
        for outcome in outcomes:
            check(outcome, self.pins)
            if outcome.error:
                raise SystemExit(f"set-up request failed: {outcome.error}")
        return outcomes

    def one_pass(self, request_list, trace_dir=None, pass_index=0) -> list[Outcome]:
        outcomes = self.sequence(request_list, trace_dir, pass_index)
        check_pass(outcomes, self.pins)
        if trace_dir is not None:
            for index, outcome in enumerate(outcomes):
                if outcome.error is None:
                    summary = trace_dir / f"p{pass_index}-r{index}.json"
                    try:
                        outcome.trace = json.loads(summary.read_text())
                    except (OSError, ValueError) as exc:
                        outcome.error = f"no trace summary: {exc}"
        return outcomes


# --------------------------------------------------------------------------
# metrics


def pass_wall(outcomes: list[Outcome]) -> float:
    """Wall of one pass: the sum of its requests' walls, spawn to exit."""
    return sum(o.scaled_s for o in outcomes)


def request_medians(passes: list[list[Outcome]]) -> list[float]:
    """Each request of the list at its median wall over the passes."""
    return [statistics.median(p[i].scaled_s for p in passes) for i in range(len(passes[0]))]


def tail(passes: list[list[Outcome]]) -> tuple[float, str]:
    """Highest percentile of request wall with at least ten samples beyond it.

    Returns the time and what it is.  With 20 samples or fewer no percentile
    above the median has ten beyond it; the tail is then the median wall of
    the slowest request of the list, which one sample cannot move.
    """
    ordered = sorted(o.scaled_s for outcomes in passes for o in outcomes)
    if len(ordered) > 20:
        percentile = math.floor(100 * (len(ordered) - 10) / len(ordered))
        return ordered[-11], f"p{percentile} request wall"
    return max(request_medians(passes)), "median wall of the slowest request (too few samples)"


def end_to_end(passes: list[list[Outcome]], setup: list[Outcome]) -> dict:
    walls = [pass_wall(outcomes) for outcomes in passes]
    values = [sum(o.values for o in outcomes) for outcomes in passes]
    requests = [o for outcomes in passes for o in outcomes]
    tail_value, tail_note = tail(passes)
    attempted = len(requests)
    failed = sum(1 for o in requests if o.error)
    return {
        "wall_s": (statistics.median(walls), "s", len(walls), "median pass wall"),
        "values_per_s": (statistics.median(v / w for v, w in zip(values, walls)), "1/s",
                         len(walls), f"{values[0]} values per pass"),
        # The pooled median of a list like tau-table's (two requests, 2 s and
        # 6 s) falls in the gap between them and swings with one sample.
        "request_s_p50": (statistics.median(request_medians(passes)), "s", attempted,
                          "median over the list of each request's median wall"),
        "request_s_tail": (tail_value, "s", attempted, tail_note),
        "setup_s": (statistics.median(o.scaled_s for o in setup), "s", len(setup),
                    " ".join(SETUP_REQUEST)),
        "peak_rss_mb": (max(o.maxrss_mb for o in requests), "MB", attempted,
                        "largest ru_maxrss of a request"),
        "failed_ratio": (failed / attempted, "ratio", attempted, "failed / attempted"),
    }


#: Per-layer metrics reported with --trace 1, and their units.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "characters.table_s": "s",
    "characters.table_builds": "count",
    "characters.border_strip_evals": "count",
    "tau.spectral_s": "s",
    "tau.content_coeffs_s": "s",
    "tau.content_coeffs_calls": "count",
    "tau.verify_self_s": "s",
    "tau.entries_emitted_ratio": "ratio",
    "qweights.symmetrized_weight_s": "s",
    "qweights.symmetrized_weight_calls": "count",
    "qweights.symmetrized_weight_distinct_ratio": "ratio",
    "qweights.weight_coefficient_s": "s",
    "qweights.weight_coefficient_calls": "count",
    "geometric.self_s": "s",
    "geometric.values": "count",
    "geometric.frobenius_s": "s",
    "geometric.frobenius_calls": "count",
    "geometric.frobenius_hit_ratio": "ratio",
    "combinatorial.self_s": "s",
    "combinatorial.transfer_s": "s",
    "combinatorial.transfer_calls": "count",
    "combinatorial.matmul_s": "s",
    "combinatorial.matmul_calls": "count",
    "combinatorial.path_counts_s": "s",
    "sn.group_build_s": "s",
    "trace.main_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _self(trace: dict, *names: str) -> float:
    return sum(trace["names"].get(n, {}).get("self_s", 0.0) for n in names)


def _calls(trace: dict, *names: str) -> int:
    return sum(trace["names"].get(n, {}).get("calls", 0) for n in names)


def _layer_self(trace: dict, layer: str) -> float:
    return sum(v["self_s"] for n, v in trace["names"].items() if n.split(".")[0] == layer)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_figures(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass, summed over its requests."""
    total: dict[str, float] = {}

    def add(name, value):
        total[name] = total.get(name, 0) + value

    for o in outcomes:
        t = o.trace
        if t is None:
            continue
        caches = t["caches"]
        times = {
            "cli.import_s": t["import_s"],
            "cli.self_s": _layer_self(t, "cli"),
            "characters.table_s": _layer_self(t, "characters"),
            "tau.spectral_s": _self(t, "tau.tau_coefficients"),
            "tau.content_coeffs_s": _self(t, "tau.content_product_coeffs", "tau.species_content_coeffs"),
            "tau.verify_self_s": _self(t, "tau.verify_triangle"),
            "qweights.symmetrized_weight_s": _self(t, "qweights.symmetrized_weight"),
            "qweights.weight_coefficient_s": _self(t, "qweights.weight_coefficient"),
            "geometric.self_s": _layer_self(t, "geometric"),
            "geometric.frobenius_s": _self(t, "geometric.frobenius_hurwitz"),
            "combinatorial.self_s": _layer_self(t, "combinatorial"),
            "combinatorial.transfer_s": _self(t, "combinatorial.transfer_matrix"),
            "combinatorial.matmul_s": _self(t, "combinatorial.TransferMatrix.__matmul__"),
            "combinatorial.path_counts_s": _self(t, "combinatorial.path_counts"),
            "sn.group_build_s": _layer_self(t, "sn"),
            "trace.main_s": t["main_s"],
        }
        for name, seconds in times.items():
            add(name, seconds * o.speed)
        add("characters.table_builds", caches["characters.character_table"]["misses"])
        add("characters.border_strip_evals", caches["characters._border_strip_character"]["misses"])
        add("tau.content_coeffs_calls", _calls(t, "tau.content_product_coeffs", "tau.species_content_coeffs"))
        add("tau.entries_computed", t["tau_entries"])
        add("tau.entries_emitted", o.values if t["tau_entries"] else 0)
        add("qweights.symmetrized_weight_calls", _calls(t, "qweights.symmetrized_weight"))
        add("qweights.symmetrized_weight_keys", t["weight_keys"])
        add("qweights.weight_coefficient_calls", _calls(t, "qweights.weight_coefficient"))
        add("geometric.values", _calls(t, "geometric.multispecies_hurwitz_number"))
        add("geometric.frobenius_calls", _calls(t, "geometric.frobenius_hurwitz"))
        add("geometric.frobenius_hits", caches["geometric.frobenius_hurwitz"]["hits"])
        add("combinatorial.transfer_calls", _calls(t, "combinatorial.transfer_matrix"))
        add("combinatorial.matmul_calls", _calls(t, "combinatorial.TransferMatrix.__matmul__"))
    add("cli.bytes_out", sum(len(o.stdout) for o in outcomes))
    figures = {name: total.get(name, 0) for name in PER_LAYER}
    figures["tau.entries_emitted_ratio"] = _ratio(total.get("tau.entries_emitted", 0),
                                                  total.get("tau.entries_computed", 0))
    figures["qweights.symmetrized_weight_distinct_ratio"] = _ratio(
        total.get("qweights.symmetrized_weight_keys", 0),
        total.get("qweights.symmetrized_weight_calls", 0))
    figures["geometric.frobenius_hit_ratio"] = _ratio(total.get("geometric.frobenius_hits", 0),
                                                      total.get("geometric.frobenius_calls", 0))
    return figures


def per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]]) -> dict:
    figures = [layer_figures(outcomes) for outcomes in traced]
    metrics = {
        name: (statistics.median(f[name] for f in figures), unit, len(figures),
               "per pass, median over traced passes")
        for name, unit in PER_LAYER.items() if not name.startswith("trace.overhead")
    }
    plain = statistics.median(pass_wall(outcomes) for outcomes in untraced)
    overhead = statistics.median(pass_wall(outcomes) for outcomes in traced) - plain
    metrics["trace.overhead_s"] = (overhead, "s", len(traced), "traced minus untraced pass wall")
    metrics["trace.overhead_ratio"] = (overhead / plain, "ratio", len(traced),
                                       "overhead / untraced pass wall")
    return metrics


def partition_error(outcomes: list[Outcome]) -> float:
    """Largest gap between a request's traced cli.main time and its layer self times."""
    gaps = [abs(sum(v["self_s"] for v in o.trace["names"].values()) - o.trace["main_s"])
            for o in outcomes if o.trace is not None]
    return max(gaps, default=0.0)


# --------------------------------------------------------------------------
# run environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qhurwitz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------------------
# running a workload


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(json.loads((BENCH / "pins.json").read_text()))
    request_list = workloads.requests(workload, seed)
    pass_count = max(1, round(workloads.PASSES_AT_25_S[workload] * seconds / 25))
    deadline = time.perf_counter() + OVERRUN_FACTOR * seconds
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "requests": [{"argv": list(argv), "expect": expect} for argv, expect in request_list],
        "loadavg_before": os.getloadavg(),
    }
    setup = run.setup()
    untraced, traced = [], []
    if trace:
        for old in (OUT / "trace").glob(f"{workload}-seed*"):
            shutil.rmtree(old)
        trace_dir = OUT / "trace" / f"{workload}-seed{seed}"
        trace_dir.mkdir(parents=True)
        # One untraced and one traced pass per step, so both see the same load.
        for index in range(max(1, pass_count // 2)):
            if index and time.perf_counter() > deadline:
                break
            untraced.append(run.one_pass(request_list))
            traced.append(run.one_pass(request_list, trace_dir, index))
    else:
        for index in range(pass_count):
            if index and time.perf_counter() > deadline:
                break
            untraced.append(run.one_pass(request_list))
    result["loadavg_after"] = os.getloadavg()

    all_outcomes = [o for outcomes in untraced + traced for o in outcomes]
    failures = [o for o in all_outcomes if o.error]
    if trace:
        metrics = per_layer(untraced, traced)
        result["partition_error_s"] = max(partition_error(outcomes) for outcomes in traced)
        correct = not failures and result["partition_error_s"] < 1e-6
    else:
        metrics = end_to_end(untraced, setup)
        correct = not failures
    result["metrics"] = {
        name: {"value": value, "unit": unit, "samples": samples, "note": note}
        for name, (value, unit, samples, note) in metrics.items()
    }
    result["outcomes"] = [
        {"argv": list(o.argv), "wall_s": o.wall_s, "speed": o.speed, "probes_s": o.probes,
         "exit": o.code, "maxrss_mb": o.maxrss_mb,
         "stdout_sha256": hashlib.sha256(o.stdout).hexdigest(), "pinned": o.pinned,
         "values": o.values, "traced": o.trace is not None, "error": o.error}
        for o in setup + all_outcomes
    ]
    result["speed_median"] = statistics.median(o.speed for o in setup + all_outcomes)
    result["correct"] = correct
    result["attempted"] = len(all_outcomes)
    result["failed"] = len(failures)
    return result


def report(result: dict, out_file: Path) -> None:
    env = result["environment"]
    print(f"# {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"python={env['python']}  nproc={env['nproc']}  cpu={env['cpu_model']!r}")
    print(f"# commit={env['git_commit']}  src sha256={env['source_sha256'][:16]}  "
          f"loadavg before={result['loadavg_before']} after={result['loadavg_after']}")
    print(f"# times are at the reference speed: raw request times were multiplied by a "
          f"median factor of {result['speed_median']:.4f}")
    print(f"# {len(result['requests'])} requests per pass:")
    for request in result["requests"]:
        print(f"#   [exit {request['expect']}] {workloads.key(request['argv'])}")
    checked = result["outcomes"][SETUP_SAMPLES:]
    pinned = sum(1 for o in checked if o["pinned"])
    print(f"# outputs checked: {len(checked)} ({pinned} pinned, {len(checked) - pinned} unpinned),"
          f" failed: {result['failed']}")
    for outcome in checked:
        if outcome["error"]:
            print(f"# FAILED {workloads.key(outcome['argv'])}: {outcome['error']}")
    if "partition_error_s" in result:
        print(f"# largest |cli.main - sum of layer self times| = {result['partition_error_s']:.3g} s")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:14s} {name:44s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['samples']:<5d} {m['note']}")
    print(f"# full result: {out_file.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qhurwitz" / "__init__.py").is_file():
        print(f"error: no qhurwitz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    wanted = PER_LAYER if args.trace else END_TO_END
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out_file = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=1))
        report(result, out_file)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {metric: {"value": m["value"], "unit": m["unit"]}
                        for metric, m in result["metrics"].items() if metric in wanted},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
