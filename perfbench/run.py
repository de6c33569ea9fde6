"""Benchmark of the semwalk CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Each request is one ``semwalk.cli.main(argv)`` call with stdout and stderr
captured, sent only after the previous one has returned.  The workloads:

  census   lattice census -g 3 -k 2 --carrier-bound 9
  analyze  rc/walk/graph commands on a seeded corpus of congruences
  walk     walk stationary on the de Bruijn code of A^8 and seeded codes,
           and walk simulate, 10^6 steps, on two fixed codes and seeds

With ``--trace 0`` the run repeats the workload's request list for at least
``--seconds`` and at least three times, with the host-speed probe of
``probe.py`` running in between the program's steps, and reports end-to-end
metrics in reference seconds, taken as medians.  With ``--trace 1`` it sends
the list untraced, traced with every layer wrapped by ``spans.Tracer``, and
untraced again, and reports per-layer counts and self times.  The run
re-executes itself once with PYTHONHASHSEED set to the workload seed.  Every output
is checked against ``oracle``; the last stdout line is the JSON result, and
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 25
WORKLOADS = ("census", "analyze", "walk")
# A measured run sends the request list at least this often, so that its
# throughput is a median of passes, not the time of a single one.
MIN_PASSES = 3

# Per-layer metrics: a name gives ``<name>.calls`` and ``<name>.self_s``.
CALLS_AND_SELF = (
    "words.product", "words.is_suffix",
    "congruences.validate", "congruences.generate", "congruences.join", "congruences.meet",
    "congruences.RightCongruence.refines",
    "codes.reset_code", "codes.lambda_of", "codes.tau_of", "codes.is_special", "codes.IdealRep.init",
    "codes.code_action",
    "walks.TransitionMatrix.left_apply", "walks.lumped", "walks.reset_profile",
    "graphs.cayley", "graphs.to_dot",
    "cli.main",
)
SELF_ONLY = ("congruences.lattice_report", "walks.transition_matrix", "walks.stationary", "walks.simulate")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["congruences.enumerate_all.s"] = "s"
    units["congruences.enumerate_all.kept_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "req_per_ref_s": "1/s", "p50_ref_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


# ------------------------------------------------------------------ setup


def import_program():
    """Import semwalk afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "semwalk" or n.startswith("semwalk.")]:
        del sys.modules[name]
    cli = importlib.import_module("semwalk.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported semwalk from {cli.__file__}, not from {SRC}")
    return cli


def make_requests(workload: str, seed: int, directory: Path) -> list[dict]:
    import checks
    import inputs

    if workload == "census":
        return [{"op": "lattice census", "argv": list(checks.CENSUS_ARGV)}]
    if workload == "analyze":
        return inputs.analyze_corpus(seed, directory)
    return inputs.stationary_inputs(seed, directory) + inputs.simulate_inputs(directory)


def setup(workload: str, seed: int, scratch: Path):
    """Write the inputs, then import the program several times, each after
    one host-speed probe; the last import is the one used.  Only the imports
    are timed: the inputs are the benchmark's own work, not the program's.
    Returns (cli, requests, median import time in reference seconds)."""
    directory = scratch / "inputs"
    directory.mkdir()
    requests = make_requests(workload, seed, directory)
    probe = Probe()
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = perf_counter()
        cli = import_program()
        times.append(perf_counter() - t0)
    return cli, requests, statistics.median(times) * probe.scale(probe.starts[0], perf_counter())


# --------------------------------------------------------------- requests


def send(cli, argv: list[str], probe: Probe | None = None) -> tuple[int | None, str, str, float]:
    """One request: (exit code or None on a crash, stdout, stderr, seconds).
    Time spent in ``probe`` while the request ran is not counted."""
    out, err = io.StringIO(), io.StringIO()
    probe_s = probe.total_s if probe else 0.0
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
        err.write(traceback.format_exc())
    dt = perf_counter() - t0
    if probe:
        dt -= probe.total_s - probe_s
    return code, out.getvalue(), err.getvalue(), dt


def check(workload: str, req: dict, code, out: str, err: str) -> str | None:
    import checks

    try:
        if workload == "census":
            return checks.check_census(code, out, err)
        if workload == "analyze":
            return checks.check_analyze(req, code, out, err)
        if req["op"] == "walk stationary":
            return checks.check_stationary(req, code, out, err)
        return checks.check_simulation(req, code, out, err)
    except Exception as e:  # a malformed output must count as a failure, not crash the run
        return f"{req['op']}: check raised {type(e).__name__}: {e}"


class Outcomes:
    """Checks every distinct request's first output against the oracle and
    every repeat against that first output, byte for byte."""

    def __init__(self, workload: str, requests: list[dict]):
        self.workload = workload
        self.requests = requests
        self.first: dict[int, tuple] = {}  # request index -> (exit code, stdout)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, i: int, code, out: str, err: str) -> None:
        self.attempted += 1
        if i not in self.first:
            self.first[i] = (code, out)
            reason = check(self.workload, self.requests[i], code, out, err)
        elif self.first[i] != (code, out):
            reason = f"{self.requests[i]['op']}: output differs from the same request's earlier output"
        else:
            reason = None
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def run_pass(cli, requests, outcomes: Outcomes, probe: Probe | None = None):
    """Send every request once; outputs are checked after the clock stops.
    Returns the pass's seconds and, per request, (seconds, start, end):
    seconds without the time spent in ``probe``, start and end as read from
    the clock."""
    results, timings = [], []
    probe_s = probe.total_s if probe else 0.0
    t0 = perf_counter()
    for req in requests:
        start = perf_counter()
        *result, dt = send(cli, req["argv"], probe)
        results.append(result)
        timings.append((dt, start, perf_counter()))
    wall = perf_counter() - t0
    if probe:
        wall -= probe.total_s - probe_s
    for i, (code, out, err) in enumerate(results):
        outcomes.record(i, code, out, err)
    return wall, timings


# --------------------------------------------------------------- measured


def measure(workload: str, cli, requests, seconds: float, outcomes: Outcomes) -> dict:
    if workload == "analyze":
        # Send each kind of request once first, so first-call costs stay out.
        seen = set()
        for req in requests:
            if req["op"] not in seen:
                seen.add(req["op"])
                send(cli, req["argv"])
    wall_passes: list[float] = []
    timings = []
    probe = Probe()
    with probe:
        while sum(wall_passes) < seconds or len(wall_passes) < MIN_PASSES:
            probe.sample()  # at least one probe in every pass, however short
            wall, pass_timings = run_pass(cli, requests, outcomes, probe)
            wall_passes.append(wall)
            timings.append(pass_timings)
    # Each request's seconds in reference seconds, scaled by the probes that
    # ran while it did or, for a short request, nearest to it (see probe.py).
    per_pass = [[dt * probe.scale(start, end) for dt, start, end in pass_timings] for pass_timings in timings]
    passes = [sum(lat) for lat in per_pass]
    latencies = [dt for lat in per_pass for dt in lat]
    wall_latencies = [dt for pass_timings in timings for dt, _, _ in pass_timings]
    pass_median_s = statistics.median(passes)
    summary = {
        "requests": len(latencies),
        "passes": len(passes),
        "pass_ref_s": passes,
        "pass_wall_s": wall_passes,
        "probes": len(probe.durations),
        "probe_median_ms": 1000 * statistics.median(probe.durations),
        "req_per_ref_s": len(requests) / pass_median_s,
        "p50_ref_ms": 1000 * statistics.median(latencies),
        "wall_req_per_s": len(requests) / statistics.median(wall_passes),
        "wall_p50_ms": 1000 * statistics.median(wall_latencies),
    }
    if len(latencies) >= 1000:
        summary["p99_ref_ms"] = 1000 * statistics.quantiles(latencies, n=100)[98]
    if workload == "walk":
        import inputs

        stationary = [i for i, req in enumerate(requests) if req["op"] == "walk stationary"]
        simulate = [i for i, req in enumerate(requests) if req["op"] == "walk simulate"]
        summary["stationary_ref_s"] = statistics.median(sum(lat[i] for i in stationary) for lat in per_pass)
        summary["sim_steps_per_ref_s"] = inputs.SIM_STEPS / statistics.median(
            lat[i] for lat in per_pass for i in simulate)
    return summary


# ----------------------------------------------------------------- traced


def traced(cli, requests, outcomes: Outcomes):
    """Send the request list untraced, traced, and untraced again; returns
    the per-layer metrics and the tracer holding the spans."""
    import spans

    before_s, _ = run_pass(cli, requests, outcomes)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s, _ = run_pass(cli, requests, outcomes)
    finally:
        tracer.uninstall()
    after_s, _ = run_pass(cli, requests, outcomes)

    metrics = {}
    for name in CALLS_AND_SELF + SELF_ONLY:
        if name not in tracer.names:
            print(f"warning: layer {name} is not in the program; reporting 0", flush=True)
        calls, self_s = tracer.totals(name)
        if name in CALLS_AND_SELF:
            metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    metrics["congruences.enumerate_all.s"] = tracer.inclusive_s("congruences.enumerate_all")
    tried = tracer.child_spans("congruences.enumerate_all", "congruences.validate")
    kept = sum(1 for i in tried if not tracer.raised[i])
    metrics["congruences.enumerate_all.kept_ratio"] = kept / len(tried) if tried else 0.0
    metrics["trace.spans"] = tracer.span_count
    metrics["trace.overhead_s"] = traced_s - (before_s + after_s) / 2
    return metrics, tracer


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Set iteration order, and with it how far the program's short-circuit
    # scans run, depends on the hash seed.  Tie it to the workload seed so
    # that one seed always does the same work and counts the same calls.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": hash_seed})
    if not (SRC / "semwalk" / "cli.py").is_file():
        print(f"error: no semwalk sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cli, requests, setup_s = setup(args.workload, args.seed, scratch)
        outcomes = Outcomes(args.workload, requests)
        if args.trace:
            metrics, tracer = traced(cli, requests, outcomes)
            units = per_layer_units()
            index = tracer.write(OUT / "traces", f"{args.workload}-seed{args.seed}")
            print(f"spans: {tracer.span_count} written to {index.relative_to(ROOT)}")
        else:
            summary = measure(args.workload, cli, requests, args.seconds, outcomes)
            print("summary: " + json.dumps(summary, sort_keys=True))
            metrics = {
                "setup_s": setup_s,
                "req_per_ref_s": summary["req_per_ref_s"],
                "p50_ref_ms": summary["p50_ref_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": 1 - outcomes.failed / outcomes.attempted,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for reason in outcomes.reasons:
        print(f"FAILED: {reason}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if outcomes.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
