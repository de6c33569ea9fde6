"""Self-tests of the benchmark: its inputs, its output checks and its tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

The census test runs the full census twice (about half a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _strip(requests, directory: Path):
    return [json.dumps(r, default=str).replace(str(directory), "<dir>") for r in requests]


def test_same_seed_gives_identical_inputs(tmp_path):
    for make in (inputs.analyze_corpus, inputs.stationary_inputs):
        a, b, c = (tmp_path / make.__name__ / n for n in "abc")
        for d in (a, b, c):
            d.mkdir(parents=True)
        ra, rb, rc = make(5, a), make(5, b), make(6, c)
        assert _files(a) == _files(b)
        assert _strip(ra, a) == _strip(rb, b)
        assert _files(a) != _files(c)


def test_analyze_corpus_mixes_rejections_and_block_counts(tmp_path):
    requests = inputs.analyze_corpus(1, tmp_path)
    cases = {id(r["case"]): r["case"] for r in requests}.values()
    rejected = [c for c in cases if c["reject"]]
    assert len(rejected) * inputs.PERTURB_EVERY == len(cases)
    sizes = {len(c["blocks"]) for c in cases}
    assert 1 in sizes and max(sizes) >= 26


def _program_output(req):
    code, out, err, _ = run.send(run.import_program(), req["argv"])
    assert checks.check_analyze(req, code, out, err) is None
    return code, out, err


def _pick(requests, op, min_blocks=2):
    return next(
        r for r in requests
        if r["op"] == op and not r["case"]["reject"]
        and len(r["case"]["blocks"]) >= min_blocks and any(len(b) > 1 for b in r["case"]["blocks"])
    )


def test_corrupted_outputs_are_failures(tmp_path):
    requests = inputs.analyze_corpus(2, tmp_path)

    # One flipped fraction in a lumped stationary vector.
    lumped = _pick(requests, "walk lumped")
    code, out, err = _program_output(lumped)
    payload = json.loads(out)
    payload["stationary"][0] = "1/" + str(1 + int(payload["stationary"][0].split("/")[-1]))
    assert checks.check_analyze(lumped, code, json.dumps(payload), err) is not None

    # One word moved to another block of a validated congruence.
    valid = _pick(requests, "rc validate")
    code, out, err = _program_output(valid)
    payload = json.loads(out)
    blocks = payload["congruence"]["blocks"]
    src = next(b for b in blocks if len(b) > 1)
    dst = next(b for b in blocks if b is not src)
    dst.append(src.pop())
    payload["congruence"]["blocks"] = sorted(sorted(b) for b in blocks)
    assert checks.check_analyze(valid, code, json.dumps(payload), err) is not None

    # A corrupted repeat of a correct output is counted by Outcomes.
    outcomes = run.Outcomes("analyze", [valid])
    outcomes.record(0, code, out, err)
    outcomes.record(0, code, json.dumps(payload), err)
    assert (outcomes.attempted, outcomes.failed) == (2, 1)

    # One flipped fraction in a stationary vector.
    stat = min(inputs.stationary_inputs(2, tmp_path), key=lambda r: len(r["order"]))
    code, out, err, _ = run.send(run.import_program(), stat["argv"])
    assert run.check("walk", stat, code, out, err) is None
    payload = json.loads(out)
    payload["stationary"][1], payload["stationary"][-1] = payload["stationary"][-1], payload["stationary"][1]
    if payload["stationary"] == json.loads(out)["stationary"]:
        payload["stationary"][1] = "0"
    assert run.check("walk", stat, code, json.dumps(payload), err) is not None


def test_rejections_must_carry_a_true_witness(tmp_path):
    requests = inputs.analyze_corpus(3, tmp_path)
    bad = next(r for r in requests if r["case"]["reject"])
    code, out, err, _ = run.send(run.import_program(), bad["argv"])
    assert code == 1 and checks.check_analyze(bad, code, out, err) is None
    payload = json.loads(out)
    payload["witness"]["u"], payload["witness"]["letter"] = payload["witness"]["v"], "a"
    assert checks.check_analyze(bad, code, json.dumps(payload), err) is not None


def _traced_counts(requests):
    cli = run.import_program()
    metrics, _ = run.traced(cli, requests, run.Outcomes("analyze", requests))
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}, metrics


def test_traced_call_counts_repeat(tmp_path):
    requests = inputs.analyze_corpus(4, tmp_path)[:150]
    first, metrics = _traced_counts(requests)
    second, _ = _traced_counts(requests)
    assert first == second
    assert first["cli.main.calls"] == 150
    assert set(metrics) == set(run.per_layer_units())


def test_tracer_restores_the_program():
    import spans

    run.import_program()
    congruences, walks, words = (sys.modules[f"semwalk.{m}"] for m in ("congruences", "walks", "words"))
    product, code_action = congruences.product, walks.code_action
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert congruences.product is not product and congruences.product is words.product
        assert walks.code_action is not code_action
    finally:
        tracer.uninstall()
    assert congruences.product is product and walks.code_action is code_action


def test_census_counts_are_exact():
    requests = [{"op": "lattice census", "argv": list(checks.CENSUS_ARGV)}]
    counts = []
    for _ in range(2):
        cli = run.import_program()
        outcomes = run.Outcomes("census", requests)
        metrics, _ = run.traced(cli, requests, outcomes)
        assert outcomes.failed == 0
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
        assert metrics["congruences.enumerate_all.kept_ratio"] == 192 / 21147
    assert counts[0] == counts[1]
    assert {k: counts[0][k] for k in (
        "congruences.validate.calls", "congruences.join.calls", "congruences.generate.calls",
        "congruences.meet.calls", "congruences.RightCongruence.refines.calls", "words.product.calls",
    )} == {
        "congruences.validate.calls": 21147, "congruences.join.calls": 18528,
        "congruences.generate.calls": 18528, "congruences.meet.calls": 18528,
        "congruences.RightCongruence.refines.calls": 36864, "words.product.calls": 733760,
    }


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_probe_scales_by_the_probes_during_or_nearest_a_request():
    import probe

    p = probe.Probe()
    p.starts = [float(t) for t in range(20)]
    p.durations = [probe.NOMINAL_S] * 10 + [2 * probe.NOMINAL_S] * 10
    # Ten probes ran during a long request on the slow half: scale 1/2.
    assert p.scale(9.5, 19.5) == 0.5
    # A short request takes the nine probes nearest to it.
    assert p.scale(2.0, 2.001) == 1.0
    assert p.scale(30.0, 30.001) == 0.5
    # Probe time is taken out of a request's seconds.
    class ProbedProgram:
        @staticmethod
        def main(argv):
            p.sample()
            return 0

    code, _, _, dt = run.send(ProbedProgram, [], p)
    assert code == 0 and dt < p.durations[-1] / 10
