"""Tests of the benchmark itself, not of submult.

    python3 -m pytest bench/test_bench.py

The traced workers run each workload twice with the same seed (one
verify pass, one round of each check workload), which takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Work counters that must repeat exactly for the same seed.
DETERMINISTIC = ("properties.pairs_checked", "properties.sections_checked",
                 "properties.reps_checked", "cyclotomic.unit_mul.calls",
                 "monomial.mul.calls", "families.affine_mul.calls",
                 "groups.close.elements", "groups.full_table.entries")

# The workload on which each wrapper must record calls.
ASSIGNED = {
    "verify": ("cyclotomic.unit_mul", "cyclotomic.spectrum_product",
               "monomial.mul", "monomial.spectrum", "groups.close",
               "groups.full_table", "properties.order_submultiplicativity",
               "suites.oracle", "suites.run_suite"),
    "spectral_checks": ("families.load_group_file", "families.build_group",
                        "families.induced_rep_generators",
                        "properties.has_property_s",
                        "properties.has_property_s_hat_basic",
                        "properties.has_property_s_hat_single",
                        "properties.is_p_abelian", "properties.is_engel",
                        "properties.chi_containment",
                        "properties.is_irreducible", "cli.main"),
    "power_checks": ("groups.sections", "groups.all_subgroups",
                     "groups.normal_subgroups", "groups.quotient",
                     "groups.subgroup", "groups.lower_central_series",
                     "groups.direct_power", "groups.group_builds",
                     "families.affine_mul", "families.basic_group",
                     "properties.has_wp2", "properties.has_p1",
                     "properties.has_p2", "properties.is_regular",
                     "properties.is_v_regular_bounded"),
}


def _traced(workload: str, seed: int, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "trace", "--workload", workload,
         "--seed", str(seed), "--rounds", "1", "--workdir", str(tmp)],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "READY"
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory) -> dict[str, tuple[dict, dict]]:
    tmp = tmp_path_factory.mktemp("work")
    return {w: (_traced(w, 7, tmp / f"{w}-a"), _traced(w, 7, tmp / f"{w}-b"))
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_answer_correctly(traced_twice, workload):
    for result in traced_twice[workload]:
        assert result["failed"] == 0, result["problems"]
        assert result["absent"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_for_the_same_seed(traced_twice, workload):
    first, second = traced_twice[workload]
    for name in DETERMINISTIC:
        assert first["stats"].get(name, 0) == second["stats"].get(name, 0), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_wrapper_records_calls_on_its_workload(traced_twice, workload):
    stats = traced_twice[workload][0]["stats"]
    for layer in ASSIGNED[workload]:
        assert stats[f"{layer}.calls"] > 0, layer


def test_assignment_covers_every_wrapper():
    assigned = {name for names in ASSIGNED.values() for name in names}
    wrapped = {name for name, _, _ in tracing.SPANS + tracing.COUNTS}
    assert assigned == wrapped


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", (
        ("groups.gone", "submult.groups", "no_such_function"),))
    monkeypatch.setattr(tracing, "COUNTS", (
        ("monomial.gone", "submult.monomial", "MonomialMatrix.no_such_method"),))
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import submult  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == ["groups.gone", "monomial.gone"]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_stream_is_a_function_of_the_seed():
    def keys(seed: int) -> list[str]:
        stream = workloads.Stream("spectral_checks", seed)
        return [r.key for _ in range(3) for r in stream.next_round()]

    assert keys(3) == keys(3)
    assert keys(3) != keys(4)


def test_every_drawable_request_has_an_answer():
    table = workloads.load_expected()
    for workload in ("spectral_checks", "power_checks"):
        for seed in range(5):
            stream = workloads.Stream(workload, seed)
            for _ in range(10):
                for request in stream.next_round():
                    assert workloads.expected_answer(request, table)["exit"] in (0, 1, 2)


def test_replay_accepts_a_true_witness_and_rejects_a_false_one():
    rotation = {"n": 2, "perm": [0, 1],
                "entries": [{"num": 1, "den": 4}, {"num": 3, "den": 4}]}
    swap = {"n": 2, "perm": [1, 0],
            "entries": [{"num": 0, "den": 1}, {"num": 0, "den": 1}]}
    witness = {"left": rotation, "right": swap}
    assert workloads.replay_s_witness({**witness, "eigenvalue": {"num": 0, "den": 1}})
    assert not workloads.replay_s_witness({**witness, "eigenvalue": {"num": 1, "den": 4}})


def test_speed_scale_uses_the_samples_around_an_interval():
    sampler = speed.Sampler()
    sampler.mids = [float(t) for t in range(20)]
    sampler.times = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    assert sampler.scale(2.0, 4.0) == 1.0  # samples at 0..6, all at reference
    assert sampler.scale(15.0, 15.5) == 0.5  # twice as slow there
    # too few samples nearby: widen to the nearest seven
    assert sampler.scale(30.0, 30.1) == 0.5


def test_sampler_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler().start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.times) >= 3
    assert 0 < sampler.spent < 0.5
    assert signal.getsignal(signal.SIGALRM) is before
    assert speed.reference_work() == 64


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
