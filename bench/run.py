"""Run a workload of the submult benchmark and print its metrics.

    python3 bench/run.py --workload {verify,spectral_checks,power_checks,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  Every measurement happens in a fresh
child interpreter (``worker.py``) with one thread and one closed-loop
client; this process imports nothing from ``submult`` or numpy.

``--trace 0`` prints the end-to-end metrics: the median of seven set-ups
(``setup_s``), then the workload for ``--seconds`` (at least one verify
pass or one round of checks).  Their times are at reference speed: each
measured time is rescaled by the machine's speed around it, sampled with
a fixed piece of pure-Python work (``speed.py``).  ``--trace 1`` prints
the per-layer metrics: an untraced reference pass and a traced pass over
the same fixed inputs, whose ratio is the tracing overhead, plus the
kernel probes; the spans go to ``.bench_out/``.

Each workload's output ends with one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every request's
answer is checked; a wrong answer or a crash counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import speed  # noqa: E402  (stdlib only; imports nothing from submult)
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SPEED_SAMPLES = 3
TRACE_ROUNDS = 2
RUN_LIMIT_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("p50_ms", "ms"),
              ("p90_ms", "ms"), ("qps", "1/s"), ("peak_rss_mb", "MB"))


def _stats(layer: str, *stats: str) -> list[tuple[str, str]]:
    return [(f"{layer}.{s}", {"self_s": "s"}.get(s, "count")) for s in stats]


PER_LAYER = (
    _stats("cyclotomic.unit_mul", "calls", "probe_ops")
    + [("cyclotomic.unit_mul.ns", "ns")]
    + _stats("cyclotomic.spectrum_product", "calls", "self_s")
    + _stats("monomial.mul", "calls")
    + [("monomial.mul_d5.us", "us"), ("monomial.mul_d9.us", "us"),
       ("monomial.spectrum.us", "us")]
    + _stats("monomial.mul_d5", "probe_ops") + _stats("monomial.mul_d9", "probe_ops")
    + _stats("monomial.spectrum", "calls", "probe_ops")
    + _stats("groups.close", "calls", "self_s", "elements")
    + [("groups.close.distinct_ratio", "ratio")]
    + _stats("groups.full_table", "calls", "self_s", "entries")
    + [("groups.close_h5.ms", "ms"), ("groups.full_table_h5.ms", "ms")]
    + _stats("groups.close_h5", "probe_ops") + _stats("groups.full_table_h5", "probe_ops")
    + [("groups.group_builds", "count")]
    + _stats("groups.sections", "self_s", "yielded")
    + _stats("groups.all_subgroups", "self_s")
    + _stats("groups.normal_subgroups", "self_s")
    + _stats("groups.quotient", "calls", "self_s")
    + _stats("groups.subgroup", "calls", "self_s")
    + _stats("groups.lower_central_series", "self_s")
    + _stats("groups.direct_power", "self_s")
    + _stats("families.affine_mul", "calls")
    + _stats("families.load_group_file", "calls", "self_s")
    + _stats("families.build_group", "self_s")
    + _stats("families.induced_rep_generators", "calls", "self_s")
    + _stats("families.basic_group", "self_s")
    + [m for name in ("has_property_s", "has_property_s_hat_basic",
                      "has_property_s_hat_single", "order_submultiplicativity",
                      "has_wp2", "has_p1", "has_p2", "is_regular",
                      "is_v_regular_bounded", "is_p_abelian", "is_engel",
                      "chi_containment", "is_irreducible")
       for m in _stats(f"properties.{name}", "calls", "self_s")]
    + [(f"properties.{c}", "count")
       for c in ("pairs_checked", "sections_checked", "reps_checked")]
    + _stats("suites.oracle", "self_s") + _stats("suites.run_suite", "self_s")
    + _stats("cli.main", "calls", "self_s")
    + [("t5_s", "s"), ("t7_s", "s"), ("t9_s", "s"),
       ("stream.requests", "count"), ("stream.repeat_share", "ratio"),
       ("trace.overhead", "ratio")]
)


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.launched = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def launch(self, mode: str, *extra: str) -> tuple[float, dict | None]:
        """Run one worker; returns (set-up seconds at reference speed,
        parsed result line)."""
        self.launched += 1
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(self.workdir / str(self.launched)), *extra]
        before = speed.reference_time(SPEED_SAMPLES)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE)
        timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise ChildFailed(f"{mode} worker exited {code} "
                              f"(killed at the time limit: {code < 0})")
        if mode == "setup":  # a run child's own exit comes long after set-up
            setup_s *= 2 * speed.REFERENCE_S / (before + speed.reference_time(SPEED_SAMPLES))
        else:
            setup_s *= speed.REFERENCE_S / before
        result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
        return setup_s, result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _p90(values: list[float]) -> float:
    if len(values) < 2:  # one verify pass
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    setups = [runner.launch("setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    start = time.perf_counter()
    if runner.workload == "verify":
        # one fresh interpreter per pass: the corpus caches closures
        while not passes or time.perf_counter() - start < seconds:
            setup_s, result = runner.launch("run")
            setups.append(setup_s)
            passes.append(result)
    else:
        setup_s, result = runner.launch("run", "--seconds", str(seconds))
        setups.append(setup_s)
        passes.append(result)
    latencies = [x for p in passes for x in p["latencies_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(x for p in passes for x in p["round_s"]),
        "p50_ms": statistics.median(latencies),
        "p90_ms": _p90(latencies),
        # per round, so a burst of load on the machine moves one sample
        "qps": statistics.median(n / t for p in passes
                                 for n, t in zip(p["round_n"], p["round_s"])),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    raw = [x for p in passes for x in p["raw_latencies_ms"]]
    print(f"  {len(latencies)} requests in {len(passes)} pass(es), "
          f"{sum(len(p['round_s']) for p in passes)} round(s); "
          f"{sum(x > values['p90_ms'] for x in latencies)} beyond p90; "
          f"repeat share {statistics.mean(p['repeat_share'] for p in passes):.3f}; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    raw_wall = statistics.median(x for p in passes for x in p["raw_round_s"])
    print(f"  machine speed x{statistics.median(p['speed'] for p in passes):.3f} "
          f"of reference; as measured: wall {raw_wall:.6g} s, "
          f"p50 {statistics.median(raw):.6g} ms, p90 {_p90(raw):.6g} ms")
    return {name: (values[name], unit) for name, unit in END_TO_END}, passes


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    rounds = ("--rounds", str(TRACE_ROUNDS))
    _, reference = runner.launch("run", *rounds)
    trace_file = ROOT / ".bench_out" / f"trace-{runner.workload}-seed{runner.seed}.json"
    _, traced = runner.launch("trace", *rounds, "--trace-file", str(trace_file))
    values = dict(traced["stats"])
    values.update({name: v for name, (v, _) in traced["probes"].items()})
    suites = reference.get("suites", {})
    values.update({"t5_s": suites.get("T5", 0.0), "t7_s": suites.get("T7", 0.0),
                   "t9_s": suites.get("T9", 0.0),
                   "stream.requests": len(traced["latencies_ms"]),
                   "stream.repeat_share": traced["repeat_share"],
                   "trace.overhead": traced["stream_s"] / reference["stream_s"]})
    absent = set(traced["absent"])
    missing = [name for name, _ in PER_LAYER
               if any(name == a or name.startswith(a + ".") for a in absent)]
    print(f"  traced {len(traced['latencies_ms'])} requests; overhead "
          f"x{values['trace.overhead']:.2f}; spans in {trace_file.relative_to(ROOT)}")
    if missing:
        print(f"  absent (reported as 0): {', '.join(missing)}")
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}, \
        [reference, traced]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    print(f"submult benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    runner = Runner(workload, seed)
    try:
        if trace:
            metrics, runs = per_layer(runner)
        else:
            metrics, runs = end_to_end(runner, seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    for problem in [p for r in runs for p in r["problems"]][:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "submult" / "__init__.py").is_file():
        print(f"error: no submult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, args.trace)
               for name in names)


if __name__ == "__main__":
    raise SystemExit(main())
