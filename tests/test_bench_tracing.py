"""The benchmark's tracer (``bench/tracing.py``) still finds every name it
wraps: a renamed or removed function would otherwise show up only as an
``absent`` layer in a slow traced run.  And the kernel probes
(``bench/probes.py``) still run on what they call."""

import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    importlib.import_module("submult.cli")  # binds every traced module
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    missing = [(name, module, path)
               for name, module, path in tracing.SPANS + tracing.COUNTS
               if tracing._resolve(module, path) is None]
    assert missing == []


def test_generator_layers_are_generator_functions(tracing):
    spans = {name: (module, path) for name, module, path in tracing.SPANS}
    assert tracing.GENERATORS <= set(spans)
    for name in tracing.GENERATORS:
        _, _, original = tracing._resolve(*spans[name])
        assert inspect.isgeneratorfunction(original), name


def test_kernel_probes_run(monkeypatch):
    # a traced worker runs the probes outside any request, so a probe that
    # raises ends the run with exit 1, where a request that raises is only
    # reported "correct": false.  The probes call close, FiniteGroup.elements
    # and .full_table, the submult exports, and MonomialMatrix and
    # CyclotomicUnit multiplication
    monkeypatch.syspath_prepend(str(BENCH))
    probes = importlib.import_module("probes")
    monkeypatch.setattr(probes, "REPEATS", 1)
    results = probes.run_probes()
    assert len(results) == 12
    assert all(value > 0 for value, _ in results.values()), results
