"""The benchmark tracer's bindings resolve on the package.

``perfbench/tracing.py`` rebinds package attributes by name; a rename or
deletion in ``src/`` would otherwise only surface as a failed ``--trace 1``
benchmark run.  The file is loaded by path, as the benchmark loads it.
"""

import importlib.util
from pathlib import Path

import pytest

import ecsqp.cli_io
import ecsqp.evolution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_spans_resolve(tracing):
    for module, attr, _ in tracing._FUNCTION_SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_patched_methods_resolve():
    assert callable(ecsqp.evolution.Engine.step)
    assert callable(ecsqp.cli_io.get_problem)


def test_ec_batch_records_the_evolution_spans(tracing, tmp_path):
    cfg = ecsqp.cli_io.RunConfig(
        problem="schwefel-max", dimension=2, mode="ec",
        ga=ecsqp.evolution.GAConfig(population_size=10, overlap_fraction=0.2,
                                    max_generations=3),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ecsqp.cli_io.run_batch(cfg, str(tmp_path), jobs=1)
    finally:
        tracer.uninstall()
    counts = tracing.span_counts(tracer)
    for name in ("cli_io.run_batch", "evolution.step", "evolution.select",
                 "evolution.replace", "encoding.decode_batch", "benchmarks.batch",
                 "price_monitor.decompose"):
        assert counts.get(name, 0) > 0, name
