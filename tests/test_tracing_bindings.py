"""The benchmark tracer's bindings resolve on the package.

``perfbench/tracing.py`` rebinds package attributes by name; a rename or
deletion in ``src/`` would otherwise only surface as a failed ``--trace 1``
benchmark run.  The file is loaded by path, as the benchmark loads it.
"""

from collections import defaultdict

import numpy as np
import pytest

from conftest import ROOT, load_module
import ecsqp.benchmarks
import ecsqp.cli_io
import ecsqp.evolution
import ecsqp.local_search


@pytest.fixture(scope="module")
def tracing():
    return load_module("perfbench_tracing", ROOT / "perfbench" / "tracing.py")


def test_function_spans_resolve(tracing):
    for module, attr, _ in tracing._FUNCTION_SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_names_bound_in_several_modules_are_one_function(tracing):
    # the tracer rebinds each importer's reference; a wrapper added in one
    # importer would leave the calls through it untraced
    bound = defaultdict(list)
    for module, attr, _ in tracing._FUNCTION_SPANS:
        bound[attr].append(getattr(module, attr))
    shared = {attr: fns for attr, fns in bound.items() if len(fns) > 1}
    assert shared
    for attr, fns in shared.items():
        assert all(fn is fns[0] for fn in fns), attr


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


def test_sqp_run_records_the_nonsmooth_flag(tracing):
    # perfbench reads ``nonsmooth`` from the reduced ADScalar that a
    # registered objective returns; the first start sits on Schwefel's kink
    problem = ecsqp.benchmarks.get_problem("schwefel", 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.traced_problem(problem)
        evaluations = [
            ecsqp.local_search.sqp_run(
                traced.fn, np.array(x0), problem.bounds, ecsqp.local_search.SQPConfig()
            ).evaluations
            for x0 in ([0.0, 300.0], [100.0, 300.0])
        ]
    finally:
        tracer.uninstall()
    infos = [s.info for s in tracer.spans if s.name == "benchmarks.fn"]
    assert len(infos) == sum(evaluations) == tracing.span_counts(tracer)["autodiff.sweep"]
    assert all(type(info) is bool for info in infos)
    assert infos[0] is True and infos[-1] is False
