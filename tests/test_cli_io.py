"""Configuration parsing, batch execution, CSV schemas and the CLI surface."""

import hashlib

import numpy as np
import pytest

from ecsqp import cli_io
from ecsqp.benchmarks import BenchmarkProblem, Orientation, register_problem, _REGISTRY
from ecsqp.cli_io import (
    AggregateReport,
    ConfigError,
    PRICE_COLUMNS,
    RunConfig,
    ad_check,
    load_config,
    main,
    run_batch,
)
from ecsqp.evolution import SelectionMethod
from ecsqp.local_search import BoundBox


BASE_CONFIG = """
problem: schwefel-max
dimension: 2
precision: 0.01
ga:
  population_size: 20
  crossover_rate: 1.0
  mutation_rate: 1/l
  selection: binary-tournament
  overlap_fraction: 0.1
  max_generations: 15
switch:
  max_generations: 15
repetitions: 2
seed: 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_CONFIG)
    return path


class TestLoadConfig:
    def test_round_trip(self, config_file):
        cfg = load_config(config_file)
        assert cfg.problem == "schwefel-max"
        assert cfg.ga.population_size == 20
        assert cfg.ga.selection is SelectionMethod.BINARY_TOURNAMENT
        assert cfg.mutation_rate_raw == "1/l"
        assert cfg.repetitions == 2
        # hybrid mode gets the deep validation defaults
        assert cfg.validation_ga.population_size == 200
        assert cfg.validation_switch.max_generations == 800

    def test_mutation_rate_binding(self, config_file):
        cfg = load_config(config_file)
        problem = cfg.make_problem()
        from ecsqp.encoding import EncodingSpec

        spec = EncodingSpec.for_bounds(
            problem.bounds.lower, problem.bounds.upper, cfg.precision
        )
        assert cfg.resolved_ga(spec).mutation_rate == pytest.approx(1 / 34)

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: sphere\ndimension: 2\n")
        with pytest.raises(ConfigError, match="ackley"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        for section, key in (("ga: {popsize: 3}", "popsize"),
                             ("ga: {elite_shrink: halve}", "elite_shrink")):
            path.write_text(f"problem: ackley\ndimension: 2\n{section}\n")
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: ackley\n")
        with pytest.raises(ConfigError, match="dimension"):
            load_config(path)


class TestRunBatch:
    def test_ec_mode_writes_traces_and_aggregate(self, config_file, tmp_path):
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", output=str(tmp_path / "out"))
        result = run_batch(cfg, cfg.output, jobs=1)
        assert not result["failures"]
        out = tmp_path / "out"
        assert (out / "trace_0.csv").exists() and (out / "trace_1.csv").exists()
        header = (out / "trace_0.csv").read_text().splitlines()[0]
        assert header == ",".join(PRICE_COLUMNS)
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.txt").exists()

    def test_deterministic_csv_bytes(self, config_file, tmp_path):
        cfg = load_config(config_file)
        for sub in ("a", "b"):
            c = cli_io.replace(cfg, mode="ec", repetitions=1, output=str(tmp_path / sub))
            run_batch(c, c.output, jobs=1)
        a = (tmp_path / "a" / "trace_0.csv").read_bytes()
        b = (tmp_path / "b" / "trace_0.csv").read_bytes()
        assert a == b

    def test_seeded_output_pinned(self, config_file, tmp_path):
        # SHA-256 of a seeded ec batch's whole output directory; it changes
        # whenever the RNG draw order or a GA operator's result changes
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", output=str(tmp_path / "out"))
        run_batch(cfg, cfg.output, jobs=1)
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "out").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "7d1a6a7c9308dccb3100644af6670084b26820019375361f81ed66737af7c416"
        )

    def test_aggregate_matches_independent_recomputation(self, config_file, tmp_path):
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", repetitions=3, output=None)
        result = run_batch(cfg, None, jobs=1)
        report: AggregateReport = result["aggregate"]
        runs = result["runs"]
        # arithmetic mean recomputed straight from the per-run rows
        for g in range(report.generations.size):
            for j, col in enumerate([c for c in PRICE_COLUMNS if c != "generation"]):
                column_values = [run["rows"][g][1 + j] for run in runs]
                assert report.means[g, j] == pytest.approx(np.mean(column_values))
                expected_se = np.std(column_values, ddof=1) / np.sqrt(len(runs))
                assert report.stderrs[g, j] == pytest.approx(expected_se)

    def test_hybrid_mode_schema(self, config_file, tmp_path):
        cfg = load_config(config_file)
        cfg = cli_io.replace(
            cfg,
            repetitions=1,
            output=str(tmp_path / "h"),
            validation_switch=cli_io.SwitchCriteria(max_generations=10),
            validation_ga=None,
        )
        result = run_batch(cfg, cfg.output, jobs=1)
        assert not result["failures"]
        header = (tmp_path / "h" / "trace_0.csv").read_text().splitlines()[0]
        assert header == "phase,step,best,mean,evaluations"

    def test_per_run_isolation(self, tmp_path):
        # one poisoned run must not abort the batch
        def factory(n):
            def fn(v):
                return v[0]

            def batch(X):
                X = np.asarray(X, dtype=float)
                if X.shape[0] and abs(X[0, 0] - X[0, 0]) == 0 and batch.poison:
                    raise RuntimeError("boom")
                return X[:, 0]

            batch.poison = False
            return BenchmarkProblem(
                "fragile", n, BoundBox(np.zeros(n), np.ones(n)),
                Orientation.MINIMIZE, 0.0, None, fn, batch,
            )

        register_problem("fragile", factory)
        try:
            problem = factory(1)

            def poisoned(cfg, index):
                if index == 1:
                    raise RuntimeError("boom")
                return cli_io._run_ec(cfg, index)

            cfg = RunConfig(problem="ackley", dimension=2, repetitions=3, mode="ec",
                            ga=cli_io.GAConfig(population_size=10, overlap_fraction=0.2,
                                               max_generations=5))
            original = cli_io._MODE_RUNNERS["ec"]
            cli_io._MODE_RUNNERS["ec"] = poisoned
            try:
                result = run_batch(cfg, str(tmp_path / "iso"), jobs=1)
            finally:
                cli_io._MODE_RUNNERS["ec"] = original
            assert len(result["runs"]) == 2
            assert len(result["failures"]) == 1
            assert "boom" in result["failures"][0]["error"]
        finally:
            _REGISTRY.pop("fragile", None)

    def test_nine_significant_digits(self):
        assert cli_io._fmt(837.96577454486754) == "837.965775"
        assert cli_io._fmt(0.000123456789123) == "0.000123456789"
        assert cli_io._fmt(3) == "3"


class TestAdCheck:
    def test_clean_problem_passes(self):
        report = ad_check("rastrigin", 2, samples=10, seed=1)
        assert report.ok
        assert report.max_grad_error < 1e-6
        assert report.max_hess_error < 1e-4

    def test_corrupted_objective_fails(self):
        # negative control: a problem whose AD path disagrees with its values
        def factory(n):
            clean = lambda X: np.sum(np.asarray(X, dtype=float) ** 2, axis=1)

            def corrupted(v):  # wrong coefficient in the AD route
                return sum(1.001 * vi * vi for vi in v)

            return BenchmarkProblem(
                "corrupted", n, BoundBox(np.full(n, -1.0), np.full(n, 1.0)),
                Orientation.MINIMIZE, 0.0, None, corrupted, clean,
            )

        register_problem("corrupted", factory)
        try:
            report = ad_check("corrupted", 2, samples=5, seed=0)
            assert not report.ok
        finally:
            _REGISTRY.pop("corrupted", None)


class TestCli:
    def test_run_exit_codes(self, config_file, tmp_path):
        assert main(["run", "--config", str(config_file), "--mode", "ec",
                     "--out", str(tmp_path / "o"), "--jobs", "1", "--runs", "1"]) == 0

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: unknown-name\ndimension: 2\n")
        assert main(["run", "--config", str(bad), "--jobs", "1"]) == 2
        assert "ackley" in capsys.readouterr().err
        # only the 1/l spelling binds the mutation rate to the string length
        bad.write_text(BASE_CONFIG.replace("mutation_rate: 1/l", "mutation_rate: auto"))
        assert main(["run", "--config", str(bad), "--mode", "ec", "--jobs", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "mutation_rate" in capsys.readouterr().err

    def test_price_trace_forces_ec_mode(self, config_file, tmp_path):
        out = tmp_path / "pt"
        assert main(["price-trace", "--config", str(config_file),
                     "--out", str(out), "--jobs", "1", "--runs", "1"]) == 0
        header = (out / "trace_0.csv").read_text().splitlines()[0]
        assert header == ",".join(PRICE_COLUMNS)

    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        for name in ("ackley", "rastrigin", "schwefel", "schwefel-max"):
            assert name in out

    def test_ad_check_cli(self, capsys):
        assert main(["ad-check", "--problem", "rastrigin", "--dimension", "2",
                     "--samples", "5"]) == 0
        assert "rel-err" in capsys.readouterr().out
