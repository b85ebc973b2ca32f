"""Configuration parsing, batch execution, CSV schemas and the CLI surface."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ecsqp import cli_io
from ecsqp.benchmarks import BenchmarkProblem, Orientation, get_problem, register_problem, _REGISTRY
from ecsqp.cli_io import (
    ConfigError,
    PRICE_COLUMNS,
    RunConfig,
    ad_check,
    load_config,
    main,
    run_batch,
)
from ecsqp.encoding import EncodingSpec
from ecsqp.evolution import Engine, GAConfig, SelectionMethod
from ecsqp.hybrid import SwitchCriteria, SwitchReason, fitness_function, ga_phase
from ecsqp.local_search import BoundBox, SQPConfig
from ecsqp.price_monitor import SMOOTHING_WINDOW, sigma_width


SRC = str(Path(cli_io.__file__).resolve().parent.parent)

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

    def test_validation_sections_survive_a_mode_override(self, tmp_path):
        # `ecsqp run --mode hybrid` replaces the file's own mode after loading
        path = tmp_path / "ec.yaml"
        path.write_text(BASE_CONFIG + "mode: ec\nvalidation_ga:\n  population_size: 40\n")
        cfg = cli_io.replace(load_config(path), mode="hybrid")
        ga = cfg.validation_ga
        assert ga.population_size == 40
        assert ga.mutation_rate == pytest.approx(1 / 34)
        assert cfg.validation_switch.max_generations == 800

    def test_mutation_rate_binding(self, config_file):
        cfg = load_config(config_file)
        assert cfg.ga.mutation_rate == pytest.approx(1 / 34)

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


class TestRunConfigInCode:
    """A ``RunConfig`` built in code, or changed by ``replace``, is checked and
    bound as one loaded from a file."""

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="ackley"):
            RunConfig(problem="sphere", dimension=2)

    def test_precision_without_a_grid_rejected(self):
        with pytest.raises(ConfigError, match="precision"):
            RunConfig(problem="ackley", dimension=2, precision=-1.0)

    def test_replace_checks_again(self):
        cfg = RunConfig(problem="ackley", dimension=2)
        with pytest.raises(ConfigError, match="ackley"):
            replace(cfg, problem="sphere")

    def test_mutation_rate_bound_at_construction(self):
        # the form perfbench's price-trace workload builds
        ga = GAConfig(population_size=50, mutation_rate=0.01, max_generations=10)
        cfg = RunConfig(problem="schwefel-max", dimension=2, precision=0.01, ga=ga,
                        mutation_rate_raw="1/l", mode="ec")
        assert cfg.ga.mutation_rate == 1 / 34
        assert replace(cfg, mode="hybrid").ga.mutation_rate == 1 / 34

    def test_mutation_rate_out_of_range_is_a_config_error(self):
        # GAConfig's own ValueError, raised while binding the rate into ga
        with pytest.raises(ConfigError, match="mutation rate"):
            RunConfig(problem="ackley", dimension=2, mutation_rate_raw=2.0)
        with pytest.raises(ConfigError, match="mutation rate"):
            RunConfig(problem="ackley", dimension=2, validation_ga=GAConfig(),
                      validation_mutation_rate_raw=-0.5)

    def test_selection_value_string_is_the_member(self, tmp_path):
        assert GAConfig(selection="roulette-wheel").selection is SelectionMethod.ROULETTE_WHEEL
        by_name = stack_config("roulette-wheel", "per-bit", 2)
        assert by_name == stack_config(SelectionMethod.ROULETTE_WHEEL, "per-bit", 2)
        run_batch(by_name, str(tmp_path / "name"), jobs=1)
        run_batch(stack_config(SelectionMethod.ROULETTE_WHEEL, "per-bit", 2),
                  str(tmp_path / "member"), jobs=1)
        assert directory_bytes(tmp_path / "name") == directory_bytes(tmp_path / "member")
        with pytest.raises(ValueError, match="unknown selection 'foo'; options: roulette-wheel"):
            GAConfig(selection="foo")

    @pytest.mark.parametrize("value", [20.0, True])
    @pytest.mark.parametrize("cls, name", [
        (GAConfig, "population_size"), (GAConfig, "max_generations"),
        (SwitchCriteria, "stall_window"), (SwitchCriteria, "max_generations"),
        (SQPConfig, "max_iter"),
    ])
    def test_count_must_be_an_int(self, cls, name, value):
        # a float count would construct and then fail every run in range()
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})

    def test_unset_validation_round_is_the_files_default(self, tmp_path):
        # unfilled, a code-built hybrid run validated with the exploration GA:
        # 3,156 evaluations here against the loaded config's 50,386
        path = tmp_path / "run.yaml"
        path.write_text("problem: schwefel-max\ndimension: 2\nseed: 3\n")
        loaded = load_config(path)
        built = RunConfig(problem="schwefel-max", dimension=2, seed=3)
        assert built.validation_ga == loaded.validation_ga
        assert built.validation_switch == loaded.validation_switch
        assert built.validation_ga.mutation_rate == 1 / 34
        run_batch(built, str(tmp_path / "built"), jobs=1)
        run_batch(loaded, str(tmp_path / "loaded"), jobs=1)
        assert directory_bytes(tmp_path / "built") == directory_bytes(tmp_path / "loaded")
        summary = (tmp_path / "built" / "summary.txt").read_text()
        assert "evaluations per run: mean=50386.0" in summary

    def test_unset_validation_ga_takes_a_given_rate(self, tmp_path):
        # the filled section binds validation_mutation_rate_raw, not "1/l"
        path = tmp_path / "run.yaml"
        path.write_text("problem: ackley\ndimension: 3\nvalidation_ga: {mutation_rate: 0.05}\n")
        built = RunConfig(problem="ackley", dimension=3, validation_mutation_rate_raw=0.05)
        assert built.validation_ga == load_config(path).validation_ga
        assert built.validation_ga.mutation_rate == 0.05
        assert built.validation_ga.population_size == 200

    def test_given_validation_round_is_kept(self):
        ga = GAConfig(population_size=30, mutation_rate=0.02)
        switch = SwitchCriteria(max_generations=10, stall_window=4)
        cfg = RunConfig(problem="ackley", dimension=3, validation_ga=ga,
                        validation_switch=switch)
        assert cfg.validation_ga == ga and cfg.validation_switch == switch

    def test_default_validation_rate_binds_to_the_problems_length(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("problem: ackley\ndimension: 3\n")
        cfg = load_config(path)
        problem = cfg.make_problem()
        length = EncodingSpec.for_bounds(
            problem.bounds.lower, problem.bounds.upper, cfg.precision
        ).total_length
        assert length != 34
        assert cfg.validation_ga.mutation_rate == 1 / length


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

    def test_single_run_aggregate_has_no_standard_errors(self, config_file, tmp_path):
        # one run leaves no spread to estimate: every row counts 1 run and
        # every _se column reads nan
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", repetitions=1, output=str(tmp_path / "out"))
        run_batch(cfg, cfg.output, jobs=1)
        header, *rows = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        columns = header.split(",")
        se = [j for j, c in enumerate(columns) if c.endswith("_se")]
        assert len(se) == len(PRICE_COLUMNS) - 1
        assert len(rows) == cfg.ga.max_generations
        for g, line in enumerate(rows, start=1):
            fields = line.split(",")
            assert fields[:2] == [str(g), "1"]
            assert all(fields[j] == "nan" for j in se)

    def test_seeded_output_pinned(self, config_file, tmp_path):
        # SHA-256 of a seeded ec batch's whole output directory; it changes
        # whenever the RNG draw order or a GA operator's result changes
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", output=str(tmp_path / "out"))
        run_batch(cfg, cfg.output, jobs=1)
        # the pin predates summary.txt's converged_at line, which is
        # checked on its own
        converged = b"converged_at per run: 0:none 1:none\n"
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "out").iterdir()):
            data = path.read_bytes()
            if path.name == "summary.txt":
                assert data.count(converged) == 1
                data = data.replace(converged, b"")
            digest.update(path.name.encode() + b"\0" + data)
        assert digest.hexdigest() == (
            "7d1a6a7c9308dccb3100644af6670084b26820019375361f81ed66737af7c416"
        )

    @pytest.mark.parametrize("mode, expected", [
        ("sqp", "8d2bb7bb35961a16ff602cafcab16cb38f7c0a2d12e2efeec766c338859089f7"),
        ("hybrid", "3a8b3e36bcac2135bc9269e6d8a3917069e8ed1043a252d5f6be95536f7bd365"),
    ])
    def test_seeded_mode_output_pinned(self, tmp_path, mode, expected):
        # SHA-256 of a seeded `run --mode` batch's whole output directory
        path = tmp_path / "run.yaml"
        path.write_text(BASE_CONFIG + "validation_ga:\n  population_size: 30\n"
                        "validation_switch:\n  max_generations: 10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--mode", mode,
                     "--out", str(out), "--jobs", "1"]) == 0
        digest = hashlib.sha256()
        for p in sorted(out.iterdir()):
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        assert digest.hexdigest() == expected

    def test_summary_records_converged_at(self, config_file, tmp_path):
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", repetitions=3)
        for threshold in (0.01, 1e9):  # never fires; fires once the window fills
            out = tmp_path / str(threshold)
            c = cli_io.replace(cfg, switch=cli_io.replace(cfg.switch, sigma_threshold=threshold))
            result = run_batch(c, str(out), jobs=1)
            converged = [r["converged_at"] for r in result["runs"]]
            expected = [None] * 3 if threshold < 1 else [SMOOTHING_WINDOW] * 3
            assert converged == expected
            lines = (out / "summary.txt").read_text().splitlines()
            recorded = [line for line in lines if line.startswith("converged_at per run: ")]
            assert recorded == ["converged_at per run: " + " ".join(
                f"{i}:{'none' if g is None else g}" for i, g in enumerate(converged)
            )]

    def test_aggregate_matches_independent_recomputation(self, config_file, tmp_path):
        cfg = load_config(config_file)
        cfg = cli_io.replace(cfg, mode="ec", repetitions=3, output=None)
        runs = run_batch(cfg, None, jobs=1)["runs"]
        header, rows = cli_io._aggregate(runs)
        numeric = PRICE_COLUMNS[1:]
        assert header == ("generation", "runs", *(
            f"{c}_{stat}" for c in numeric for stat in ("mean", "se")))
        assert len(rows) == cfg.ga.max_generations
        # arithmetic mean recomputed straight from the per-run rows
        for g, row in enumerate(rows):
            assert row[:2] == (g + 1, 3)
            for j in range(len(numeric)):
                column_values = [run["rows"][g][1 + j] for run in runs]
                assert row[2 + 2 * j] == pytest.approx(np.mean(column_values))
                expected_se = np.std(column_values, ddof=1) / np.sqrt(len(runs))
                assert row[3 + 2 * j] == pytest.approx(expected_se)

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

            def poisoned(cfg, indices):
                if 1 in indices:
                    raise RuntimeError("boom")
                return cli_io._run_ec(cfg, indices)

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

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        cli_io._write_csv(path, ("a", "b", "c"), [(837.96577454486754, 0.000123456789123, 3)])
        assert path.read_text() == "a,b,c\n837.965775,0.000123456789,3\n"


def run_alone(cfg: RunConfig, index: int) -> dict:
    """Ec run ``index`` of ``cfg`` on the single-run engine (no run axis),
    with the rows, best, evaluations and converged_at of a batch record."""
    problem = cfg.make_problem()
    spec = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, cfg.precision)
    ga = replace(cfg.ga, rng_seed=cfg.run_seed(index))
    engine = Engine(ga, spec.total_length, fitness_function(problem, spec))
    cap = ga.max_generations
    report = ga_phase(engine, engine.random_population(), cfg.switch,
                      lambda states, hist, g: SwitchReason.MAX_GEN if g >= cap else None)
    rows = [(gen, c.selection_term, c.crossover_term, c.mutation_term,
             sigma_width(c.crossover_sigma), sigma_width(c.mutation_sigma),
             stats.best, stats.mean, stats.worst)
            for gen, (c, stats, _) in enumerate(report.generations[1:], start=1)]
    return {"rows": rows, "final_best": problem.sign * float(report.population.fitness.max()),
            "evaluations": engine.evaluations, "converged_at": report.converged_at[0]}


def stack_config(selection, scheme, runs):
    # a loose envelope threshold, so that runs converge at different
    # generations or not at all
    rate = 0.3 if scheme == "per-chromosome" else 0.05
    ga = GAConfig(population_size=20, crossover_rate=0.7, mutation_rate=rate,
                  selection=selection, mutation_scheme=scheme, overlap_fraction=0.1,
                  max_generations=25)
    return RunConfig(problem="schwefel-max", dimension=2, ga=ga, repetitions=runs, seed=7,
                     mode="ec", switch=SwitchCriteria(sigma_threshold=30.0))


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestStackedBatch:
    """An ec batch steps its runs as one stack; each run is bitwise the run
    stepped alone."""

    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["per-chromosome", "per-bit"])
    @pytest.mark.parametrize("selection", list(SelectionMethod))
    def test_stack_equals_runs_alone(self, tmp_path, selection, scheme, runs):
        cfg = stack_config(selection, scheme, runs)
        stacked = run_batch(cfg, str(tmp_path / "stack"), jobs=1)
        assert not stacked["failures"]
        assert [r["index"] for r in stacked["runs"]] == list(range(runs))
        for run in stacked["runs"]:
            alone = run_alone(cfg, run["index"])
            for key in ("rows", "final_best", "evaluations", "converged_at"):
                assert run[key] == alone[key], key
        # one stack of one run per worker process writes the same bytes
        split = run_batch(cfg, str(tmp_path / "split"), jobs=runs)
        assert [r["rows"] for r in split["runs"]] == [r["rows"] for r in stacked["runs"]]
        assert directory_bytes(tmp_path / "split") == directory_bytes(tmp_path / "stack")
        assert sorted(directory_bytes(tmp_path / "stack")) == sorted(
            [f"trace_{i}.csv" for i in range(runs)] + ["aggregate.csv", "summary.txt"])

    def test_a_run_failing_inside_a_stack_fails_alone(self, tmp_path):
        # a problem that raises on one row; the row is one that run 1 scores
        # after its first generation and that runs 0 and 2 never score
        base = get_problem("schwefel-max", 2)
        seen, poison = [], []

        def batch(X):
            X = np.asarray(X, dtype=float)
            if poison and (X == poison[0]).all(axis=1).any():
                raise RuntimeError("poisoned row")
            seen.append(X.copy())
            return base.batch(X)

        register_problem("stack-probe", lambda n: replace(base, name="stack-probe", batch=batch))
        try:
            cfg = replace(stack_config(SelectionMethod.BINARY_TOURNAMENT, "per-chromosome", 3),
                          problem="stack-probe")
            scored = []
            for index in range(3):
                seen.clear()
                run_alone(cfg, index)
                scored.append(seen[:])  # seen[0] is the initial population
            others = {tuple(x) for i in (0, 2) for X in scored[i] for x in X}
            others |= {tuple(x) for x in scored[1][0]}
            poison.append(next(x for X in scored[1][2:] for x in X if tuple(x) not in others))

            result = run_batch(cfg, str(tmp_path / "poisoned"), jobs=1)
            poison.clear()
            clean = run_batch(cfg, str(tmp_path / "clean"), jobs=1)
        finally:
            _REGISTRY.pop("stack-probe", None)

        assert [r["index"] for r in result["runs"]] == [0, 2]
        (failure,) = result["failures"]
        assert failure["index"] == 1
        assert failure["error"] == "RuntimeError: poisoned row"
        assert failure["traceback"].startswith("Traceback (most recent call last):")
        assert failure["traceback"].rstrip().endswith("RuntimeError: poisoned row")
        assert "in batch" in failure["traceback"]
        for good, ref in zip(result["runs"], [clean["runs"][0], clean["runs"][2]]):
            assert good == ref
        poisoned, reference = directory_bytes(tmp_path / "poisoned"), directory_bytes(tmp_path / "clean")
        assert sorted(poisoned) == ["aggregate.csv", "summary.txt", "trace_0.csv", "trace_2.csv"]
        for name in ("trace_0.csv", "trace_2.csv"):
            assert poisoned[name] == reference[name]
        summary = poisoned["summary.txt"].decode().splitlines()
        assert summary[1] == "runs: 2 ok, 1 failed (seeds 7..9)"
        assert summary[-1] == "run 1 failed: RuntimeError: poisoned row"
        assert "Traceback" not in poisoned["summary.txt"].decode()


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

    @pytest.mark.parametrize("section, key", [
        ("sqp", "c1"), ("sqp", "c2"), ("sqp", "lambda_min"), ("sqp", "delta_tol"),
        ("sqp", "max_line_search_evals"), ("sqp", "stopping"), ("switch", "smoothing_window"),
        (None, "x0"),
    ])
    def test_removed_keys_exit_two(self, tmp_path, capsys, section, key):
        bad = tmp_path / "bad.yaml"
        entry = f"{key}: 1" if section is None else f"{section}: {{{key}: 1}}"
        bad.write_text(f"problem: ackley\ndimension: 2\n{entry}\n")
        assert main(["run", "--config", str(bad), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    @pytest.mark.parametrize("entry", [
        {"ga": "null"}, {"validation_ga": "null"}, {"sqp": "3"}, {"switch": "[1, 2]"},
        {"dimension": "two"}, {"dimension": "0"},
        {"problem": "schwefel-max", "dimension": "3"},
        {"precision": "abc"}, {"precision": "-1"}, {"precision": "1.0e-320"},
        {"seed": "abc"}, {"seed": "1.5"}, {"seed": "-3"}, {"seed": "true"},
        {"repetitions": "2.5"}, {"repetitions": "true"},
        {"precision": "true"}, {"ga": "{max_generations: true}"},
        {"ga": "{mutation_rate: true}"}, {"ga": "{crossover_rate: true}"},
        {"switch": "{stall_window: true}"}, {"sqp": "{max_iter: true}"},
        {"ga": "{population_size: 20.0}"}, {"switch": "{stall_window: 5.0}"},
        {"validation_switch": "{stall_window: 5.0}"}, {"sqp": "{max_iter: 20.0}"},
    ], ids=lambda entry: ",".join(f"{k}={v}" for k, v in entry.items()))
    @pytest.mark.parametrize("mode", ["ec", "hybrid", "sqp"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, entry, mode):
        # a malformed section, problem or precision fails at load time in
        # every mode, not as a traceback or as failed runs
        bad = tmp_path / "bad.yaml"
        keys = {"problem": "ackley", "dimension": "2", **entry}
        bad.write_text("".join(f"{k}: {v}\n" for k, v in keys.items()))
        assert main(["run", "--config", str(bad), "--mode", mode, "--jobs", "1",
                     "--runs", "1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_selection_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: ackley\ndimension: 2\nga: {selection: foo}\n")
        assert main(["run", "--config", str(bad), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown selection 'foo'" in err

    def test_boolean_in_a_precision_list_exit_two(self, tmp_path, capsys):
        # numpy would read the true as a grid step of 1 in the first variable
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: schwefel-max\ndimension: 2\nprecision: [true, 0.01]\n")
        with pytest.raises(ConfigError, match="precision.*boolean"):
            load_config(bad)
        assert main(["run", "--config", str(bad), "--mode", "ec", "--jobs", "1",
                     "--runs", "1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_import_leaves_yaml_and_process_pools_unloaded(self):
        # both load on first use: by load_config and by run_batch with jobs > 1
        code = ("import sys, ecsqp.cli_io; "
                "print(sorted({'yaml', 'concurrent.futures'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("flag, value", [("--seed", "-3"), ("--runs", "0")])
    def test_malformed_override_exit_two(self, config_file, tmp_path, capsys, flag, value):
        assert main(["run", "--config", str(config_file), "--mode", "ec", "--jobs", "1",
                     flag, value, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_repeated_key_exit_two(self, tmp_path, capsys):
        # yaml.safe_load keeps the last of two values without a word
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: ackley\ndimension: 2\n"
                       "switch:\n  max_generations: 15\n  max_generations: 3\n")
        with pytest.raises(ConfigError, match="duplicate key 'max_generations'"):
            load_config(bad)
        assert main(["run", "--config", str(bad), "--jobs", "1"]) == 2
        assert "duplicate key 'max_generations'" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["ga", "validation_ga"])
    def test_rng_seed_in_a_ga_section_exit_two(self, tmp_path, capsys, section):
        # runs are seeded seed + i; a per-section seed would be ignored
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"problem: ackley\ndimension: 2\n{section}: {{rng_seed: 3}}\n")
        assert main(["run", "--config", str(bad), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "rng_seed" in err and "seed + i" in err

    def test_ec_mode_ignores_hybrid_only_switch_keys(self, tmp_path):
        # stall_window, stall_epsilon and max_generations end the hybrid
        # exploration phase only; an ec run stops at ga.max_generations
        switch = "switch:\n  max_generations: 15\n"
        digests = []
        for text in (BASE_CONFIG, BASE_CONFIG.replace(switch, (
            "switch:\n  max_generations: 3\n  stall_window: 2\n  stall_epsilon: 1.0e+6\n"
        ))):
            path = tmp_path / "run.yaml"
            path.write_text(text)
            out = tmp_path / f"out{len(digests)}"
            assert main(["run", "--config", str(path), "--mode", "ec",
                         "--out", str(out), "--jobs", "1"]) == 0
            digests.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
        assert digests[0] == digests[1]

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

    @pytest.mark.parametrize("flags, message", [
        (["--problem", "ackley", "--dimension", "0"], "dimension must be positive"),
        (["--problem", "schwefel-max", "--dimension", "3"], "dimension 2"),
        (["--problem", "rastrigin", "--dimension", "2", "--samples", "0"],
         "samples must be positive"),
    ])
    def test_ad_check_config_error_exit_two(self, capsys, flags, message):
        assert main(["ad-check", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.out == ""
