"""Benchmark objectives: published values, optima, derivative consistency."""

import math

import numpy as np
import pytest

from ecsqp import autodiff as ad
from ecsqp.autodiff import evaluate
from ecsqp.benchmarks import (
    SCHWEFEL_ARGMAX_1D,
    Orientation,
    ackley,
    get_problem,
    list_problems,
    rastrigin,
    schwefel_max,
    schwefel_min,
)
from ecsqp.fdcheck import fd_gradient, fd_hessian, max_relative_error

TWO_PI = 2.0 * math.pi


# Reference forms each objective had before it was written once: a numpy
# batch form over (m, n) arrays, and a per-element form over a sequence of
# AD scalars.


def ackley_batch_ref(X):
    sq = np.mean(X * X, axis=1)
    cs = np.mean(np.cos(TWO_PI * X), axis=1)
    return 20.0 + math.e - 20.0 * np.exp(-0.2 * np.sqrt(sq)) - np.exp(cs)


def rastrigin_batch_ref(X):
    return 10.0 * X.shape[1] + np.sum(X * X - 10.0 * np.cos(TWO_PI * X), axis=1)


def schwefel_max_batch_ref(X):
    return np.sum(X * np.sin(np.sqrt(np.abs(X))), axis=1)


def schwefel_min_batch_ref(X):
    return 418.9829 * X.shape[1] - schwefel_max_batch_ref(X)


def ackley_scalar_ref(x):
    n = len(x)
    sq = sum(xi * xi for xi in x) / n
    cs = sum(ad.cos(TWO_PI * xi) for xi in x) / n
    return 20.0 + math.e - 20.0 * ad.exp(-0.2 * ad.sqrt(sq)) - ad.exp(cs)


def rastrigin_scalar_ref(x):
    return 10.0 * len(x) + sum(xi * xi - 10.0 * ad.cos(TWO_PI * xi) for xi in x)


def schwefel_max_scalar_ref(x):
    return sum(xi * ad.sin(ad.sqrt(ad.fabs(xi))) for xi in x)


def schwefel_min_scalar_ref(x):
    return 418.9829 * len(x) - schwefel_max_scalar_ref(x)


REFERENCES = {
    "ackley": (ackley, ackley_batch_ref, ackley_scalar_ref, (-15.0, 30.0)),
    "rastrigin": (rastrigin, rastrigin_batch_ref, rastrigin_scalar_ref, (-5.12, 5.12)),
    "schwefel-min": (schwefel_min, schwefel_min_batch_ref, schwefel_min_scalar_ref,
                     (-500.0, 500.0)),
    "schwefel-max": (schwefel_max, schwefel_max_batch_ref, schwefel_max_scalar_ref,
                     (-500.0, 500.0)),
}


def schwefel_1d_argmax_oracle():
    """Grid scan of x*sin(sqrt(|x|)) refined by bisecting its derivative.

    Near the flat peak the value-based search saturates at sqrt(eps), so the
    refinement bisects d/dx [x sin sqrt(x)] = sin(sqrt x) + (sqrt x / 2) cos(sqrt x)
    instead.
    """
    g = lambda x: x * math.sin(math.sqrt(abs(x)))
    dg = lambda x: math.sin(math.sqrt(x)) + 0.5 * math.sqrt(x) * math.cos(math.sqrt(x))
    xs = np.linspace(-500, 500, 200001)
    lo = xs[np.argmax([g(x) for x in xs])]
    a, b = lo - 0.01, lo + 0.01
    assert dg(a) > 0 > dg(b)
    while b - a > 1e-11:
        mid = 0.5 * (a + b)
        if dg(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class TestAckley:
    def test_zero_is_global_minimum(self):
        assert abs(ackley(np.zeros(5))) < 1e-12

    def test_scalar_value_one_dim(self):
        expected = 20 + math.e - 20 * math.exp(-0.2) - math.exp(math.cos(2 * math.pi))
        assert ackley(np.array([1.0])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.6254, abs=1e-4)

    def test_gradient_at_origin_is_flagged_zero(self):
        out = ackley(ad.ADVector(np.zeros(2), np.ones(2), np.zeros(2)))
        assert out.nonsmooth
        assert not out.grad.any()

    def test_even_symmetry(self, rng):
        for _ in range(30):
            x = rng.uniform(-15, 15, size=4)
            assert ackley(x) == pytest.approx(ackley(-x), abs=1e-12)


class TestRastrigin:
    def test_values(self):
        assert rastrigin(np.zeros(3)) == 0.0
        assert rastrigin(np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_curvature_at_origin(self):
        _, grad, hess = evaluate(rastrigin, np.zeros(2))
        assert not grad.any()
        np.testing.assert_allclose(
            np.diag(hess), 2.0 + 40.0 * math.pi**2, rtol=1e-12
        )
        assert np.asarray(hess)[0, 1] == 0.0

    def test_even_symmetry(self, rng):
        for _ in range(30):
            x = rng.uniform(-5.12, 5.12, size=4)
            assert rastrigin(x) == pytest.approx(rastrigin(-x), abs=1e-12)


class TestSchwefel:
    def test_argmax_constant_matches_oracle(self):
        assert SCHWEFEL_ARGMAX_1D == pytest.approx(schwefel_1d_argmax_oracle(), abs=1e-8)

    def test_near_zero_at_optimizer(self):
        n = 3
        x = np.full(n, 420.9687)
        assert abs(schwefel_min(x)) < 1e-2 * n

    def test_zero_vector_value(self):
        assert schwefel_min(np.zeros(4)) == pytest.approx(418.9829 * 4, abs=1e-12)

    def test_boundary_value_one_dim(self):
        expected = 418.9829 - 500.0 * math.sin(math.sqrt(500.0))
        assert schwefel_min(np.array([500.0])) == pytest.approx(expected, abs=1e-12)
        # direct evaluation: sin(sqrt(500)) < 0, so the value exceeds the offset
        assert expected == pytest.approx(599.572, abs=1e-3)

    def test_min_max_identity(self, rng):
        for _ in range(50):
            x = rng.uniform(-500, 500, size=3)
            assert schwefel_min(x) == pytest.approx(
                418.9829 * 3 - schwefel_max(x), abs=1e-9
            )

    def test_max_form_values(self):
        assert schwefel_max(np.zeros(2)) == 0.0
        peak = schwefel_max(np.array([420.9687, 420.9687]))
        assert 837.93 <= peak <= 837.97
        assert schwefel_max(np.array([SCHWEFEL_ARGMAX_1D])) == pytest.approx(418.9829, abs=1e-4)


class TestRegistry:
    def test_names(self):
        assert list_problems() == ["ackley", "rastrigin", "schwefel", "schwefel-max"]

    def test_optimum_consistency(self):
        for name in list_problems():
            n = 2 if name == "schwefel-max" else 4
            p = get_problem(name, n)
            if p.known_optimizer is not None:
                assert p.evaluate(p.known_optimizer) == pytest.approx(
                    p.known_optimum_value, abs=1e-6
                )

    def test_orientations_and_bounds(self):
        p = get_problem("ackley", 3)
        assert p.orientation is Orientation.MINIMIZE
        assert p.bounds.lower[0] == -15.0 and p.bounds.upper[0] == 30.0
        assert get_problem("schwefel-max", 2).orientation is Orientation.MAXIMIZE

    def test_unknown_name_mentions_registry(self):
        with pytest.raises(KeyError, match="ackley"):
            get_problem("sphere", 2)

    def test_schwefel_max_requires_two_dims(self):
        with pytest.raises(ValueError):
            get_problem("schwefel-max", 3)

    def test_batch_matches_scalar_path(self, rng):
        for name in list_problems():
            n = 2 if name == "schwefel-max" else 5
            p = get_problem(name, n)
            X = rng.uniform(p.bounds.lower, p.bounds.upper, size=(40, n))
            batch = p.batch(X)
            pointwise = [float(p.fn(row)) for row in X]
            np.testing.assert_allclose(batch, pointwise, rtol=1e-12)


class TestDerivatives:
    @pytest.mark.parametrize("name", ["ackley", "rastrigin", "schwefel"])
    def test_ad_matches_finite_differences(self, name, rng):
        p = get_problem(name, 3)
        plain = lambda x: float(p.batch(x[None, :])[0])
        for _ in range(25):
            x = rng.uniform(p.bounds.lower, p.bounds.upper)
            _, grad, hess = evaluate(p.fn, x)
            assert max_relative_error(grad, fd_gradient(plain, x)) < 1e-6
            assert max_relative_error(hess, fd_hessian(plain, x)) < 1e-4


class TestOneDefinition:
    """One numpy-style definition per objective is both the batch and the AD
    route; the reference forms above are the oracles."""

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_batch_is_bitwise_the_reference(self, name, n, rng):
        fn, batch_ref, _, (lo, hi) = REFERENCES[name]
        X = rng.uniform(lo, hi, size=(200, n))
        assert np.array_equal(fn(X), batch_ref(X))
        if name != "schwefel-max" or n == 2:
            problem = get_problem("schwefel" if name == "schwefel-min" else name, n)
            assert np.array_equal(problem.batch(X), batch_ref(X))

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_derivatives_match_the_per_element_form(self, name, n, rng):
        fn, _, scalar_ref, (lo, hi) = REFERENCES[name]
        for _ in range(10):
            x = rng.uniform(lo, hi, size=n)
            value, grad, hess = evaluate(fn, x)
            _, grad_ref, hess_ref = evaluate(lambda v: scalar_ref(list(v)), x)
            assert max_relative_error(grad, grad_ref) < 1e-12
            assert max_relative_error(hess, hess_ref) < 1e-12
            assert np.array_equal(np.asarray(hess), np.asarray(hess).T)

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("n", [3, 10])
    def test_ad_value_is_bitwise_the_batch_value(self, name, n, rng):
        fn, _, _, (lo, hi) = REFERENCES[name]
        X = rng.uniform(lo, hi, size=(200, n))
        batch = fn(X)
        for x, expected in zip(X, batch):
            assert evaluate(fn, x)[0] == expected

    @pytest.mark.parametrize("name", ["schwefel-min", "schwefel-max"])
    def test_schwefel_kinks_zero_their_elements(self, name, rng):
        fn, _, scalar_ref, (lo, hi) = REFERENCES[name]
        x = rng.uniform(lo, hi, size=6)
        x[[1, 4]] = 0.0
        v = ad.ADVector(x, np.ones(6), np.zeros(6))
        out = fn(v)
        assert out.nonsmooth is True
        assert out.value == fn(x[None, :])[0]
        assert out.grad[1] == out.grad[4] == 0.0
        hess = np.asarray(out.hess)
        assert not hess[[1, 4]].any() and not hess[:, [1, 4]].any()
        _, grad_ref, hess_ref = evaluate(lambda u: scalar_ref(list(u)), x)
        assert max_relative_error(out.grad, grad_ref) < 1e-12
        assert max_relative_error(out.hess, hess_ref) < 1e-12
        assert fn(ad.ADVector(x + 1.0, np.ones(6), np.zeros(6))).nonsmooth is False

    def test_ackley_origin_is_a_kink(self):
        out = ackley(ad.ADVector(np.zeros(3), np.ones(3), np.zeros(3)))
        assert out.nonsmooth is True
        assert out.value == ackley(np.zeros((1, 3)))[0]
        assert not out.grad.any()
