"""Forward-mode AD: propagation rules, worked values, invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsqp import autodiff as ad
from ecsqp.autodiff import ADDomainError, ADScalar, ADVector, Hessian, evaluate
from ecsqp.benchmarks import ackley, rastrigin, schwefel_max, schwefel_min
from ecsqp.fdcheck import fd_gradient, fd_hessian, max_relative_error

PI = math.pi


def variables(x0):
    """The independent variables at ``x0``, seeded as :func:`evaluate` does."""
    x0 = np.asarray(x0, dtype=float)
    return ADVector(x0, np.ones(x0.size), np.zeros(x0.size))


class TestSeeding:
    def test_variable_carries_identity_row(self):
        x = variables([PI, 0.5])
        v = x[0]
        assert type(v) is ADScalar
        assert v.value == PI
        np.testing.assert_array_equal(v.grad, [1.0, 0.0])
        np.testing.assert_array_equal(v.hess, np.zeros((2, 2)))
        np.testing.assert_array_equal(x[1].grad, [0.0, 1.0])

    def test_one_dimensional_variable(self):
        v = variables([0.0])[0]
        assert (v.value, v.grad[0], np.asarray(v.hess)[0, 0]) == (0.0, 1.0, 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            variables([0.0, 0.0])[2]

    def test_mixing_nodes_raises(self):
        two, three = variables([1.0, 2.0]), variables([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            two + three
        with pytest.raises(ValueError):
            two * two[0]
        with pytest.raises(ValueError):
            two[0] - two

    def test_numpy_scalar_on_the_left_defers(self):
        v = variables([1.0, -2.0])
        out = np.float64(2.0) * v
        assert type(out) is ADVector
        np.testing.assert_array_equal(out.value, [2.0, -4.0])
        np.testing.assert_array_equal(out.grad, [2.0, 2.0])
        with pytest.raises(TypeError):  # not an object array of nodes
            np.ones(2) * v


class TestArithmetic:
    def test_linear_combination_has_zero_hessian(self):
        value, grad, hess = evaluate(lambda v: v[0] + v[1], [1.0, 2.0])
        assert value == 3.0
        np.testing.assert_array_equal(grad, [1.0, 1.0])
        assert not np.asarray(hess).any()

    def test_constant_objective_has_zero_derivatives(self):
        value, grad, hess = evaluate(lambda v: 4.0, [1.0, 2.0])
        assert value == 4.0
        assert not grad.any() and not np.asarray(hess).any() and np.asarray(hess).shape == (2, 2)

    def test_self_difference_vanishes(self):
        a = variables([3.7, 0.0])[0]
        z = a - a
        assert z.value == 0.0 and not z.grad.any() and not np.asarray(z.hess).any()

    def test_product_worked_values(self):
        # x1*x2 at (pi, pi/2)
        value, grad, hess = evaluate(lambda v: v[0] * v[1], [PI, PI / 2])
        assert value == pytest.approx(PI**2 / 2, abs=1e-14)
        np.testing.assert_allclose(grad, [PI / 2, PI], atol=1e-14)
        np.testing.assert_allclose(hess, [[0, 1], [1, 0]], atol=1e-14)

    def test_square_matches_analytic(self):
        value, grad, hess = evaluate(lambda v: v[0] * v[0], [3.0])
        assert (value, grad[0], np.asarray(hess)[0, 0]) == (9.0, 6.0, 2.0)

    def test_multiply_by_constant_one_is_identity(self):
        a = variables([1.3, 0.0])[0]
        b = a * 1.0
        assert b.value == a.value
        np.testing.assert_array_equal(b.grad, a.grad)

    def test_reciprocal(self):
        value, grad, hess = evaluate(lambda v: 1.0 / v[0], [2.0])
        assert value == 0.5
        assert grad[0] == pytest.approx(-0.25)
        assert np.asarray(hess)[0, 0] == pytest.approx(0.25)

    def test_division_matches_product_rule_route(self, rng):
        for _ in range(50):
            x = rng.uniform(0.2, 3.0, size=2)
            f1 = evaluate(lambda v: v[0] / v[1], x)
            f2 = evaluate(lambda v: v[0] * (v[1] ** -1), x)
            assert f1[0] == pytest.approx(f2[0], rel=1e-14)
            np.testing.assert_allclose(f1[1], f2[1], atol=1e-13)
            np.testing.assert_allclose(f1[2], f2[2], atol=1e-13)

    def test_integer_powers(self):
        value, grad, hess = evaluate(lambda v: v[0] ** 3, [2.0])
        assert (value, grad[0], np.asarray(hess)[0, 0]) == (8.0, 12.0, 12.0)
        value, grad, hess = evaluate(lambda v: v[0] ** -2, [2.0])
        assert value == 0.25
        assert grad[0] == pytest.approx(-0.25)
        with pytest.raises(ADDomainError):
            evaluate(lambda v: v[0] ** -1, [0.0])

    def test_fractional_power_requires_positive_base(self):
        value, grad, _ = evaluate(lambda v: v[0] ** 0.5, [4.0])
        assert value == 2.0 and grad[0] == pytest.approx(0.25)
        with pytest.raises(ADDomainError):
            evaluate(lambda v: v[0] ** 0.5, [-1.0])


class TestFunctions:
    def test_sine_at_pi(self):
        value, grad, hess = evaluate(lambda v: ad.sin(v[0]), [PI])
        assert value == pytest.approx(0.0, abs=1e-12)
        assert grad[0] == -1.0
        assert np.asarray(hess)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_exp_at_zero(self):
        value, grad, hess = evaluate(lambda v: ad.exp(v[0]), [0.0])
        assert (value, grad[0], np.asarray(hess)[0, 0]) == (1.0, 1.0, 1.0)

    def test_log_domain(self):
        with pytest.raises(ADDomainError):
            evaluate(lambda v: ad.log(v[0]), [0.0])

    @pytest.mark.parametrize("f, x", [
        (lambda v: ad.log(v[0]), 6.9e-213),
        (lambda v: 1.0 / v[0], 1e-160),
        (lambda v: v[0] ** -2, 1e-160),
        (lambda v: v[0] ** -2.5, 1e-160),
    ], ids=["log", "reciprocal", "integer-power", "fractional-power"])
    def test_derivative_beyond_float_range_is_a_domain_error(self, f, x):
        # the chain rule divides by a power of x that underflows to zero, or
        # raises one that overflows; a local phase degrades on ADDomainError
        with pytest.raises(ADDomainError) as info:
            evaluate(f, [x])
        assert info.value.value == x

    @pytest.mark.parametrize("f, x, op, value", [
        (lambda v: ad.sqrt(v[0]), [1e-300, 1.0], "sqrt", 1e-300),
        (lambda v: ad.sqrt(v).sum(), [1.0, 1e-300], "sqrt", 1e-300),
        (lambda v: ad.log(v).sum(), [6.9e-213, 1.0], "log", 6.9e-213),
        (lambda v: (1.0 / v).sum(), [1e-160, 1.0], "div", 1e-160),
        (lambda v: ad.exp(v[0]), [710.0, 1.0], "exp", 710.0),
        (lambda v: ad.exp(v).sum(), [1.0, 710.0], "exp", 710.0),
        (lambda v: v[0] / v[1], [1.0, 1e-160], "div", 1e-160),
        (lambda v: ((v + 1.0) / v).sum(), [1.0, 1e-160], "div", 1e-160),
    ], ids=["sqrt", "vector-sqrt", "vector-log", "vector-reciprocal", "exp", "vector-exp",
            "quotient", "vector-quotient"])
    def test_map_leaving_the_float_range_is_a_domain_error(self, f, x, op, value):
        # scalar and vector nodes alike: a non-finite value or derivative of
        # the map raises at its input instead of entering the Hessian
        with pytest.raises(ADDomainError) as info:
            evaluate(f, x)
        assert (info.value.op, info.value.value) == (op, value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [[708.0, 708.0, 708.0], [709.5, 0.0]],
                             ids=["across-elements", "within-an-element"])
    def test_finite_map_whose_check_sum_overflows_is_no_domain_error(self, x):
        # exp's value, slope and curvature are finite, but adding them up
        # (over the elements, or within one at 709.5) passes the float range
        node = ad.exp(variables(x))
        assert np.isfinite(node.value).all() and np.isfinite(node.hess).all()
        value, grad, hess = evaluate(lambda v: ad.exp(v).sum(), x)
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert np.isfinite(np.asarray(hess)).all()

    def test_ackley_near_the_origin_is_a_domain_error(self):
        # sqrt of mean(x^2) = 1e-320: its second derivative divides by an
        # underflowed 0
        with pytest.raises(ADDomainError) as info:
            evaluate(ackley, np.full(10, 1e-160))
        assert info.value.op == "sqrt"
        value, grad, hess = evaluate(ackley, np.full(10, 1e-100))
        assert np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(np.asarray(hess)).all()

    def test_sqrt_and_abs_flag_the_origin(self):
        s = ad.sqrt(variables([0.0])[0])
        assert s.value == 0.0 and s.nonsmooth
        assert not s.grad.any() and not np.asarray(s.hess).any()
        a = ad.fabs(variables([0.0])[0])
        assert a.nonsmooth
        smooth = ad.fabs(variables([-2.0])[0])
        assert smooth.value == 2.0 and smooth.grad[0] == -1.0 and not smooth.nonsmooth

    def test_vector_kinks_are_per_element(self):
        s = ad.sqrt(variables([0.0, 4.0]))
        assert s.nonsmooth
        np.testing.assert_array_equal(s.value, [0.0, 2.0])
        np.testing.assert_array_equal(s.grad, [0.0, 0.25])
        np.testing.assert_array_equal(s.hess, [0.0, -1.0 / 32.0])
        a = ad.fabs(variables([0.0, -2.0]))
        assert a.nonsmooth
        np.testing.assert_array_equal(a.grad, [0.0, -1.0])
        assert not ad.fabs(variables([1.0, -2.0])).nonsmooth

    def test_plain_number_dispatch(self):
        assert ad.sin(0.0) == 0.0
        assert ad.sqrt(4.0) == 2.0
        assert ad.fabs(-3.0) == 3.0


class TestWorkedExample:
    def test_product_sine_constant_expression(self):
        # f = x1*x2 + sin(x1) + 4 at (pi, pi/2); the symbolic derivation gives
        # gradient [(pi-2)/2, pi] (the first entry's numerator is pi-2, not
        # pi^2-2) and an antidiagonal unit Hessian.
        f = lambda v: v[0] * v[1] + ad.sin(v[0]) + 4.0
        value, grad, hess = evaluate(f, [PI, PI / 2])
        assert value == pytest.approx((PI**2 + 8) / 2, abs=1e-12)
        assert grad[0] == pytest.approx((PI - 2) / 2, abs=1e-12)
        assert grad[1] == pytest.approx(PI, abs=1e-12)
        np.testing.assert_allclose(hess, [[0, 1], [1, 0]], atol=1e-12)


class TestInvariants:
    def test_linearity(self, rng):
        f = lambda v: v[0] * v[1] + ad.sin(v[0])
        g = lambda v: ad.exp(v[1]) - v[0] ** 2
        for _ in range(30):
            alpha, beta = rng.normal(size=2)
            x = rng.uniform(-1.5, 1.5, size=2)
            combo = evaluate(lambda v: alpha * f(v) + beta * g(v), x)
            fa, fg, fh = evaluate(f, x)
            ga, gg, gh = evaluate(g, x)
            assert combo[0] == pytest.approx(alpha * fa + beta * ga, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(combo[1], alpha * fg + beta * gg, atol=1e-12)
            np.testing.assert_allclose(combo[2], alpha * fh + beta * gh, atol=1e-12)

    def test_product_rule_closure(self, rng):
        f = lambda v: v[0] ** 2 + ad.cos(v[1])
        g = lambda v: ad.exp(0.3 * v[0]) + v[1]
        for _ in range(30):
            x = rng.uniform(-1.5, 1.5, size=2)
            pv, pg, ph = evaluate(lambda v: f(v) * g(v), x)
            fv, fg, fh = evaluate(f, x)
            gv, gg, gh = evaluate(g, x)
            assert pv == pytest.approx(fv * gv, abs=1e-12)
            np.testing.assert_allclose(pg, fv * gg + gv * fg, atol=1e-12)
            expected_h = fv * gh + gv * fh + np.outer(fg, gg) + np.outer(gg, fg)
            np.testing.assert_allclose(ph, expected_h, atol=1e-12)

    def test_hessian_exactly_symmetric(self, rng):
        f = lambda v: ad.exp(v[0] * v[1]) / (v[2] + 2.0) + ad.sin(v[0]) * v[2] ** 3
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, size=3)
            hess = np.asarray(evaluate(f, x)[2])
            assert np.array_equal(hess, hess.T)

    def test_constants_stay_flat_through_expressions(self):
        def f(v):
            c = 2.5  # plain constant woven through several operations
            return (c * v[0] + c) * (v[0] - c) / c

        _, grad, hess = evaluate(f, [1.7])
        fd_g = fd_gradient(lambda x: (2.5 * x[0] + 2.5) * (x[0] - 2.5) / 2.5, np.array([1.7]))
        assert max_relative_error(grad, fd_g) < 1e-9

    def test_dimension_mismatch_raises_eagerly(self):
        a = variables([1.0, 0.0])[0]
        b = variables([1.0, 0.0, 0.0])[0]
        with pytest.raises(ValueError):
            a + b

    def test_gradient_matches_finite_differences(self, rng):
        f_ad = lambda v: v[0] * v[1] + ad.sin(v[0]) * ad.exp(-v[1] ** 2)
        f_plain = lambda x: x[0] * x[1] + math.sin(x[0]) * math.exp(-x[1] ** 2)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            _, grad, hess = evaluate(f_ad, x)
            assert max_relative_error(grad, fd_gradient(f_plain, x)) < 1e-8
            assert max_relative_error(hess, fd_hessian(f_plain, x)) < 1e-6


# ---------------------------------------------------------------------------
# structured Hessians against the dense forward arithmetic
# ---------------------------------------------------------------------------


class DenseNode:
    """Forward-mode AD with a dense ``n x n`` Hessian built from ``np.outer``:
    the arithmetic ``ADScalar`` had before its Hessian was structured, kept
    as the oracle for :class:`Hessian`."""

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = float(value), grad, hess

    def chain(self, value, d1, d2):
        hess = d1 * self.hess + d2 * np.outer(self.grad, self.grad)
        return DenseNode(value, d1 * self.grad, hess)

    def __add__(self, other):
        if isinstance(other, DenseNode):
            return DenseNode(self.value + other.value, self.grad + other.grad,
                             self.hess + other.hess)
        return DenseNode(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return DenseNode(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, DenseNode):
            return DenseNode(self.value * other, self.grad * other, self.hess * other)
        hess = (
            other.value * self.hess
            + self.value * other.hess
            + np.outer(self.grad, other.grad)
            + np.outer(other.grad, self.grad)
        )
        grad = other.value * self.grad + self.value * other.grad
        return DenseNode(self.value * other.value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return DenseNode(self.value / c, self.grad / c, self.hess / c)


class Dense:
    """Elementary functions of :class:`DenseNode` (smooth points only)."""

    sin = staticmethod(lambda x: x.chain(math.sin(x.value), math.cos(x.value), -math.sin(x.value)))
    cos = staticmethod(lambda x: x.chain(math.cos(x.value), -math.sin(x.value), -math.cos(x.value)))
    exp = staticmethod(lambda x: x.chain(math.exp(x.value), math.exp(x.value), math.exp(x.value)))
    sqrt = staticmethod(lambda x: x.chain(math.sqrt(x.value), 0.5 / math.sqrt(x.value),
                                          -0.25 / (x.value * math.sqrt(x.value))))
    fabs = staticmethod(lambda x: x.chain(abs(x.value), math.copysign(1.0, x.value), 0.0))

    @staticmethod
    def variables(x0):
        n = len(x0)
        return [DenseNode(xi, np.eye(n)[i], np.zeros((n, n))) for i, xi in enumerate(x0)]


def ackley_per_element(x, m):
    n = len(x)
    sq = sum(xi * xi for xi in x) / n
    cs = sum(m.cos(2.0 * PI * xi) for xi in x) / n
    return 20.0 + math.e - 20.0 * m.exp(-0.2 * m.sqrt(sq)) - m.exp(cs)


def rastrigin_per_element(x, m):
    return 10.0 * len(x) + sum(xi * xi - 10.0 * m.cos(2.0 * PI * xi) for xi in x)


def schwefel_max_per_element(x, m):
    return sum(xi * m.sin(m.sqrt(m.fabs(xi))) for xi in x)


def schwefel_min_per_element(x, m):
    return 418.9829 * len(x) - schwefel_max_per_element(x, m)


OBJECTIVES = {
    "ackley": (ackley, ackley_per_element, 30.0),
    "rastrigin": (rastrigin, rastrigin_per_element, 5.12),
    "schwefel-min": (schwefel_min, schwefel_min_per_element, 500.0),
    "schwefel-max": (schwefel_max, schwefel_max_per_element, 500.0),
}


def product_loop(v, m, n):
    """Sum of neighbour products and a sine: k grows by 2 per product."""
    acc = m.sin(v[0])
    for i in range(1, n):
        acc = acc + v[i - 1] * v[i] * 0.5
    return acc


def assert_matches_dense(f, x, reference):
    value, grad, hess = evaluate(f, x)
    expected = reference(Dense.variables(x), Dense)
    assert isinstance(hess, Hessian) and hess.k <= hess.n
    assert value == pytest.approx(expected.value, rel=1e-12, abs=1e-12)
    assert max_relative_error(grad, expected.grad) < 1e-12
    assert max_relative_error(np.asarray(hess), expected.hess) < 1e-12
    return hess


class TestStructuredHessian:
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_objectives_match_dense_arithmetic(self, name, n, rng):
        fn, per_element, half_width = OBJECTIVES[name]
        for _ in range(3 if n == 100 else 10):
            x = rng.uniform(-half_width, half_width, size=n)
            hess = assert_matches_dense(fn, x, per_element)
            # sums of elementwise terms are diagonal; Ackley adds 3 columns
            assert hess.k == (min(3, n) if name == "ackley" else 0)

    def test_indexing_objective_folds(self, rng):
        f = lambda v, m=ad: v[0] * v[1] + m.sin(v[0])
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=2)
            hess = assert_matches_dense(f, x, lambda v, m: v[0] * v[1] + m.sin(v[0]))
            assert hess.k == 2  # 2 product columns + 1 chain column > n folded
            np.testing.assert_array_equal(hess.U, np.eye(2))

    @pytest.mark.parametrize("n", [3, 12])
    def test_product_loop_folds(self, n, rng):
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=n)
            hess = assert_matches_dense(lambda v: product_loop(v, ad, n), x,
                                        lambda v, m: product_loop(v, m, n))
            assert hess.k == n

    def test_columns_per_operation(self):
        x = variables([0.3, -1.2, 2.0])
        total = (x * x).sum()
        assert total.hess.k == 0
        assert ad.exp(total).hess.k == 1
        assert (x[0] * x[1]).hess.k == 2
        assert (ad.exp(total) + ad.sin(x[2])).hess.k == 2
        assert (x.mean() / x[1]).hess.k == 2

    def test_matvec_and_dense_round_trip(self, rng):
        n = 7
        H = Hessian(rng.normal(size=n), rng.normal(size=(n, 3)), np.diag([1.0, -2.0, 0.5]))
        dense = np.asarray(H)
        assert np.array_equal(dense, dense.T)
        s = rng.normal(size=n)
        np.testing.assert_allclose(H @ s, dense @ s, rtol=1e-12, atol=1e-12)
        again = Hessian.from_dense(dense)
        assert again.k == n
        np.testing.assert_array_equal(again.d, np.diag(dense))
        np.testing.assert_array_equal(np.asarray(again), dense)

    def test_scaling(self, rng):
        n = 4
        H = Hessian(rng.normal(size=n), rng.normal(size=(n, 2)), np.array([[0.0, 1.0], [1.0, 0.0]]))
        dense = np.asarray(H)
        np.testing.assert_allclose(np.asarray(-2.5 * H), -2.5 * dense, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(np.asarray(H / 4.0), dense / 4.0, rtol=1e-14, atol=1e-14)

    def test_constructor_converts_and_checks_u_and_c(self):
        d = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="both U and C"):
            Hessian(d, np.ones((3, 1)))
        with pytest.raises(ValueError, match="both U and C"):
            Hessian(d, None, np.ones((1, 1)))
        H = Hessian([1, 2, 3], [[1], [0], [2]], [[3]])
        assert H.U.dtype == H.C.dtype == float and H.k == 1
        np.testing.assert_array_equal(np.asarray(H), np.diag(d) + 3.0 * np.outer([1, 0, 2], [1, 0, 2]))
        with pytest.raises(ValueError):
            Hessian(d, np.ones(3), np.ones((1, 1)))  # a 1-D U
        with pytest.raises(ValueError):
            Hessian(2.0)

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ValueError):
            Hessian(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Hessian(np.zeros(3)) + Hessian(np.zeros(2))
        with pytest.raises(ValueError):
            Hessian.from_dense(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# the scalar fast paths against the generic routes
# ---------------------------------------------------------------------------


def scalar_node(seed: int, value: float) -> ADScalar:
    """An ADScalar at ``value`` with a random gradient and a random Hessian
    of ``0 <= k <= n`` columns (``k = n`` folds on the next chain step)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    k = int(rng.integers(0, n + 1))
    C = rng.normal(size=(k, k))
    hess = Hessian(rng.normal(size=n), rng.normal(size=(n, k)), C + C.T)
    return ADScalar(value, rng.normal(size=n), hess)


def chained_by_blocks(x: ADScalar, value, d1, d2) -> ADScalar:
    """The chain rule through the generic Hessian operations: scale, then
    append the gradient column with ``plus_low_rank``."""
    hess = (x.hess * float(d1)).plus_low_rank(x.grad[:, None], np.array([[float(d2)]]))
    return ADScalar(value, d1 * x.grad, hess, x.nonsmooth)


def assert_same_bits(got: ADScalar, want: ADScalar) -> None:
    assert type(got) is type(want)
    assert float(got.value).hex() == float(want.value).hex()
    for a, b in ((got.grad, want.grad), (got.hess.d, want.hess.d),
                 (got.hess.U, want.hess.U), (got.hess.C, want.hess.C)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.nonsmooth == want.nonsmooth


# each elementary map's (value, d1, d2), every map evaluated on its own
SEPARATE_MAPS = {
    "sqrt": lambda v: (np.sqrt(v), 0.5 / np.sqrt(v), -0.25 / (v * np.sqrt(v))),
    "exp": lambda v: (np.exp(v), np.exp(v), np.exp(v)),
    "cos": lambda v: (np.cos(v), -np.sin(v), -np.cos(v)),
    "log": lambda v: (np.log(v), 1.0 / v, -1.0 / (v * v)),
}
# a Fraction has no signed zero, so -0.0 + Fraction(0) is 0.0 where -0.0 + 0.0
# is -0.0: numbers are drawn without the sign of a zero
VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)
PLAIN = VALUES | st.integers(-1000, 1000)


# at extreme values a map overflows or divides by zero in numpy floats, and these
# tests call the maps outside the evaluate sweep that turns numpy's warnings off
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestScalarFastPaths:
    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           value=st.floats(0.0, exclude_min=True, allow_infinity=False),
           name=st.sampled_from(sorted(SEPARATE_MAPS)))
    def test_elementary_maps_match_the_generic_chain(self, seed, value, name):
        x = scalar_node(seed, value)
        maps = SEPARATE_MAPS[name](np.float64(value))
        if not np.isfinite(maps).all():
            with pytest.raises(ADDomainError) as info:
                getattr(ad, name)(x)
            assert info.value.value == value
        else:
            assert_same_bits(getattr(ad, name)(x), chained_by_blocks(x, *maps))

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), value=VALUES, c=PLAIN)
    def test_plain_operand_matches_a_foreign_one(self, seed, value, c):
        # np.float64 and Fraction take the generic route: the Real ABC test
        x = scalar_node(seed, value)
        for foreign in (np.float64(c), Fraction(c)):
            assert_same_bits(x + c, x + foreign)
            assert_same_bits(c + x, foreign + x)
            assert_same_bits(x - c, x - foreign)
            assert_same_bits(c - x, foreign - x)
            assert_same_bits(x * c, x * foreign)
            assert_same_bits(c * x, foreign * x)
            if c != 0:
                assert_same_bits(x / c, x / foreign)

    def test_sqrt_at_the_kink_keeps_the_flag(self):
        x = scalar_node(5, 0.0)
        out = ad.sqrt(x)
        assert out.nonsmooth and out.value == 0.0
        assert not out.grad.any() and not np.asarray(out.hess).any()
