"""Forward-mode AD: propagation rules, worked values, invariants."""

import math

import numpy as np
import pytest

from ecsqp import autodiff as ad
from ecsqp.autodiff import ADDomainError, ADScalar, ADVector, evaluate
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
        assert (v.value, v.grad[0], v.hess[0, 0]) == (0.0, 1.0, 0.0)

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
        assert not hess.any()

    def test_constant_objective_has_zero_derivatives(self):
        value, grad, hess = evaluate(lambda v: 4.0, [1.0, 2.0])
        assert value == 4.0
        assert not grad.any() and not hess.any() and hess.shape == (2, 2)

    def test_self_difference_vanishes(self):
        a = variables([3.7, 0.0])[0]
        z = a - a
        assert z.value == 0.0 and not z.grad.any() and not z.hess.any()

    def test_product_worked_values(self):
        # x1*x2 at (pi, pi/2)
        value, grad, hess = evaluate(lambda v: v[0] * v[1], [PI, PI / 2])
        assert value == pytest.approx(PI**2 / 2, abs=1e-14)
        np.testing.assert_allclose(grad, [PI / 2, PI], atol=1e-14)
        np.testing.assert_allclose(hess, [[0, 1], [1, 0]], atol=1e-14)

    def test_square_matches_analytic(self):
        value, grad, hess = evaluate(lambda v: v[0] * v[0], [3.0])
        assert (value, grad[0], hess[0, 0]) == (9.0, 6.0, 2.0)

    def test_multiply_by_constant_one_is_identity(self):
        a = variables([1.3, 0.0])[0]
        b = a * 1.0
        assert b.value == a.value
        np.testing.assert_array_equal(b.grad, a.grad)

    def test_reciprocal(self):
        value, grad, hess = evaluate(lambda v: 1.0 / v[0], [2.0])
        assert value == 0.5
        assert grad[0] == pytest.approx(-0.25)
        assert hess[0, 0] == pytest.approx(0.25)

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
        assert (value, grad[0], hess[0, 0]) == (8.0, 12.0, 12.0)
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
        assert hess[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_exp_at_zero(self):
        value, grad, hess = evaluate(lambda v: ad.exp(v[0]), [0.0])
        assert (value, grad[0], hess[0, 0]) == (1.0, 1.0, 1.0)

    def test_log_domain(self):
        with pytest.raises(ADDomainError):
            evaluate(lambda v: ad.log(v[0]), [0.0])

    def test_sqrt_and_abs_flag_the_origin(self):
        s = ad.sqrt(variables([0.0])[0])
        assert s.value == 0.0 and s.nonsmooth
        assert not s.grad.any() and not s.hess.any()
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
            _, _, hess = evaluate(f, x)
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
