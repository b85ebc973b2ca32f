"""Newton directions, Wolfe steps, box-QP subproblems, full solver runs."""

import itertools
import math

import numpy as np
import pytest

from ecsqp import autodiff as ad
from ecsqp.autodiff import Hessian
from ecsqp.benchmarks import get_problem
from ecsqp.fdcheck import fd_gradient
from ecsqp.local_search import (
    BOUNDARY_FRACTION,
    LAMBDA_MIN,
    BoundBox,
    LineSearchError,
    SQPConfig,
    _fraction_to_boundary,
    _solve,
    ipm_qp_solve,
    newton_direction,
    regularize_hessian,
    sqp_run,
    wolfe_line_search,
)


def quadratic(Q, b):
    """AD objective 0.5 x'Qx - b'x for a symmetric matrix Q."""
    n = len(b)

    def f(v):
        acc = 0.0
        for i in range(n):
            acc = acc + 0.5 * Q[i, i] * v[i] * v[i] - b[i] * v[i]
            for j in range(i + 1, n):
                acc = acc + Q[i, j] * v[i] * v[j]
        return acc

    return f


def random_spd(rng, n, spread=2.0):
    A = rng.normal(size=(n, n))
    return A @ A.T + spread * np.eye(n)


class TestNewtonDirection:
    def test_identity_hessian(self):
        d, lam = newton_direction(np.array([3.0, -4.0]), np.eye(2))
        np.testing.assert_allclose(d, [-3.0, 4.0])
        assert lam == 0.0

    def test_lands_on_quadratic_minimizer(self, rng):
        for _ in range(20):
            Q = random_spd(rng, 3)
            b = rng.normal(size=3)
            x = rng.normal(size=3)
            grad = Q @ x - b
            d, lam = newton_direction(grad, Q)
            x_star = np.linalg.solve(Q, b)  # independent solve
            np.testing.assert_allclose(x + d, x_star, atol=1e-9)
            assert lam == 0.0

    def test_indefinite_hessian_regularized_to_descent(self):
        d, lam = newton_direction(np.array([1.0, 0.0]), -np.eye(2))
        assert d @ np.array([1.0, 0.0]) < 0.0
        assert 0 < lam < math.inf

    def test_zero_gradient_returns_zero_step(self):
        d, lam = newton_direction(np.zeros(2), np.eye(2))
        assert not d.any()

    def test_regularize_ladder_gives_up(self):
        H = np.array([[-1e12]])
        H_pd, lam = regularize_hessian(H, 1e-6)
        assert H_pd is None and lam == math.inf


class TestWolfeLineSearch:
    def test_parabola_midpoint(self):
        phi = lambda a: a * a - a
        dphi = lambda a: 2 * a - 1
        alpha = wolfe_line_search(phi, dphi, c1=1e-4, c2=0.9)
        # whatever step is returned must satisfy both conditions
        assert phi(alpha) <= phi(0) + 1e-4 * alpha * dphi(0)
        assert dphi(alpha) >= 0.9 * dphi(0)
        assert 0 < alpha <= 1

    def test_unit_step_taken_when_admissible(self):
        # strongly convex with minimizer at 1: alpha=1 satisfies both
        phi = lambda a: (a - 1.0) ** 2
        dphi = lambda a: 2.0 * (a - 1.0)
        assert wolfe_line_search(phi, dphi) == 1.0

    def test_nondescent_slope_rejected(self):
        with pytest.raises(ValueError):
            wolfe_line_search(lambda a: a, lambda a: 1.0)

    def test_steep_function_backtracks(self):
        # sufficient decrease fails at 1, forcing interpolation
        phi = lambda a: 100 * a * a - a
        dphi = lambda a: 200 * a - 1
        alpha = wolfe_line_search(phi, dphi)
        assert phi(alpha) <= phi(0) + 1e-4 * alpha * dphi(0)
        assert dphi(alpha) >= 0.9 * dphi(0)

    def test_failure_signalled(self):
        # function that only increases beyond any representable decrease
        phi = lambda a: 0.0 if a == 0 else 1.0
        dphi = lambda a: -1.0
        with pytest.raises(LineSearchError):
            wolfe_line_search(phi, dphi, max_evals=10)


class TestIpmQpSolve:
    def test_inactive_bounds_match_unconstrained(self, rng):
        for _ in range(20):
            H = random_spd(rng, 3, spread=1.0)
            g = rng.normal(size=3)
            box = BoundBox(np.full(3, -50.0), np.full(3, 50.0))
            s = ipm_qp_solve(g, H, box)
            np.testing.assert_allclose(s, np.linalg.solve(H, -g), atol=1e-6)

    def test_active_upper_bound_one_dim(self):
        # analytic constrained minimizer of -10 s + s^2 on [-1, 1] is s = 1
        s = ipm_qp_solve(np.array([-10.0]), np.array([[2.0]]),
                         BoundBox(np.array([-1.0]), np.array([1.0])))
        assert abs(s[0] - 1.0) < 1e-3
        assert -1.0 < s[0] < 1.0  # strictly interior

    def test_zero_gradient_stays_near_origin(self):
        s = ipm_qp_solve(np.zeros(2), np.eye(2),
                         BoundBox(np.full(2, -1.0), np.full(2, 1.0)))
        assert np.max(np.abs(s)) < 1e-6

    def test_strict_feasibility_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            H = random_spd(rng, n, spread=0.5)
            g = rng.normal(size=n) * 10
            lb = -rng.uniform(0.1, 2.0, size=n)
            ub = rng.uniform(0.1, 2.0, size=n)
            s = ipm_qp_solve(g, H, BoundBox(lb, ub))
            assert np.all(s > lb) and np.all(s < ub)

    def test_ill_conditioned_subproblem_stops_stalled_centring(self, monkeypatch):
        # Ackley n=10 just off its kink at 0: cond(H) ~ 6e6, max|H| ~ 6e7.
        # The residual cannot reach 1e-3*mu in floating point for small mu,
        # so centring once ran all 50 Newton steps per weight (205 solves).
        problem = get_problem("ackley", 10)
        x = 1e-8 * np.linspace(-1.0, 1.0, 10) + 1e-9
        _, g, H = ad.evaluate(problem.fn, x)
        H, lam = regularize_hessian(H, 1e-6)
        assert lam == 0.0
        box = BoundBox(problem.bounds.lower - x, problem.bounds.upper - x)
        solve = np.linalg.solve
        solves = 0

        def counting_solve(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        s = ipm_qp_solve(g, H, box)
        assert box.contains_strict(s)
        model = g @ s + 0.5 * s @ H @ s
        assert model == pytest.approx(-0.07510790059824128, rel=1e-9)  # as with 205 solves
        assert solves <= 30

    def test_singular_hessian_falls_back_to_steepest_descent(self):
        # H + mu*D is exactly singular at s = 0, mu = 1, and so is H itself
        g = np.array([1.0, 1.0])
        H = np.diag([-2.0, 0.0])
        box = BoundBox(np.full(2, -1.0), np.full(2, 1.0))
        s = ipm_qp_solve(g, H, box)
        np.testing.assert_array_equal(s, -0.995 * g)  # -g cut to the boundary fraction
        assert box.contains_strict(s)

    def test_step_next_to_a_bound_does_not_round_onto_it(self):
        # Schwefel n=10 with x_1 6e-9 inside its lower bound: a step that
        # leaves s_1 - lb_1 near 1e-20 makes x_1 + s_1 round onto -500
        problem = get_problem("schwefel", 10)
        lower, upper = problem.bounds.lower, problem.bounds.upper
        x = np.full(10, 420.9687463)
        x[0] = -499.99999999403667
        _, g, H = ad.evaluate(problem.fn, x)
        H, _ = regularize_hessian(H, LAMBDA_MIN)
        s = ipm_qp_solve(g, H, BoundBox(lower - x, upper - x))
        assert np.all(x + s > lower) and np.all(x + s < upper)

    @pytest.mark.parametrize("structured", [False, True])
    def test_matches_active_set_enumeration(self, rng, structured):
        active = free = 0
        for _ in range(150):
            n = int(rng.integers(1, 6))
            if structured:
                H = random_structured(rng, n, int(rng.integers(0, n + 1)))
            else:
                H = random_spd(rng, n, spread=0.5)
            g = rng.normal(size=n) * 5.0
            lb, ub = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
            best = box_qp_by_enumeration(g, np.asarray(H), lb, ub)
            s = ipm_qp_solve(g, H, BoundBox(lb, ub))
            assert np.all(s > lb) and np.all(s < ub)
            model = lambda v: g @ v + 0.5 * (v @ (np.asarray(H) @ v))
            assert model(s) == pytest.approx(model(best), rel=1e-7)
            at_bound = (best == lb) | (best == ub)
            active += int(at_bound.sum())
            free += int((~at_bound).sum())
        assert active > 50 and free > 50


def box_qp_by_enumeration(g, H, lb, ub):
    """Exact minimizer of ``g^T s + 0.5 s^T H s`` over ``[lb, ub]`` for a
    positive definite ``H``: every variable at its lower bound, its upper
    bound or free, keeping the best point whose free part is feasible."""
    n = len(g)
    best, best_value = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.array(pattern)
        s = np.where(pattern == 0, lb, ub)
        free = pattern == 2
        if free.any():
            rhs = -g[free] - H[np.ix_(free, ~free)] @ s[~free]
            s[free] = np.linalg.solve(H[np.ix_(free, free)], rhs)
            if np.any(s[free] < lb[free]) or np.any(s[free] > ub[free]):
                continue
        value = g @ s + 0.5 * (s @ H @ s)
        if value < best_value:
            best, best_value = s, value
    return best


def random_structured(rng, n, k, negative_diagonal=False):
    """A positive definite ``diag(d) + U C U^T`` with a negative semidefinite
    low-rank part, or (``negative_diagonal``) the ``k = n`` split of a
    positive definite matrix whose diagonal part has negative entries."""
    if negative_diagonal:
        A = random_spd(rng, n)
        d = np.diag(A) - np.where(np.arange(n) % 2 == 0, 2.0 * np.diag(A), 0.0)
        return Hessian(d, np.eye(n), A - np.diag(d))
    U = rng.normal(size=(n, k))
    C = -np.diag(rng.uniform(0.0, 1.0, k)) / (1.0 + np.sum(U * U, axis=0))
    return Hessian(rng.uniform(1.0, 3.0, n), U, C)


class TestWoodburySolve:
    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_matches_dense_solve(self, k, rng):
        for _ in range(20):
            W = random_structured(rng, 8, k)
            b = rng.normal(size=8)
            np.testing.assert_allclose(_solve(W, b), np.linalg.solve(np.asarray(W), b),
                                       rtol=1e-10, atol=1e-12)

    def test_k_equals_n_from_a_dense_matrix(self, rng):
        for _ in range(20):
            A = random_spd(rng, 6)
            b = rng.normal(size=6)
            np.testing.assert_allclose(_solve(Hessian.from_dense(A), b), np.linalg.solve(A, b),
                                       rtol=1e-10, atol=1e-12)

    def test_negative_diagonal_part_is_re_split(self, rng):
        for _ in range(20):
            W = random_structured(rng, 6, 6, negative_diagonal=True)
            assert np.any(W.d < 0.0)
            b = rng.normal(size=6)
            np.testing.assert_allclose(_solve(W, b), np.linalg.solve(np.asarray(W), b),
                                       rtol=1e-10, atol=1e-12)

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _solve(Hessian(np.array([1.0, -1.0])), np.ones(2))

    def test_positive_definiteness_matches_the_spectrum(self, rng):
        decided = 0
        for _ in range(300):
            n, k = int(rng.integers(1, 7)), int(rng.integers(0, 4))
            k = min(k, n)
            B = rng.normal(size=(k, k))
            W = Hessian(rng.uniform(-0.5, 2.0, n), rng.normal(size=(n, k)), B + B.T)
            lowest = np.linalg.eigvalsh(np.asarray(W))[0]
            if abs(lowest) < 1e-8:
                continue
            decided += 1
            assert (regularize_hessian(W, 1e-6)[1] == 0.0) == (lowest > 0.0)
        assert decided > 250

    def test_ipm_step_same_for_structured_and_dense(self, rng):
        problem = get_problem("ackley", 10)
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, size=10)
            _, g, H = ad.evaluate(problem.fn, x)
            H_pd, _ = regularize_hessian(H, 1e-6)
            assert H_pd.k == 3
            box = BoundBox(problem.bounds.lower - x, problem.bounds.upper - x)
            structured = ipm_qp_solve(g, H_pd, box)
            dense = ipm_qp_solve(g, np.asarray(H_pd), box)
            # both stop on the same residual tolerance, not on the same bits
            scale = np.max(np.abs(dense))
            np.testing.assert_allclose(structured, dense, rtol=0.0, atol=1e-7 * scale)
            model = lambda s: g @ s + 0.5 * (s @ (H_pd @ s))
            assert model(structured) == pytest.approx(model(dense), rel=1e-10)


def fraction_to_boundary_two_masks(s, p, lb, ub):
    """The fraction-to-boundary rule as two masked passes (the oracle)."""
    alpha = 1.0
    neg = p < 0
    pos = p > 0
    if np.any(neg):
        alpha = min(alpha, BOUNDARY_FRACTION * np.min((lb[neg] - s[neg]) / p[neg]))
    if np.any(pos):
        alpha = min(alpha, BOUNDARY_FRACTION * np.min((ub[pos] - s[pos]) / p[pos]))
    return alpha


def test_fraction_to_boundary_is_bitwise_the_two_mask_form(rng):
    n = 100
    for trial in range(5000):
        lb = -rng.uniform(0.1, 2.0, n)
        ub = rng.uniform(0.1, 2.0, n)
        s = rng.uniform(0.9 * lb, 0.9 * ub)
        p = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        p[rng.random(n) < 0.2] = 0.0
        if trial % 50 == 0:
            p[:] = 0.0
        assert _fraction_to_boundary(s, p, lb, ub) == fraction_to_boundary_two_masks(s, p, lb, ub)


class TestSqpRun:
    @pytest.mark.parametrize("bounded", [False, True])
    def test_nonfinite_start_raises_at_first_sweep(self, bounded):
        sweeps = 0

        def f(v):
            nonlocal sweeps
            sweeps += 1
            return (v * v).sum() * math.nan

        box = BoundBox(np.full(2, -5.0), np.full(2, 5.0)) if bounded else None
        with pytest.raises(ValueError, match="not finite"):
            sqp_run(f, [1.0, 2.0], box, SQPConfig())
        assert sweeps == 1

    def test_nan_trial_point_is_backtracked(self):
        # the unit Newton step of sum(x^2) lands on 0, where f is NaN
        def f(v):
            out = (v * v).sum()
            return out * math.nan if np.all(np.abs(v.value) < 1e-3) else out

        res = sqp_run(f, [1.0, -2.0], None, SQPConfig(max_iter=3))
        assert [it.alpha for it in res.trace] == [0.5, 0.5, 0.5]
        assert res.evaluations == 1 + 2 * 3
        np.testing.assert_allclose(res.x, [0.125, -0.25])

    def test_convex_quadratic_single_full_step(self, rng):
        Q = random_spd(rng, 2)
        b = rng.normal(size=2)
        res = sqp_run(quadratic(Q, b), [5.0, -7.0], None, SQPConfig())
        assert len(res.trace) == 1
        assert res.trace[0].alpha == 1.0
        np.testing.assert_allclose(res.x, np.linalg.solve(Q, b), atol=1e-8)

    def test_ackley_basin_from_small_start(self):
        # independent oracle: long-horizon gradient descent with a decaying
        # step lands at the origin, confirming the starting basin (the
        # nearest competing minimum sits near |x_i| = 1)
        p = get_problem("ackley", 2)
        plain = lambda x: float(p.batch(x[None, :])[0])
        x = np.array([0.1, -0.1])
        for k in range(4000):
            x = x - 0.02 / (1.0 + k / 200.0) * fd_gradient(plain, x)
        assert np.max(np.abs(x)) < 1e-2

        res = sqp_run(p.fn, [0.1, -0.1], None, SQPConfig())
        assert res.f < 1e-8
        assert len(res.trace) <= 25
        np.testing.assert_allclose(res.x, 0.0, atol=1e-4)

    def test_stationary_start_returns_immediately(self, rng):
        Q = random_spd(rng, 2)
        b = rng.normal(size=2)
        x_star = np.linalg.solve(Q, b)
        res = sqp_run(quadratic(Q, b), x_star, None, SQPConfig())
        assert len(res.trace) == 0
        assert res.stop_reason == "grad_tol"
        np.testing.assert_allclose(res.x, x_star)

    def test_box_keeps_iterates_strictly_interior(self):
        p = get_problem("rastrigin", 2)
        res = sqp_run(p.fn, [4.0, -4.0], p.bounds, SQPConfig())
        for it in res.trace:
            assert np.all(it.x > p.bounds.lower) and np.all(it.x < p.bounds.upper)

    def test_wolfe_postconditions_on_accepted_steps(self, rng):
        for _ in range(10):
            Q = random_spd(rng, 3)
            b = rng.normal(size=3)
            res = sqp_run(quadratic(Q, b), rng.normal(size=3) * 3, None, SQPConfig())
            assert all(it.wolfe_ok for it in res.trace)
            assert all(it.direction @ (it.grad - 0) <= 0 or it.alpha > 0 for it in res.trace)

    def test_monotone_decrease(self):
        p = get_problem("ackley", 2)
        res = sqp_run(p.fn, [2.3, 1.1], p.bounds, SQPConfig())
        values = [it.f for it in res.trace]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_delta_stopping_regime(self):
        p = get_problem("ackley", 2)
        res = sqp_run(p.fn, [2.3, 1.1], p.bounds, SQPConfig(stopping="delta"))
        assert res.stop_reason in ("delta_stall", "grad_tol", "step_tol")


class TestConvergenceRate:
    def test_q_quadratic_on_quartic_perturbed_quadratic(self, rng):
        # f(x) = 0.5 (x-a)'Q(x-a) + sum gamma_i (x_i-a_i)^4, minimizer exactly a
        Q = random_spd(rng, 2, spread=1.0)
        a = np.array([0.3, -0.8])
        gamma = np.array([0.5, 1.5])

        def f(v):
            d0, d1 = v[0] - a[0], v[1] - a[1]
            quad = 0.5 * (Q[0, 0] * d0 * d0 + 2 * Q[0, 1] * d0 * d1 + Q[1, 1] * d1 * d1)
            return quad + gamma[0] * d0**4 + gamma[1] * d1**4

        cfg = SQPConfig(grad_tol=1e-13, step_tol=1e-14)
        res = sqp_run(f, a + np.array([0.9, -1.1]), None, cfg)
        errors = [float(np.linalg.norm(it.x - a)) for it in res.trace]
        endgame = [
            (e0, e1)
            for e0, e1 in zip(errors, errors[1:])
            if 1e-13 < e0 < 1e-2
        ]
        assert len(endgame) >= 2
        for e0, e1 in endgame[-3:]:
            assert e1 / e0**2 <= 100.0

    def test_gradient_descent_contrast_is_only_linear(self, rng):
        # same objective driven by plain gradient descent shows a ratio that
        # blows up as the error shrinks (linear, not quadratic, convergence)
        Q = random_spd(rng, 2, spread=1.0)
        a = np.array([0.3, -0.8])
        plain = lambda x: 0.5 * (x - a) @ Q @ (x - a) + np.sum(0.5 * (x - a) ** 4)
        x = a + np.array([0.9, -1.1])
        ratios = []
        for _ in range(400):
            e0 = np.linalg.norm(x - a)
            x = x - 0.05 * fd_gradient(plain, x)
            e1 = np.linalg.norm(x - a)
            if 1e-9 < e1 < 1e-3:
                ratios.append(e1 / e0**2)
        assert min(ratios) > 100.0


class TestConfig:
    def test_bound_box_validation(self):
        with pytest.raises(ValueError):
            BoundBox(np.array([1.0]), np.array([1.0]))

    def test_project_inward(self):
        box = BoundBox(np.array([0.0]), np.array([10.0]))
        assert box.project_inward([0.0])[0] == pytest.approx(1e-5)
        assert box.project_inward([5.0])[0] == 5.0
