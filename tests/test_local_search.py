"""Newton directions, Wolfe steps, box-QP subproblems, full solver runs."""

import itertools
import math
import warnings

import numpy as np
import pytest

from ecsqp import autodiff as ad
from ecsqp import local_search
from ecsqp.autodiff import Hessian
from ecsqp.benchmarks import get_problem
from ecsqp.fdcheck import fd_gradient
from ecsqp.local_search import (
    BOUNDARY_FRACTION,
    CENTRAL_PATH_END,
    LAMBDA_MIN,
    REGULARIZATION_LADDER_CAP,
    SHIFT_LADDER,
    BoundBox,
    LineSearchError,
    SQPConfig,
    _factor,
    _fraction_to_boundary,
    _positive_definite,
    _search_direction,
    _step_to_zero,
    ipm_qp_solve,
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
        d, lam = _search_direction(np.array([3.0, -4.0]), Hessian.from_dense(np.eye(2)), None)
        np.testing.assert_allclose(d, [-3.0, 4.0])
        assert lam == 0.0

    def test_lands_on_quadratic_minimizer(self, rng):
        for _ in range(20):
            Q = random_spd(rng, 3)
            b = rng.normal(size=3)
            x = rng.normal(size=3)
            grad = Q @ x - b
            d, lam = _search_direction(grad, Hessian.from_dense(Q), None)
            x_star = np.linalg.solve(Q, b)  # independent solve
            np.testing.assert_allclose(x + d, x_star, atol=1e-9)
            assert lam == 0.0

    def test_indefinite_hessian_regularized_to_descent(self):
        d, lam = _search_direction(np.array([1.0, 0.0]), Hessian.from_dense(-np.eye(2)), None)
        assert d @ np.array([1.0, 0.0]) < 0.0
        assert 0 < lam < math.inf

    def test_zero_gradient_returns_zero_step(self):
        d, lam = _search_direction(np.zeros(2), Hessian.from_dense(np.eye(2)), None)
        assert not d.any()

    def test_regularize_ladder_gives_up(self):
        H = Hessian.from_dense(np.array([[-1e12]]))
        H_pd, lam = regularize_hessian(H)
        assert H_pd is None and lam == math.inf


class TestWolfeLineSearch:
    def test_parabola_midpoint(self):
        phi = lambda a: a * a - a
        dphi = lambda a: 2 * a - 1
        alpha = wolfe_line_search(phi, dphi)
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

    def test_curvature_failure_re_expands_inside_the_bracket(self):
        # phi(1) = 9 fails sufficient decrease; the interpolated 0.05 is
        # clamped to 0.1, which decreases enough but has slope -0.9994 <
        # 0.9 * -1, so the search bisects toward hi = 1 and takes 0.55
        f = lambda a: -a + 10.0 * a**6
        dphi = lambda a: -1.0 + 60.0 * a**5
        assert f(1.0) == 9.0 and f(0.1) <= 1e-4 * 0.1 * -1.0
        assert dphi(0.1) == pytest.approx(-0.9994, abs=1e-15) and dphi(0.1) < 0.9 * -1.0
        trials = []
        alpha = wolfe_line_search(lambda a: trials.append(a) or f(a), dphi)
        assert trials == [0.0, 1.0, 0.1, 0.5 * (0.1 + 1.0)] and alpha == trials[-1]
        assert alpha == pytest.approx(0.55, abs=1e-15)
        assert f(alpha) <= 1e-4 * alpha * -1.0 and dphi(alpha) >= 0.9 * -1.0

    def test_failure_signalled(self):
        # function that only increases beyond any representable decrease
        phi = lambda a: 0.0 if a == 0 else 1.0
        dphi = lambda a: -1.0
        with pytest.raises(LineSearchError):
            wolfe_line_search(phi, dphi)


class TestIpmQpSolve:
    def test_inactive_bounds_match_unconstrained(self, rng):
        for _ in range(20):
            H = random_spd(rng, 3, spread=1.0)
            g = rng.normal(size=3)
            box = BoundBox(np.full(3, -50.0), np.full(3, 50.0))
            s = ipm_qp_solve(g, Hessian.from_dense(H), box)
            np.testing.assert_allclose(s, np.linalg.solve(H, -g), atol=1e-6)

    def test_active_upper_bound_one_dim(self):
        # analytic constrained minimizer of -10 s + s^2 on [-1, 1] is s = 1
        s = ipm_qp_solve(np.array([-10.0]), Hessian.from_dense(np.array([[2.0]])),
                         BoundBox(np.array([-1.0]), np.array([1.0])))
        assert abs(s[0] - 1.0) < 1e-3
        assert -1.0 < s[0] < 1.0  # strictly interior

    def test_zero_gradient_stays_near_origin(self):
        s = ipm_qp_solve(np.zeros(2), Hessian.from_dense(np.eye(2)),
                         BoundBox(np.full(2, -1.0), np.full(2, 1.0)))
        assert np.max(np.abs(s)) < 1e-6

    def test_strict_feasibility_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            H = random_spd(rng, n, spread=0.5)
            g = rng.normal(size=n) * 10
            lb = -rng.uniform(0.1, 2.0, size=n)
            ub = rng.uniform(0.1, 2.0, size=n)
            s = ipm_qp_solve(g, Hessian.from_dense(H), BoundBox(lb, ub))
            assert np.all(s > lb) and np.all(s < ub)

    def test_ill_conditioned_subproblem_stops_stalled_centring(self, monkeypatch):
        # Ackley n=10 just off its kink at 0: cond(H) ~ 6e6, max|H| ~ 6e7.
        # The residual cannot reach 1e-3*mu in floating point for small mu,
        # so centring once ran all 50 Newton steps per weight (205 solves).
        problem = get_problem("ackley", 10)
        x = 1e-8 * np.linspace(-1.0, 1.0, 10) + 1e-9
        _, g, H = ad.evaluate(problem.fn, x)
        H, lam = regularize_hessian(H)
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
        H = Hessian.from_dense(np.diag([-2.0, 0.0]))
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
        H, _ = regularize_hessian(H)
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
                H = Hessian.from_dense(random_spd(rng, n, spread=0.5))
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
            np.testing.assert_allclose(_factor(W)(b), np.linalg.solve(np.asarray(W), b),
                                       rtol=1e-10, atol=1e-12)

    def test_k_equals_n_from_a_dense_matrix(self, rng):
        for _ in range(20):
            A = random_spd(rng, 6)
            b = rng.normal(size=6)
            np.testing.assert_allclose(_factor(Hessian.from_dense(A))(b), np.linalg.solve(A, b),
                                       rtol=1e-10, atol=1e-12)

    def test_negative_diagonal_part_is_re_split(self, rng):
        for _ in range(20):
            W = random_structured(rng, 6, 6, negative_diagonal=True)
            assert np.any(W.d < 0.0)
            b = rng.normal(size=6)
            np.testing.assert_allclose(_factor(W)(b), np.linalg.solve(np.asarray(W), b),
                                       rtol=1e-10, atol=1e-12)

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _factor(Hessian(np.array([1.0, -1.0])))(np.ones(2))

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
            assert (regularize_hessian(W)[1] == 0.0) == (lowest > 0.0)
        assert decided > 250

    def test_ipm_step_same_for_structured_and_dense(self, rng):
        problem = get_problem("ackley", 10)
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, size=10)
            _, g, H = ad.evaluate(problem.fn, x)
            H_pd, _ = regularize_hessian(H)
            assert H_pd.k == 3
            box = BoundBox(problem.bounds.lower - x, problem.bounds.upper - x)
            structured = ipm_qp_solve(g, H_pd, box)
            dense = ipm_qp_solve(g, Hessian.from_dense(np.asarray(H_pd)), box)
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
        p = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        p[rng.random(n) < 0.2] = 0.0
        if trial % 50 == 0:
            p[:] = 0.0
        assert (_fraction_to_boundary(p, BoundBox(lb, ub))
                == fraction_to_boundary_two_masks(np.zeros(n), p, lb, ub))


def test_step_to_zero_is_bitwise_the_concatenated_rule(rng):
    # the IPM's step length over [t, z] taken half by half, against one
    # two-mask pass over their concatenation, whose upper bounds never bind
    for trial in range(2000):
        m = int(rng.integers(1, 200))
        t, z = rng.uniform(1e-9, 3.0, m), rng.uniform(1e-9, 3.0, m)
        dt, dz = (rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3) for _ in range(2))
        dt[rng.random(m) < 0.2] = 0.0
        if trial % 50 == 0:
            dt[:] = np.abs(dt)
            dz[:] = np.abs(dz)
        nearest = min(_step_to_zero(t, dt), _step_to_zero(z, dz))
        joined = fraction_to_boundary_two_masks(np.concatenate([t, z]), np.concatenate([dt, dz]),
                                                np.zeros(2 * m), np.full(2 * m, np.inf))
        assert min(1.0, BOUNDARY_FRACTION * nearest) == joined


def test_step_to_zero_overflows_to_inf_without_a_warning():
    # 1 / -1e-310 passes the float range: the step is inf, the right float
    # answer, and no warning leaves the ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _step_to_zero(np.array([1.0]), np.array([-1e-310])) == math.inf
        box = BoundBox(np.array([-1.0]), np.array([1.0]))
        assert _fraction_to_boundary(np.array([-1e-310]), box) == 1.0
        assert _fraction_to_boundary(np.array([1e-310]), box) == 1.0


def ipm_two_solves(g, H, box, targets=None):
    """The primal-dual IPM with a predictor and a corrector Woodbury solve of
    its own in every iteration, on or off the centring floor (the oracle).
    Each predictor's centring target is appended to ``targets``."""
    g = np.asarray(g, dtype=float)
    lb, ub = box.lower, box.upper

    def fallback():
        try:
            d = _factor(H)(-g)
        except np.linalg.LinAlgError:
            d = -g
        return _fraction_to_boundary(d, box) * d

    n, s = g.shape[0], np.zeros_like(g)
    t = np.concatenate([-lb, ub])
    z = 1.0 / t
    tol, last = 1e-12 * (1.0 + float(np.max(np.abs(g)))), math.inf
    for _ in range(100):
        r = g + H @ s - z[:n] + z[n:]
        rnorm = float(np.max(np.abs(r)))
        centred = np.max(np.abs(t * z - CENTRAL_PATH_END)) <= 1e-3 * CENTRAL_PATH_END
        if centred and (rnorm <= tol or rnorm >= last):
            break
        last = rnorm
        W = Hessian(H.d + (z[:n] / t[:n] + z[n:] / t[n:]), H.U, H.C)

        def newton(c):
            ds = _factor(W)(c[:n] / t[:n] - c[n:] / t[n:] - r)
            dt = np.concatenate([ds, -ds])
            dz = (c - z * dt) / t
            tz, dtz = np.concatenate([t, z]), np.concatenate([dt, dz])
            return ds, dt, dz, fraction_to_boundary_two_masks(
                tz, dtz, np.zeros_like(tz), np.full_like(tz, np.inf))

        try:
            _, dt, dz, alpha = newton(-t * z)
            mu = float(t @ z) / t.size
            target = mu * (float((t + alpha * dt) @ (z + alpha * dz)) / t.size / mu) ** 3
            if targets is not None:
                targets.append(target)
            c = max(target, CENTRAL_PATH_END) - t * z
            if target > CENTRAL_PATH_END:
                c -= dt * dz
            ds, dt, dz, alpha = newton(c)
        except np.linalg.LinAlgError:
            return fallback()
        s = s + alpha * ds
        z = z + alpha * dz
        t = np.concatenate([s - lb, ub - s])
    return s


def captured_subproblems(monkeypatch, name, starts):
    """The (g, H + lambda I, step box) of every direction of bounded sqp_run
    runs at n=100 whose shift ladder succeeds: each box subproblem, whether
    the Newton step or the IPM solved it."""
    problem = get_problem(name, 100)
    seen = []
    direction = local_search._search_direction

    def record(grad, hess, step_box):
        shifted, _ = regularize_hessian(hess)
        if shifted is not None:
            seen.append((grad, shifted, step_box))
        return direction(grad, hess, step_box)

    with monkeypatch.context() as patch:
        patch.setattr(local_search, "_search_direction", record)
        for seed in starts:
            x0 = np.random.default_rng(seed).uniform(problem.bounds.lower, problem.bounds.upper)
            sqp_run(problem.fn, x0, problem.bounds, SQPConfig())
    return seen


def counted_solves(monkeypatch, solver, *args):
    """``solver(*args)`` and the number of ``np.linalg.solve`` calls it made."""
    solve = np.linalg.solve
    calls = 0

    def counting_solve(*a):
        nonlocal calls
        calls += 1
        return solve(*a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", counting_solve)
        out = solver(*args)
    return out, calls


class TestFactorOnce:
    def test_matches_the_two_solve_oracle_with_fewer_solves(self, rng, monkeypatch):
        cases = []
        for n, k in itertools.product((2, 10, 40, 100), (0, 1, 2, 3)):
            for _ in range(3):
                lb, ub = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
                cases.append((rng.normal(size=n) * 5.0, random_structured(rng, n, min(k, n)),
                              BoundBox(lb, ub)))
        captured = (captured_subproblems(monkeypatch, "ackley", (3, 4))
                    + captured_subproblems(monkeypatch, "rastrigin", (3, 4)))
        assert {H.k for _, H, _ in captured} == {0, 3}
        new_total = old_total = lifted = 0
        for g, H, box in cases + captured:
            targets = []
            new, new_solves = counted_solves(monkeypatch, ipm_qp_solve, g, H, box)
            old, old_solves = counted_solves(monkeypatch, ipm_two_solves, g, H, box, targets)
            on_floor = [target <= CENTRAL_PATH_END for target in targets]
            first = on_floor.index(True) if True in on_floor else len(targets)
            if all(on_floor[first:]):
                np.testing.assert_array_equal(new, old)
            else:
                # the oracle's target left the floor again, so the two paths end
                # at different points of the same centred neighbourhood
                lifted += 1
                model = lambda v: g @ v + 0.5 * (v @ (H @ v))
                assert model(new) == pytest.approx(model(old), rel=1e-10)
                assert np.max(np.abs(new - old)) <= 1e-6 * np.max(np.abs(old))
            assert box.contains_strict(new)
            assert new_solves <= old_solves
            assert (new_solves == 0) == (H.k == 0)
            new_total += new_solves
            old_total += old_solves
        assert new_total < old_total
        assert 0 < lifted < len(captured) // 4

    def test_singular_capacitance_raises_from_the_solver_and_falls_back(self, monkeypatch):
        # at s = 0 the IPM matrix is diag(3, 3) - 3 e1 e1^T: its capacitance
        # 1 - 3 * (1/3) is exactly 0, so the factor builds but cannot solve;
        # H itself is diag(-2, 1) and gives the Newton step (0.5, -1)
        H = Hessian(np.array([1.0, 1.0]), np.array([[1.0], [0.0]]), np.array([[-3.0]]))
        g = np.array([1.0, 1.0])
        box = BoundBox(np.full(2, -1.0), np.full(2, 1.0))
        solve = _factor(Hessian(H.d + 2.0, H.U, H.C))
        with pytest.raises(np.linalg.LinAlgError):
            solve(g)
        s = ipm_qp_solve(g, H, box)
        np.testing.assert_array_equal(s, BOUNDARY_FRACTION * np.array([0.5, -1.0]))
        np.testing.assert_array_equal(s, ipm_two_solves(g, H, box))

    def test_split_not_positive_raises_while_factoring_and_falls_back(self):
        # diag(H + 2 I) = (-0.5, 3): no positive split, for H or its IPM matrix,
        # so the step is steepest descent cut back to the boundary fraction
        H = Hessian(np.array([-3.0, 1.0]), np.array([[1.0], [0.0]]), np.array([[0.5]]))
        g = np.array([1.0, 1.0])
        box = BoundBox(np.full(2, -1.0), np.full(2, 1.0))
        with pytest.raises(np.linalg.LinAlgError):
            _factor(Hessian(H.d + 2.0, H.U, H.C))
        s = ipm_qp_solve(g, H, box)
        np.testing.assert_array_equal(s, -BOUNDARY_FRACTION * g)
        np.testing.assert_array_equal(s, ipm_two_solves(g, H, box))


def nonzero_rungs():
    """The ladder's shifts after 0, up to the cap."""
    lam, out = LAMBDA_MIN, []
    while lam <= REGULARIZATION_LADDER_CAP * LAMBDA_MIN:
        out.append(lam)
        lam *= 10.0
    return out


def ladder_by_rungs(hess):
    """The shift ladder testing every rung with _positive_definite (the oracle);
    a rung that fails the diagonal test raises there and is skipped."""
    for lam in [0.0] + nonzero_rungs():
        candidate = hess if lam == 0.0 else Hessian(hess.d + lam, hess.U, hess.C)
        try:
            if _positive_definite(candidate):
                return candidate, lam
        except np.linalg.LinAlgError:
            continue
    return None, math.inf


def test_shift_ladder_is_the_recurrence():
    assert [lam.hex() for lam in SHIFT_LADDER] == [lam.hex() for lam in [0.0] + nonzero_rungs()]


class TestDiagonalLadder:
    def assert_same(self, d):
        hess = Hessian(d)
        got, lam = regularize_hessian(hess)
        want, want_lam = ladder_by_rungs(hess)
        assert lam == want_lam
        if want is None:
            assert got is None and lam == math.inf
            return
        assert got.k == 0
        np.testing.assert_array_equal(got.d, want.d)
        assert (got is hess) == (want is hess)

    def test_matches_the_rung_loop_bitwise(self, rng):
        rungs = nonzero_rungs()
        for _ in range(300):
            n = int(rng.integers(1, 101))
            self.assert_same(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8, 3))
        for _ in range(20):  # already positive
            self.assert_same(rng.uniform(1e-12, 5.0, 50))
        for lam in rungs:  # minimum exactly -lam, and its neighbours
            for low in (-lam, np.nextafter(-lam, 0.0), np.nextafter(-lam, -np.inf)):
                d = rng.uniform(0.0, 5.0, 30)
                d[int(rng.integers(30))] = low
                self.assert_same(d)
        for low in (-rungs[-1], -2.0 * rungs[-1]):  # past the cap
            d = rng.uniform(0.0, 5.0, 30)
            d[3] = low
            self.assert_same(d)
            assert regularize_hessian(Hessian(d)) == (None, math.inf)
        # Rastrigin's diagonal 2 - 40 pi^2 cos(2 pi x) reaches -393, past 1e-6 * 1e8
        d = np.full(100, 2.0 - 40.0 * math.pi**2)
        assert regularize_hessian(Hessian(d)) == (None, math.inf)


class TestLowRankLadder:
    """The k > 0 ladder, which rejects a rung failing both elementwise tests
    of ``_positive_split`` without a definiteness test, against the rung
    loop."""

    def assert_same(self, hess):
        got, lam = regularize_hessian(hess)
        want, want_lam = ladder_by_rungs(hess)
        assert lam == want_lam
        if want is None:
            assert got is None and lam == math.inf
            return lam
        assert (got is hess) == (want is hess)
        np.testing.assert_array_equal(got.d, want.d)
        assert got.U is hess.U and got.C is hess.C
        return lam

    def structured(self, rng, n, k, scale):
        U = rng.normal(size=(n, k))
        C = rng.normal(size=(k, k))
        d = rng.uniform(-1.0, 1.0, n) * scale
        return Hessian(d, U, C + C.T)

    def test_matches_the_rung_loop_bitwise(self, rng):
        lams = set()
        for _ in range(300):
            n = int(rng.integers(1, 41))
            k = int(rng.integers(1, n + 1))
            lams.add(self.assert_same(self.structured(rng, n, k, 10.0 ** rng.uniform(-8, 3))))
        assert {0.0, math.inf} < lams  # some shifted, some not, some exhausted

    def test_dense_resplit_rung(self, rng):
        # d + lambda is not positive at entry 0, the full diagonal is: the
        # matrix diag(1, 3) is positive definite with no shift
        hess = Hessian(np.array([-1.0, 3.0]), np.array([[1.0], [0.0]]), np.array([[2.0]]))
        assert self.assert_same(hess) == 0.0
        resplit = 0
        for _ in range(300):
            n = int(rng.integers(2, 30))
            U = rng.normal(size=(n, 2))
            C = np.diag(rng.uniform(0.5, 3.0, 2))
            full = ((U @ C) * U).sum(axis=1)
            d = rng.uniform(0.1, 2.0, n)
            d[0] = -rng.uniform(0.0, 1.5) * full[0]  # full diagonal may stay positive
            lam = self.assert_same(Hessian(d, U, C))
            resplit += lam < -d[0] and lam < math.inf
        assert resplit > 0

    def test_rung_neighbours_and_the_cap(self, rng):
        # entry i of the matrix is decoupled (U[i] = 0), so its eigenvalue is
        # d[i] = -lam, one ulp either side of it, or past the cap; a second
        # entry puts the same value on the full diagonal through U C U^T
        rungs = nonzero_rungs()
        for lam in rungs + [2.0 * rungs[-1]]:
            for low in (-lam, np.nextafter(-lam, 0.0), np.nextafter(-lam, -np.inf)):
                n = 12
                U = rng.normal(size=(n, 2))
                U[3] = 0.0
                C = np.diag(rng.uniform(0.5, 3.0, 2))
                d = rng.uniform(0.1, 5.0, n)
                d[3] = low
                self.assert_same(Hessian(d, U, C))
                full = ((U @ C) * U).sum(axis=1)
                d[3], d[5] = 1.0, low - full[5]
                self.assert_same(Hessian(d, U, C))
        d = np.full(5, -2.0 * rungs[-1])
        assert regularize_hessian(Hessian(d, np.eye(5)[:, :2], np.eye(2))) == (None, math.inf)

    def test_ackley_shift_of_one_makes_one_definiteness_test(self, monkeypatch):
        # the parent's rung loop made 8 calls here: lambda = 0, 1e-6, ..., 1
        problem = get_problem("ackley", 100)
        x = np.random.default_rng(0).uniform(problem.bounds.lower, problem.bounds.upper)
        _, _, hess = ad.evaluate(problem.fn, x)
        test = local_search._positive_definite
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return test(*args)

        monkeypatch.setattr(local_search, "_positive_definite", counting)
        shifted, lam = regularize_hessian(hess)
        assert hess.k == 3 and lam == 1.0 and calls == 1
        monkeypatch.setattr(local_search, "_positive_definite", test)
        want, want_lam = ladder_by_rungs(hess)
        assert want_lam == lam
        np.testing.assert_array_equal(shifted.d, want.d)

    def test_positive_diagonal_part_skips_the_low_rank_diagonal(self, monkeypatch):
        # rung 0 passes on d alone, so diag(U C U^T) is never formed: one
        # definiteness test, which splits as (d, U, C) without it either
        hess = Hessian(np.array([2.0, 3.0, 4.0]), np.eye(3)[:, :2], np.diag([1.0, -0.5]))
        diagonal = local_search._low_rank_diagonal
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return diagonal(*args)

        monkeypatch.setattr(local_search, "_low_rank_diagonal", counting)
        shifted, lam = regularize_hessian(hess)
        assert shifted is hess and lam == 0.0 and calls == 0


class TestNanNewtonStep:
    @pytest.mark.parametrize("bad, fraction", [(math.nan, 1.0), (math.inf, 0.0)])
    def test_newton_step_with_a_nonfinite_entry_goes_to_the_ipm(self, monkeypatch, bad,
                                                                fraction):
        # the boundary rule skips a NaN entry, so only the NaN test routes it
        step = np.array([bad, 0.5])
        factor = local_search._factor
        solves = []

        def bad_first_solve(*args):
            solve = factor(*args)
            if not solves:  # the Newton step of _search_direction
                solves.append(1)
                return lambda b: step.copy()
            return solve

        g = np.array([1.0, -2.0])
        H = Hessian.from_dense(np.eye(2))
        box = BoundBox(np.full(2, -10.0), np.full(2, 10.0))
        assert _fraction_to_boundary(step, box) == fraction
        monkeypatch.setattr(local_search, "_factor", bad_first_solve)
        (d, lam), calls = counted_ipm_calls(monkeypatch, g, H, box)
        assert calls == 1 and lam == 0.0
        np.testing.assert_array_equal(d, ipm_qp_solve(g, H, box))

    def test_nan_newton_step_goes_to_the_ipm(self, monkeypatch):
        factor = local_search._factor
        solves = []

        def nan_first_solve(*args):
            solve = factor(*args)
            if not solves:  # the Newton step of _search_direction
                solves.append(1)
                return lambda b: np.full_like(b, math.nan)
            return solve

        g = np.array([1.0, -2.0])
        box = BoundBox(np.full(2, -10.0), np.full(2, 10.0))
        monkeypatch.setattr(local_search, "_factor", nan_first_solve)
        (d, lam), calls = counted_ipm_calls(monkeypatch, g, Hessian.from_dense(np.eye(2)), box)
        assert calls == 1 and lam == 0.0
        np.testing.assert_array_equal(d, ipm_qp_solve(g, Hessian.from_dense(np.eye(2)), box))


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


INF = math.inf
# (problem, start seed) -> f.hex(), evaluations, stop reason and each
# iteration's lambda_used of sqp_run at n=100 from a uniform start in the box.
# Ackley's k = 3 Hessian climbs the shift ladder, and its Newton steps stay
# inside the step box's boundary fraction, so no direction needs the IPM;
# Rastrigin's diagonal Hessian exhausts the ladder (lambda inf, the cut-back
# steepest-descent fallback) before it reaches a convex region.
N100_PINS = {
    ("ackley", 0): ("0x1.34d8c7f9d5734p+4", 29, "grad_tol",
                    [1.0] * 4 + [10.0] * 22 + [1.0, 0.0]),
    ("ackley", 1): ("0x1.30bc3fdb1f165p+4", 8, "grad_tol", [1.0] * 4 + [0.0] * 3),
    ("ackley", 2): ("0x1.2e2da7217bd65p+4", 8, "grad_tol", [1.0] * 4 + [0.0] * 3),
    ("rastrigin", 0): ("0x1.f0fa806eda1a0p+9", 16, "step_tol", [INF] * 6 + [0.0] * 6),
    ("rastrigin", 1): ("0x1.ac53c327f1e95p+9", 11, "grad_tol", [INF] * 4 + [0.0] * 4),
    ("rastrigin", 2): ("0x1.b0cde789ee6b4p+9", 10, "grad_tol", [INF] * 4 + [0.0] * 4),
}


@pytest.mark.parametrize("name, seed", sorted(N100_PINS))
def test_n100_run_pinned(name, seed):
    p = get_problem(name, 100)
    x0 = np.random.default_rng(seed).uniform(p.bounds.lower, p.bounds.upper)
    res = sqp_run(p.fn, x0, p.bounds, SQPConfig())
    got = (res.f.hex(), res.evaluations, res.stop_reason, [it.lambda_used for it in res.trace])
    assert got == N100_PINS[name, seed]


def counted_ipm_calls(monkeypatch, *args):
    """``_search_direction(*args)`` and the number of IPM calls it made."""
    solver = local_search.ipm_qp_solve
    calls = 0

    def counting_ipm(*a):
        nonlocal calls
        calls += 1
        return solver(*a)

    with monkeypatch.context() as patch:
        patch.setattr(local_search, "ipm_qp_solve", counting_ipm)
        out = _search_direction(*args)
    return out, calls


class TestBoundedDirection:
    def test_interior_newton_step_skips_the_ipm(self, rng, monkeypatch):
        for _ in range(20):
            H = random_structured(rng, 10, 3)
            g = rng.normal(size=10) * 0.1
            box = BoundBox(np.full(10, -10.0), np.full(10, 10.0))
            (d, lam), calls = counted_ipm_calls(monkeypatch, g, H, box)
            assert calls == 0 and lam == 0.0
            np.testing.assert_array_equal(d, _factor(H)(-g))

    def test_step_past_the_boundary_fraction_is_the_ipm_step(self, rng, monkeypatch):
        for _ in range(20):
            H = random_structured(rng, 10, 3)
            g = rng.normal(size=10) * 0.1
            newton = _factor(H)(-g)
            # one bound at 0.995 of the Newton step's largest entry: just past it
            i = int(np.argmax(np.abs(newton)))
            lb, ub = np.full(10, -10.0), np.full(10, 10.0)
            (lb if newton[i] < 0 else ub)[i] = BOUNDARY_FRACTION * newton[i]
            box = BoundBox(lb, ub)
            assert _fraction_to_boundary(newton, box) < 1.0
            (d, lam), calls = counted_ipm_calls(monkeypatch, g, H, box)
            assert calls == 1 and lam == 0.0
            np.testing.assert_array_equal(d, ipm_qp_solve(g, H, box))

    def test_unsolvable_newton_system_reaches_the_ipm_and_its_fallback(self, monkeypatch):
        # every Woodbury factor fails: the Newton step, the IPM's systems and
        # its fallback's Newton step; the IPM's cut-back steepest descent keeps
        # the ladder's lambda, where _search_direction's own fallback is inf
        def singular(*args):
            raise np.linalg.LinAlgError("singular")

        g = np.array([1.0, -2.0])
        box = BoundBox(np.full(2, -0.5), np.full(2, 0.5))
        monkeypatch.setattr(local_search, "_factor", singular)
        (d, lam), calls = counted_ipm_calls(monkeypatch, g, Hessian.from_dense(np.eye(2)), box)
        assert calls == 1 and lam == 0.0
        np.testing.assert_array_equal(d, -BOUNDARY_FRACTION * 0.25 * g)

    def test_unsolvable_newton_system_without_a_box_is_steepest_descent(self, monkeypatch):
        # no box, so no IPM: the direction is -g with lambda = inf, and so is
        # every direction of sqp_run; on sum(x^2) the step halves onto 0
        def singular(b):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(local_search, "_factor", lambda *args: singular)
        g = np.array([1.0, -2.0])
        d, lam = _search_direction(g, Hessian.from_dense(np.eye(2)), None)
        np.testing.assert_array_equal(d, -g)
        assert lam == math.inf
        res = sqp_run(lambda v: (v * v).sum(), [1.0, -2.0], None, SQPConfig())
        assert [(it.lambda_used, it.alpha) for it in res.trace] == [(math.inf, 0.5)]
        assert res.stop_reason == "grad_tol" and not res.x.any()

    def test_newton_step_is_no_worse_than_the_ipm_on_the_pinned_starts(self, monkeypatch):
        # at n=10 Ackley's polish near the kink has Hessian eigenvalues up to
        # 4e15, where both solves are at rounding level; at n=100 they are not
        shortcuts = 0
        for name, seed in sorted(N100_PINS):
            for g, H, box in captured_subproblems(monkeypatch, name, (seed,)):
                newton = _factor(H)(-g)
                if _fraction_to_boundary(newton, box) < 1.0:
                    continue
                shortcuts += 1
                model = lambda v: g @ v + 0.5 * (v @ (H @ v))
                ipm = model(ipm_qp_solve(g, H, box))
                assert model(newton) <= ipm + 1e-12 * abs(ipm)
        assert shortcuts > 0


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
