"""Newton/SQP line-search minimizer with exact Hessians.

The solver takes full Newton steps computed from automatic-differentiation
Hessians and certifies step lengths with the Wolfe conditions.  Indefinite
Hessians are repaired with an escalating Levenberg-style diagonal shift; if
that fails the step falls back to steepest descent.  Under variable bounds a
Newton step that stays within the boundary fraction of every bound is the
exact minimizer of its quadratic subproblem and is taken as it is; only a
step that would pass that fraction goes to a Mehrotra primal-dual
interior-point method (Mehrotra 1992), which solves the subproblem from the
log-barrier central point of weight 1 to that of weight 1e-8 (a singular
system gives a cut-back Newton step).

Every linear system has the form ``W = diag(a) + U C U^T`` of the AD
:class:`~ecsqp.autodiff.Hessian` plus a diagonal, and is solved by
Sherman-Morrison-Woodbury through a ``k x k`` capacitance system in O(nk^2)
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., Springer 2006).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import ADScalar, ADVector, Hessian, _dense, _split, evaluate

__all__ = [
    "BoundBox",
    "LineSearchError",
    "NewtonIterate",
    "SQPConfig",
    "SQPResult",
    "ipm_qp_solve",
    "regularize_hessian",
    "sqp_run",
    "wolfe_line_search",
]

WOLFE_C1 = 1e-4  # sufficient-decrease constant
WOLFE_C2 = 0.9  # curvature constant
LAMBDA_MIN = 1e-6  # first nonzero Hessian shift of the regularization ladder
REGULARIZATION_LADDER_CAP = 1e8  # multiples of LAMBDA_MIN tried before fallback
DELTA_TOL = 1e-3  # gradient and direction norm change that counts as a stall
MAX_LINE_SEARCH_EVALS = 50  # objective sweeps per line search
BOUNDARY_FRACTION = 0.995  # fraction-to-boundary factor tau
CENTRAL_PATH_END = 1e-8  # complementarity t_i z_i of the point the IPM returns
#: the Hessian shifts 0, LAMBDA_MIN, 10 * LAMBDA_MIN, ... up to the cap, in the order tried
SHIFT_LADDER = (0.0, *itertools.takewhile(
    lambda lam: lam <= REGULARIZATION_LADDER_CAP * LAMBDA_MIN,
    itertools.accumulate(itertools.repeat(10.0), lambda lam, _: lam * 10.0, initial=LAMBDA_MIN)))


class LineSearchError(RuntimeError):
    """No step length satisfying sufficient decrease could be found."""


@dataclass(frozen=True)
class BoundBox:
    """Elementwise variable bounds ``lower < upper``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bound vectors must be 1-D and of equal length")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper elementwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def _new(cls, lower: np.ndarray, upper: np.ndarray) -> "BoundBox":
        """Box of 1-D float bounds of one length, ``lower < upper`` known."""
        box = cls.__new__(cls)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        return box

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains_strict(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > self.lower) and np.all(x < self.upper))

    def project_inward(self, x, rel: float = 1e-6) -> np.ndarray:
        """Clip onto the box shrunk inward by ``rel`` times each range."""
        inset = rel * (self.upper - self.lower)
        return np.clip(np.asarray(x, dtype=float), self.lower + inset, self.upper - inset)


@dataclass(frozen=True)
class SQPConfig:
    """Solver tolerances and termination regime.

    ``stopping`` selects the termination regime: ``"absolute"`` stops on the
    gradient/step tolerances alone, ``"delta"`` additionally stops once the
    gradient and direction norms change by at most :data:`DELTA_TOL` between
    iterations.  ``None`` means "absolute" standalone but "delta" when driven
    by the hybrid pipeline.
    """

    grad_tol: float = 1e-6
    step_tol: float = 1e-6
    max_iter: int = 200
    stopping: str | None = None

    def __post_init__(self) -> None:
        if self.grad_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")
        if type(self.max_iter) is not int or self.max_iter < 1:  # a float or a bool is no count
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if self.stopping not in (None, "absolute", "delta"):
            raise ValueError(f"unknown stopping regime {self.stopping!r}")


@dataclass
class NewtonIterate:
    """One accepted step of the solver (state at the new point)."""

    iteration: int
    x: np.ndarray
    f: float
    grad: np.ndarray
    direction: np.ndarray
    alpha: float
    lambda_used: float
    grad_norm: float
    step_norm: float
    wolfe_ok: bool
    evaluations: int = 0  # cumulative objective sweeps when the step landed


@dataclass
class SQPResult:
    x: np.ndarray
    f: float
    trace: list[NewtonIterate]
    stop_reason: str
    evaluations: int = 0


def _low_rank_diagonal(U: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The diagonal of ``U C U^T``."""
    return ((U @ C) * U).sum(axis=1)


def _positive_split(W: Hessian, shift=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts ``(d, U, C)`` of ``W + diag(shift)`` with ``d`` positive.

    The shift (a number or an n-vector) joins the diagonal part as ``W.d +
    shift``; no :class:`Hessian` is built.  A matrix whose diagonal part is
    not positive is re-split as its ``k = n`` form, whose diagonal part is
    the matrix diagonal.  That is positive whenever the matrix is positive
    definite; when it is not, the matrix is not positive definite and
    :class:`numpy.linalg.LinAlgError` is raised before the dense matrix is
    formed.
    """
    d, U, C = W.d if shift is None else W.d + shift, W.U, W.C
    if (d > 0.0).all():
        return d, U, C
    if not (d + _low_rank_diagonal(U, C) > 0.0).all():
        raise np.linalg.LinAlgError("diagonal not positive: matrix not positive definite")
    return _split(_dense(d, U, C))


def _positive_definite(W: Hessian, shift=None) -> bool:
    """Whether ``W + diag(shift) = A + U C U^T`` (``A`` diagonal) is PD.

    With ``A^{-1/2} U = Q R`` (``R`` is ``k x k``), the matrix is congruent
    to ``I + Q R C R^T Q^T``, which is positive definite exactly when the
    symmetric capacitance matrix ``I + R C R^T`` is (Cholesky succeeds).
    """
    try:
        d, U, C = _positive_split(W, shift)
    except np.linalg.LinAlgError:
        return False
    if U.shape[1]:
        R = np.linalg.qr(U / np.sqrt(d)[:, None], mode="r")
        try:
            np.linalg.cholesky(np.eye(U.shape[1]) + R @ C @ R.T)
        except np.linalg.LinAlgError:
            return False
    return True


def _factor(W: Hessian, shift=None) -> Callable[[np.ndarray], np.ndarray]:
    """Solver of ``(W + diag(shift)) x = b`` by Sherman-Morrison-Woodbury.

    With ``A`` the positive diagonal part of ``A + U C U^T`` from
    :func:`_positive_split`,
    ``x = A^{-1} b - A^{-1} U y`` where ``y`` solves the ``k x k``
    capacitance system ``(I + C U^T A^{-1} U) y = C U^T A^{-1} b``.  The
    split, ``A^{-1} U`` and the capacitance matrix are built once, here, and
    shared by every right-hand side.  Raises
    :class:`numpy.linalg.LinAlgError` here when the diagonal is not
    positive, and from the returned solver when the capacitance system is
    singular.
    """
    d, U, C = _positive_split(W, shift)
    if not U.shape[1]:
        return lambda b: b / d
    AiU = U / d[:, None]
    K = np.eye(U.shape[1]) + C @ (U.T @ AiU)

    def solve(b: np.ndarray) -> np.ndarray:
        x = b / d
        return x - AiU @ np.linalg.solve(K, C @ (U.T @ x))

    return solve


def regularize_hessian(hess: Hessian) -> tuple[Hessian | None, float]:
    """The shifted matrix and the first shift of :data:`SHIFT_LADDER` that
    makes ``hess`` positive definite; ``(None, inf)`` when none does.

    A rung ``lambda`` first takes :func:`_positive_split`'s elementwise test:
    ``min(d) + lambda > 0`` (exact, as rounding is monotone) or, for ``k >
    0``, ``d + lambda + diag(U C U^T) > 0``.  A rung that passes is accepted
    as it is when ``k = 0`` and by :func:`_positive_definite` when ``k > 0``.
    """
    lowest, low_rank = float(hess.d.min(initial=np.inf)), None
    for lam in SHIFT_LADDER:
        if not lowest + lam > 0.0:
            if not hess.k:
                continue
            low_rank = _low_rank_diagonal(hess.U, hess.C) if low_rank is None else low_rank
            if not (hess.d + lam + low_rank > 0.0).all():
                continue
        if not hess.k or _positive_definite(hess, None if lam == 0.0 else lam):
            return (hess if lam == 0.0 else Hessian._new(hess.d + lam, hess.U, hess.C)), lam
    return None, math.inf


def wolfe_line_search(
    phi: Callable[[float], float],
    dphi: Callable[[float], float],
    c1: float = WOLFE_C1,
    c2: float = WOLFE_C2,
    max_evals: int = MAX_LINE_SEARCH_EVALS,
) -> float:
    """Step length in (0, 1] satisfying the sufficient-decrease and curvature
    conditions.

    The unit step is tried first and returned immediately when admissible.
    Otherwise the bracket is shrunk by safeguarded quadratic interpolation
    (and re-expanded inside the bracket when only the curvature condition
    fails).  If the evaluation budget runs out, the best step with sufficient
    decrease is returned; with none found a :class:`LineSearchError` is
    raised.
    """
    phi0 = phi(0.0)
    g0 = dphi(0.0)
    if g0 >= 0.0:
        raise ValueError(f"line search needs a descent direction, slope {g0}")

    alpha = 1.0
    hi: float | None = None  # smallest alpha violating sufficient decrease
    best: float | None = None
    for _ in range(max_evals):
        f_a = phi(alpha)
        if f_a <= phi0 + c1 * alpha * g0:
            if dphi(alpha) >= c2 * g0:
                return alpha
            best = alpha
            # hi is None only at the unit step, which cannot expand past its cap
            if hi is None or hi - alpha <= 1e-12:
                break
            alpha = 0.5 * (alpha + hi)
        else:
            hi = alpha
            denom = 2.0 * (f_a - phi0 - g0 * alpha)
            trial = -g0 * alpha * alpha / denom if denom > 0 else 0.5 * alpha
            alpha = min(max(trial, 0.1 * alpha), 0.5 * alpha)
            if alpha < 1e-16:
                break
    if best is not None:
        return best
    raise LineSearchError("no step with sufficient decrease found")


def _step_to_zero(v: np.ndarray, dv: np.ndarray) -> float:
    """Step at which ``v + step * dv`` (``v > 0``) first reaches zero; ``inf``
    when no entry decreases.  A NaN entry of ``dv`` is skipped."""
    falling = dv < 0
    with np.errstate(over="ignore"):  # a tiny ``-dv`` gives inf, the right step
        steps = v[falling] / dv[falling]
    return -float(steps.max(initial=-np.inf))


def _fraction_to_boundary(p: np.ndarray, box: BoundBox) -> float:
    """Largest step fraction along ``p``, at most 1, that keeps the step
    strictly inside ``box`` (which contains 0): :data:`BOUNDARY_FRACTION` of
    the way to the nearest bound.  The slacks ``[-lower, upper]`` fall along
    ``[p, -p]``, so this is :func:`_step_to_zero`'s rule, and a NaN entry of
    ``p`` is skipped."""
    nearest = _step_to_zero(np.concatenate([-box.lower, box.upper]), np.concatenate([p, -p]))
    return min(1.0, BOUNDARY_FRACTION * nearest)


def ipm_qp_solve(g: np.ndarray, H: Hessian, box: BoundBox) -> np.ndarray:
    """Approximate minimizer of ``g^T s + 0.5 s^T H s`` over step bounds.

    ``box`` bounds the step itself and must contain 0 strictly.  Mehrotra's
    predictor-corrector primal-dual method (Nocedal & Wright, 2nd ed.,
    Section 16.6) moves the slacks ``t = [s - lb, ub - s]`` and multipliers
    ``z`` from ``s = 0, z = 1/t`` (the log-barrier central point of weight 1)
    to the central point ``t * z = CENTRAL_PATH_END``, below which it never
    centres, so an active bound keeps a slack of about ``CENTRAL_PATH_END /
    z_i``.  It stops there once the dual residual is below ``1e-12`` of the
    gradient scale or no longer falls (as with an ill-conditioned ``H``).
    ``H`` is the :class:`Hessian` of :func:`~ecsqp.autodiff.evaluate` (or
    one built with :meth:`Hessian.from_dense`).  Each iteration factors
    ``H + diag(z/t)`` once (Woodbury) for its predictor and corrector
    solves; once a predictor's target is on the ``CENTRAL_PATH_END`` floor,
    the later iterations skip the predictor and take the plain centring
    step.  Each step goes :data:`BOUNDARY_FRACTION` of the way to the
    nearest zero of ``t`` or ``z``.  A system that cannot be solved
    (singular, or a diagonal that is not positive) gives ``-H^{-1} g`` (or
    ``-g``) cut back by :func:`_fraction_to_boundary`.
    """
    g = np.asarray(g, dtype=float)
    lb, ub = box.lower, box.upper
    if not ((lb < 0.0).all() and (ub > 0.0).all()):
        raise ValueError("step box must contain 0 strictly (interior start)")

    def fallback() -> np.ndarray:
        try:
            d = _factor(H)(-g)
        except np.linalg.LinAlgError:
            d = -g
        return _fraction_to_boundary(d, box) * d

    n, s = g.shape[0], np.zeros_like(g)
    t = np.concatenate([-lb, ub])  # slacks s - lb, ub - s
    z = 1.0 / t
    tol, last = 1e-12 * (1.0 + float(np.abs(g).max())), math.inf
    floored = False  # a predictor's target has reached CENTRAL_PATH_END
    for _ in range(100):
        r = g + H @ s - z[:n] + z[n:]  # dual residual
        rnorm = float(np.abs(r).max())
        tz = t * z
        if (rnorm <= tol or rnorm >= last) and (
                np.abs(tz - CENTRAL_PATH_END).max() <= 1e-3 * CENTRAL_PATH_END):
            break  # centred, with a residual that is small or no longer falls
        last = rnorm
        zt, tz_joined = z / t, np.concatenate([t, z])
        # the affine-scaling predictor (none on the floor), then the
        # corrector: each is the step moving t * z by c to first order
        predict = not floored
        c = -tz if predict else CENTRAL_PATH_END - tz
        try:
            solve = _factor(H, zt[:n] + zt[n:])
            while True:
                ct = c / t
                ds = solve(ct[:n] - ct[n:] - r)
                dt = np.concatenate([ds, -ds])
                dz = (c - z * dt) / t
                nearest = _step_to_zero(tz_joined, np.concatenate([dt, dz]))
                alpha = min(1.0, BOUNDARY_FRACTION * nearest)
                if not predict:
                    break
                predict = False
                mu = float(t @ z) / t.size
                target = mu * (float((t + alpha * dt) @ (z + alpha * dz)) / t.size / mu) ** 3
                floored = target <= CENTRAL_PATH_END
                c = CENTRAL_PATH_END - tz if floored else target - tz - dt * dz
        except np.linalg.LinAlgError:
            return fallback()
        s = s + alpha * ds
        z = z + alpha * dz
        t = np.concatenate([s - lb, ub - s])
    return s


def _search_direction(
    grad: np.ndarray, hess: Hessian, step_box: BoundBox | None
) -> tuple[np.ndarray, float]:
    """Regularized Newton direction of ``0.5 d^T H d + g^T d`` and its shift.

    ``lambda`` is the first shift of :data:`SHIFT_LADDER` that makes ``H +
    lambda I`` positive definite (:func:`regularize_hessian`), and the
    direction solves ``(H + lambda I) d = -g``.  With ``step_box``, that
    step is kept when it goes at most :data:`BOUNDARY_FRACTION` of the way
    to every bound: the shifted model is strictly convex, so the step is
    then its exact minimizer over the box.  Otherwise, or when the system
    cannot be solved or its solution has a NaN entry (tested here, as
    :func:`_fraction_to_boundary` skips NaN entries), :func:`ipm_qp_solve`
    minimizes the model over the step box.  An exhausted ladder, a direction
    that does not point downhill, or an unsolvable system without a step box
    falls back to steepest descent with ``lambda = inf``, cut back to
    :data:`BOUNDARY_FRACTION` of the way to the step box.
    """
    shifted, lam = regularize_hessian(hess)
    if shifted is not None:
        try:
            d = _factor(shifted)(-grad)
        except np.linalg.LinAlgError:
            d = np.full_like(grad, math.nan)  # no Newton step: routed as a NaN one
        if step_box is not None and (
                np.isnan(d).any() or _fraction_to_boundary(d, step_box) != 1.0):
            d = ipm_qp_solve(grad, shifted, step_box)
        if d @ grad < 0.0:
            return d, lam
    frac = 1.0 if step_box is None else _fraction_to_boundary(-grad, step_box)
    return -grad * frac, math.inf


def sqp_run(
    objective: Callable[[ADVector], ADScalar],
    x0,
    box: BoundBox | None,
    cfg: SQPConfig | None = None,
) -> SQPResult:
    """Minimize an AD-capable objective with Newton/Wolfe line-search steps.

    ``objective`` maps the variables, one ADVector, to an ADScalar; each
    point evaluation is one forward sweep yielding value, gradient and
    Hessian.  Search directions are regularized Newton steps.  With ``box``
    given, a step that would pass the boundary fraction of the box is
    replaced by the interior-point solution of the quadratic subproblem, and
    all iterates stay strictly feasible.
    Any sweep raises :class:`~ecsqp.autodiff.ADDomainError` where a chain-rule map
    leaves its domain or float range.  Other non-finite results raise :class:`ValueError`
    at the start point or an accepted iterate; a NaN line-search trial is only rejected.
    """
    cfg = cfg or SQPConfig()
    stopping = cfg.stopping or "absolute"
    x = np.asarray(x0, dtype=float).copy()
    if box is not None:
        x = box.project_inward(x)

    evals = 0

    def sweep(point: np.ndarray) -> tuple[float, np.ndarray, Hessian]:
        nonlocal evals
        evals += 1
        return evaluate(objective, point)

    trace: list[NewtonIterate] = []
    f, grad, hess = sweep(x)
    gnorm = float(np.abs(grad).max())
    prev_gnorm: float | None = None
    prev_dnorm: float | None = None
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        if not (math.isfinite(f) and np.isfinite(grad).all() and np.isfinite(hess.d).all()
                and np.isfinite(hess.U).all() and np.isfinite(hess.C).all()):
            raise ValueError("objective value, gradient or Hessian not finite")
        if gnorm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break

        # unchecked: ipm_qp_solve requires lower < 0 < upper, hence lower < upper
        step_box = None if box is None else BoundBox._new(box.lower - x, box.upper - x)
        d, lam = _search_direction(grad, hess, step_box)

        dnorm = math.sqrt(d.dot(d))  # np.linalg.norm's sum of squares
        if dnorm <= cfg.step_tol:
            stop_reason = "step_tol"
            break
        if (
            stopping == "delta"
            and prev_gnorm is not None
            and abs(gnorm - prev_gnorm) <= DELTA_TOL
            and abs(dnorm - prev_dnorm) <= DELTA_TOL
        ):
            stop_reason = "delta_stall"
            break
        prev_gnorm, prev_dnorm = gnorm, dnorm

        cache: dict[float, tuple[float, np.ndarray, Hessian]] = {}

        def merit(alpha: float):
            if alpha not in cache:
                cache[alpha] = sweep(x + alpha * d)
            return cache[alpha]

        phi0, slope0 = f, float(grad @ d)
        phi = lambda a: phi0 if a == 0.0 else merit(a)[0]
        dphi = lambda a: slope0 if a == 0.0 else float(merit(a)[1] @ d)
        try:
            alpha = wolfe_line_search(phi, dphi)
        except LineSearchError:
            stop_reason = "line_search_failure"
            break

        f_new, grad_new, hess_new = merit(alpha)
        wolfe_ok = (
            f_new <= phi0 + WOLFE_C1 * alpha * slope0
            and float(grad_new @ d) >= WOLFE_C2 * slope0
        )
        x = x + alpha * d
        f, grad, hess = f_new, grad_new, hess_new
        gnorm = float(np.abs(grad).max())
        trace.append(
            NewtonIterate(
                iteration=k,
                x=x.copy(),
                f=f,
                grad=grad,
                direction=d,
                alpha=alpha,
                lambda_used=lam,
                grad_norm=gnorm,
                step_norm=dnorm,
                wolfe_ok=wolfe_ok,
                evaluations=evals,
            )
        )
    return SQPResult(x=x, f=f, trace=trace, stop_reason=stop_reason, evaluations=evals)
