"""Newton/SQP line-search minimizer with exact Hessians.

The solver takes full Newton steps computed from automatic-differentiation
Hessians, certifies step lengths with the Wolfe conditions, and handles
variable bounds by solving each quadratic subproblem with a log-barrier
interior-point iteration.  Indefinite Hessians are repaired with an escalating
Levenberg-style diagonal shift; if that fails the step falls back to steepest
descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import ADScalar, evaluate

__all__ = [
    "BoundBox",
    "LineSearchError",
    "NewtonIterate",
    "SQPConfig",
    "SQPResult",
    "ipm_qp_solve",
    "newton_direction",
    "regularize_hessian",
    "sqp_run",
    "wolfe_line_search",
]

REGULARIZATION_LADDER_CAP = 1e8  # multiples of lambda_min tried before fallback
BOUNDARY_FRACTION = 0.995  # fraction-to-boundary factor tau
BARRIER_SCHEDULE = tuple(10.0**-k for k in range(0, 9))  # barrier weights mu, in order


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
    """Solver tolerances and line-search constants.

    ``stopping`` selects the termination regime: ``"absolute"`` stops on the
    gradient/step tolerances alone, ``"delta"`` additionally stops once the
    gradient and direction norms stall between iterations.  ``None`` means
    "absolute" standalone but "delta" when driven by the hybrid pipeline.
    """

    grad_tol: float = 1e-6
    step_tol: float = 1e-6
    max_iter: int = 200
    c1: float = 1e-4
    c2: float = 0.9
    lambda_min: float = 1e-6
    stopping: str | None = None
    delta_tol: float = 0.001
    max_line_search_evals: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if self.grad_tol <= 0 or self.step_tol <= 0 or self.lambda_min <= 0:
            raise ValueError("tolerances and lambda_min must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.stopping not in (None, "absolute", "delta"):
            raise ValueError(f"unknown stopping regime {self.stopping!r}")


@dataclass
class NewtonIterate:
    """One accepted step of the solver (state at the new point)."""

    iteration: int
    x: np.ndarray
    f: float
    grad: np.ndarray
    hess: np.ndarray
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
    warnings: list[str] = field(default_factory=list)


def regularize_hessian(
    hess: np.ndarray, lambda_min: float
) -> tuple[np.ndarray | None, float]:
    """Smallest diagonal shift from {0, lambda_min, 10*lambda_min, ...} that
    makes the matrix positive definite (Cholesky succeeds).

    Returns ``(shifted_matrix, lambda)`` or ``(None, inf)`` if the ladder cap
    is exceeded.
    """
    n = hess.shape[0]
    lam = 0.0
    while True:
        candidate = hess if lam == 0.0 else hess + lam * np.eye(n)
        try:
            np.linalg.cholesky(candidate)
            return candidate, lam
        except np.linalg.LinAlgError:
            lam = lambda_min if lam == 0.0 else lam * 10.0
            if lam > REGULARIZATION_LADDER_CAP * lambda_min:
                return None, math.inf


def newton_direction(
    grad: np.ndarray, hess: np.ndarray, lambda_min: float = 1e-6
) -> tuple[np.ndarray, float]:
    """Descent direction solving ``(H + lambda I) d = -g``.

    ``lambda`` is the first rung of :func:`regularize_hessian`'s ladder that
    makes the matrix positive definite.  An exhausted ladder, or a shifted
    solve that does not point downhill, falls back to steepest descent with
    ``lambda_used = inf``.
    """
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ValueError("gradient/Hessian must be finite")
    if np.all(grad == 0.0):
        return np.zeros_like(grad), 0.0
    shifted, lam = regularize_hessian(hess, lambda_min)
    if shifted is not None:
        d = np.linalg.solve(shifted, -grad)
        if d @ grad < 0.0:
            return d, lam
    return -grad, math.inf


def wolfe_line_search(
    phi: Callable[[float], float],
    dphi: Callable[[float], float],
    c1: float = 1e-4,
    c2: float = 0.9,
    max_evals: int = 50,
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
            if hi is None:
                if alpha >= 1.0:
                    break  # cannot expand past the unit-step cap
                alpha = min(1.0, 2.0 * alpha)
            else:
                if hi - alpha <= 1e-12:
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


def _fraction_to_boundary(
    s: np.ndarray, p: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> float:
    """Largest step fraction along ``p``, at most 1, that keeps ``s`` strictly
    inside [lb, ub]: :data:`BOUNDARY_FRACTION` of the way to the nearest bound."""
    alpha = 1.0
    neg = p < 0
    pos = p > 0
    if np.any(neg):
        alpha = min(alpha, BOUNDARY_FRACTION * np.min((lb[neg] - s[neg]) / p[neg]))
    if np.any(pos):
        alpha = min(alpha, BOUNDARY_FRACTION * np.min((ub[pos] - s[pos]) / p[pos]))
    return alpha


def ipm_qp_solve(g: np.ndarray, H: np.ndarray, box: BoundBox) -> np.ndarray:
    """Approximate minimizer of ``g^T s + 0.5 s^T H s`` over step bounds.

    ``box`` holds bounds for the step itself and must contain 0 strictly
    (i.e. the current point is strictly interior).  A log-barrier Newton
    iteration is run for each barrier weight of :data:`BARRIER_SCHEDULE`,
    which decays from 1 by factors of 10 down to 1e-8.  Centring for a
    weight ends when the residual is small, after 50 Newton steps, or as
    soon as the backtracked step no longer strictly lowers the barrier
    (an ill-conditioned ``H`` can leave the residual above tolerance in
    floating point); the iteration then moves on to the next weight.
    The returned step is strictly feasible.  If a Newton system is singular
    or backtracking finds no acceptable step, the unconstrained Newton step
    ``-H^{-1} g`` (steepest descent ``-g`` when ``H`` is singular), scaled
    back to the boundary fraction, is returned instead.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    lb, ub = box.lower, box.upper
    if not (np.all(lb < 0.0) and np.all(ub > 0.0)):
        raise ValueError("step box must contain 0 strictly (interior start)")

    def fallback() -> np.ndarray:
        try:
            d = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            d = -g
        return _fraction_to_boundary(np.zeros_like(d), d, lb, ub) * d

    def barrier(s: np.ndarray, mu: float) -> float:
        return g @ s + 0.5 * s @ H @ s - mu * (
            np.log(s - lb).sum() + np.log(ub - s).sum()
        )

    s = np.zeros_like(g)
    scale = 1.0 + float(np.max(np.abs(g)))
    for mu in BARRIER_SCHEDULE:
        tol = max(1e-12 * scale, 1e-3 * mu)
        base = barrier(s, mu)
        for _ in range(50):
            inv_lo = 1.0 / (s - lb)
            inv_hi = 1.0 / (ub - s)
            r = g + H @ s - mu * inv_lo + mu * inv_hi
            if np.max(np.abs(r)) <= tol:
                break
            W = H + np.diag(mu * inv_lo**2 + mu * inv_hi**2)
            try:
                p = np.linalg.solve(W, -r)
            except np.linalg.LinAlgError:
                return fallback()
            alpha = min(1.0, _fraction_to_boundary(s, p, lb, ub))
            while alpha > 1e-14:
                trial = barrier(s + alpha * p, mu)
                if trial <= base:
                    break
                alpha *= 0.5
            else:
                return fallback()
            s = s + alpha * p
            if trial >= base:  # no strict decrease: centring has stalled
                break
            base = trial
    return s


def sqp_run(
    objective: Callable[[Sequence[ADScalar]], ADScalar],
    x0,
    box: BoundBox | None,
    cfg: SQPConfig | None = None,
) -> SQPResult:
    """Minimize an AD-capable objective with Newton/Wolfe line-search steps.

    ``objective`` maps a sequence of ADScalar variables to an ADScalar; each
    point evaluation is one forward sweep yielding value, gradient and
    Hessian.  With ``box`` given, search directions come from the
    interior-point quadratic subproblem and all iterates stay strictly
    feasible; without it, plain regularized Newton directions are used.
    """
    cfg = cfg or SQPConfig()
    stopping = cfg.stopping or "absolute"
    x = np.asarray(x0, dtype=float).copy()
    if box is not None:
        x = box.project_inward(x)

    evals = 0

    def sweep(point: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        nonlocal evals
        evals += 1
        return evaluate(objective, point)

    warnings: list[str] = []
    trace: list[NewtonIterate] = []
    f, grad, hess = sweep(x)
    prev_gnorm: float | None = None
    prev_dnorm: float | None = None
    stop_reason = "max_iter"
    for k in range(cfg.max_iter):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= cfg.grad_tol:
            stop_reason = "grad_tol"
            break

        if box is not None:
            step_box = BoundBox(box.lower - x, box.upper - x)
            H_pd, lam = regularize_hessian(hess, cfg.lambda_min)
            d = None if H_pd is None else ipm_qp_solve(grad, H_pd, step_box)
            if d is None or d @ grad >= 0.0:  # ladder exhausted, or step not downhill
                frac = _fraction_to_boundary(
                    np.zeros_like(grad), -grad, step_box.lower, step_box.upper
                )
                d, lam = -grad * frac, math.inf
        else:
            d, lam = newton_direction(grad, hess, cfg.lambda_min)

        dnorm = float(np.linalg.norm(d))
        if dnorm <= cfg.step_tol:
            stop_reason = "step_tol"
            break
        if (
            stopping == "delta"
            and prev_gnorm is not None
            and abs(gnorm - prev_gnorm) <= cfg.delta_tol
            and abs(dnorm - prev_dnorm) <= cfg.delta_tol
        ):
            stop_reason = "delta_stall"
            break
        prev_gnorm, prev_dnorm = gnorm, dnorm

        cache: dict[float, tuple[float, np.ndarray, np.ndarray]] = {}

        def merit(alpha: float):
            if alpha not in cache:
                cache[alpha] = sweep(x + alpha * d)
            return cache[alpha]

        phi0, slope0 = f, float(grad @ d)
        phi = lambda a: phi0 if a == 0.0 else merit(a)[0]
        dphi = lambda a: slope0 if a == 0.0 else float(merit(a)[1] @ d)
        try:
            alpha = wolfe_line_search(
                phi, dphi, cfg.c1, cfg.c2, cfg.max_line_search_evals
            )
        except LineSearchError:
            warnings.append(f"line search failed at iteration {k}")
            stop_reason = "line_search_failure"
            break

        f_new, grad_new, hess_new = merit(alpha)
        wolfe_ok = (
            f_new <= phi0 + cfg.c1 * alpha * slope0
            and float(grad_new @ d) >= cfg.c2 * slope0
        )
        x = x + alpha * d
        f, grad, hess = f_new, grad_new, hess_new
        trace.append(
            NewtonIterate(
                iteration=k,
                x=x.copy(),
                f=f,
                grad=grad,
                hess=hess,
                direction=d,
                alpha=alpha,
                lambda_used=lam,
                grad_norm=float(np.max(np.abs(grad))),
                step_norm=dnorm,
                wolfe_ok=wolfe_ok,
                evaluations=evals,
            )
        )
    return SQPResult(
        x=x, f=f, trace=trace, stop_reason=stop_reason, evaluations=evals,
        warnings=warnings,
    )
