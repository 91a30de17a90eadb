"""Least-squares regression with ridge, LASSO and elastic net penalties.

The solver is cyclic coordinate descent with soft-thresholding, run on
columns standardized to mean 0 and sum of squares 1 with the response
centered (the intercept is never penalized). For a design standardized
that way the penalized objective is

    J(b) = (1/2n) * ||y - X b||^2
           + lam * ((1 - alpha)/2 * sum(b_j^2) + alpha * sum(|b_j|))

so ``lam`` lives on the mean-squared-error scale and is comparable across
node sizes. The textbook ridge closed form (X'X + lam I)^-1 X'y minimizes
the unnormalized ``||y - Xb||^2 + lam ||b||^2`` instead; the two scales
are related by ``ridge lam = n * elastic-net lam at alpha = 0``.

Coordinate descent stops by one of two rules. Along the cross-validated
``lambda.min`` path each fold stops by glmnet's relative rule (Friedman,
Hastie & Tibshirani, JSS 2010, ``thresh``): once a sweep moves no
coefficient by more than ``sqrt(PATH_THRESH * ||y_f - mean(y_f)||^2)``,
worked out from that fold's training response, so the bound follows the
response's unit. A single fit, the final full-data fit of
:func:`fit_elastic_net` included, keeps the absolute bound ``CD_TOL``.

One ``lambda.min`` path does its set-up once: the folds' Gram matrices are
laid out coordinate-major a single time and shared by all N_LAMBDAS kernel
calls, each coordinate step runs on buffers allocated once per sweep with
no test for a zero move, and every fold's coefficients are kept along the
path, so that its CV error at all penalties is scored by one matrix product
after the path.

Each penalty of the path starts from a first-order prediction of its
solution (Park & Hastie, JRSS-B 2007) instead of the last solution alone:
from the third penalty on, a coefficient nonzero at the last penalty starts
at the secant ``2 b(lam_{i-1}) - b(lam_{i-2})``, linear extrapolation in log
lambda on the geometric grid, or at 0 where that crosses zero; a coefficient
at 0 starts at 0. The stopping rule is unchanged, and the path runs about a
third fewer sweeps than with the last solution as its start.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Standardization, fold_indices, nonconstant_columns, standardize_matrix

log = logging.getLogger(__name__)

LAMBDA_MIN = "lambda.min"

# Coordinate descent stops once a sweep moves no coefficient by CD_TOL (any
# single fit, the final fit of fit_elastic_net included) or, for fold f of the
# lambda.min path, by sqrt(PATH_THRESH * ||y_f - mean(y_f)||^2): glmnet's
# relative thresh for columns of unit sum of squares, free of y's scale.
CD_TOL = 1e-7
PATH_THRESH = 1e-7
CD_MAX_ITER = 10_000  # ... or after this many sweeps, unconverged
N_LAMBDAS = 100  # lambda.min path length, from lambda_max ...
LAMBDA_RATIO = 1e-4  # ... down to lambda_max * LAMBDA_RATIO


class RankDeficiencyError(np.linalg.LinAlgError):
    """Normal equations too ill-conditioned for an unpenalized fit."""


@dataclass(frozen=True)
class PenaltySpec:
    """Elastic net mixing weight alpha and penalty size.

    alpha = 1 is the pure LASSO, alpha = 0 pure ridge. ``lam`` is either a
    non-negative float or the string "lambda.min", which selects the value
    minimizing k-fold cross-validated error along the penalty path.
    """

    alpha: float
    lam: float | str

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if isinstance(self.lam, str):
            if self.lam != LAMBDA_MIN:
                raise ValueError(f"unknown lambda rule {self.lam!r}")
        elif self.lam < 0:
            raise ValueError("lambda must be >= 0")


@dataclass
class LinearFit:
    """Fitted linear model, reported on the original feature scale.

    ``coefficients`` aligns with ``feature_names``. The standardization
    used at fit time is kept so predictions can be reproduced in either
    parametrization.
    """

    intercept: float
    coefficients: np.ndarray
    feature_names: list[str]
    standardization: Standardization | None = None
    penalty: PenaltySpec | None = None
    converged: bool = True
    iterations: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.intercept + X @ self.coefficients


def soft_threshold(t: float, lam: float) -> float:
    """Minimizer of (b - t)^2 + lam |b|: shrink t by lam/2, truncate at 0."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if t > lam / 2.0:
        return t - lam / 2.0
    if t < -lam / 2.0:
        return t + lam / 2.0
    return 0.0


def ridge_closed_form(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (X'X + lam I) b = X'y directly. No intercept, no scaling."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(p), X.T @ y)


def enet_objective(X, y, beta, alpha, lam) -> float:
    """Penalized objective J(b) on a standardized design (see module docs)."""
    r = y - X @ beta
    n = y.shape[0]
    penalty = lam * ((1.0 - alpha) / 2.0 * float(beta @ beta) + alpha * float(np.abs(beta).sum()))
    return float(r @ r) / (2.0 * n) + penalty


def kkt_violation(X, y, beta, alpha, lam) -> float:
    """Largest violation of the subgradient optimality conditions of J."""
    n = y.shape[0]
    r = y - X @ beta
    grad_smooth = -(X.T @ r) / n + lam * (1.0 - alpha) * beta
    thresh = lam * alpha
    worst = 0.0
    for j in range(beta.shape[0]):
        if beta[j] != 0.0:
            worst = max(worst, abs(grad_smooth[j] + thresh * np.sign(beta[j])))
        else:
            worst = max(worst, max(abs(grad_smooth[j]) - thresh, 0.0))
    return worst


@dataclass
class CDResult:
    beta: np.ndarray
    converged: bool
    sweeps: int


def _coordinate_major(G):
    """The stack G (k, p, p) laid out as gcol[j, i, f] = G[f, i, j]: row j holds
    column j of every problem's G, so one coordinate step reads one block."""
    return np.ascontiguousarray(np.transpose(G, (2, 1, 0)))


def _cd_kernel(G, c, n, alpha, lam, beta, tol, max_iter, gcol=None):
    """Cyclic coordinate descent in covariance mode over a stack of k problems.

    Problem f is a standardized design X_f (columns of sum of squares 1)
    and a centered response y_f, given as ``G[f] = X_f'X_f``,
    ``c[f] = X_f'y_f`` and its row count ``n[f]``. The kernel keeps
    ``q = c - G b``, which equals X_j'r, so coordinate j moves to
    soft_threshold(q_j + b_j, 2 n lam alpha) / (1 + n lam (1 - alpha)), and
    a move updates q with column j of G. Each step is vectorized over the
    problems still running, into buffers allocated once per sweep, and has
    no test for a zero move: a coordinate that does not move rewrites b_j
    with the same bits (a clipped coordinate is +0.0, never -0.0) and adds
    +-0 to q, which can at most turn a -0.0 into +0.0 that no later sum
    q_j + b_j tells apart. Problem f stops once a sweep moves none of its
    coefficients by ``tol`` (a scalar, or ``tol[f]``) or moves none at all,
    and drops out of later sweeps. Once three or fewer problems are left
    (always, for k <= 3), each runs the same steps on Python floats:
    bit-identical, and cheaper than numpy calls on so few values. A column
    that is all zeros in G and c stays exactly 0. ``beta`` (k, p) is the
    warm start and is overwritten with the solutions. ``gcol`` is
    ``_coordinate_major(G)``, built here unless a caller that solves many
    penalties on one G (the lambda.min path) passes it in. Returns the sweep
    count and the convergence flag of each problem.
    """
    k, p = beta.shape
    n = np.asarray(n, dtype=float)
    sweeps = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    run = np.arange(k)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (k,))
    # Coordinate-major layout: row j of b, q and gcol[j] holds every running problem.
    half = n * lam * alpha  # the soft threshold, half of 2 n lam alpha
    low = -half
    denom = 1.0 + n * lam * (1.0 - alpha)
    b = beta.T.copy()
    q = (c - np.einsum("fij,fj->fi", G, beta)).T.copy()
    if gcol is None:
        gcol = _coordinate_major(G)
    for sweep in range(1, max_iter + 1):
        start = b.copy()
        if run.size <= 3:
            for f in range(run.size):
                q1, g1, bl = q[:, f], gcol[:, :, f], b[:, f].tolist()
                h, lo, dn = float(half[f]), float(low[f]), float(denom[f])
                for j in range(p):
                    old = bl[j]
                    rho = float(q1[j]) + old
                    new = (rho - min(max(rho, lo), h)) / dn
                    if new != old:
                        q1 += g1[j] * (old - new)
                        bl[j] = new
                b[:, f] = bl
        else:
            rho, new, step = np.empty((3, run.size))
            dq = np.empty_like(q)
            for qj, bj, gj in zip(q, b, gcol):
                np.add(qj, bj, out=rho)
                np.maximum(rho, low, out=new)
                np.minimum(new, half, out=new)
                np.subtract(rho, new, out=new)
                np.divide(new, denom, out=new)
                np.subtract(bj, new, out=step)
                np.multiply(gj, step, out=dq)
                q += dq
                bj[:] = new
        sweeps[run] = sweep
        moved = np.abs(b - start).max(axis=0, initial=0.0)
        done = (moved < tol) | (moved == 0.0)  # moving nothing is exact, even at tol 0
        if done.any():
            beta[run[done]] = b[:, done].T
            converged[run[done]] = True
            live = ~done
            run, b, q, gcol = run[live], b[:, live], q[:, live], gcol[:, :, live]
            half, low, denom, tol = half[live], low[live], denom[live], tol[live]
            if not run.size:
                break
    beta[run] = b.T
    return sweeps, converged


def coordinate_descent(
    X: np.ndarray, y: np.ndarray, alpha: float, lam: float, tol: float = CD_TOL
) -> CDResult:
    """Cyclic coordinate descent on a standardized design.

    Requires columns with sum of squares 1 (the per-coordinate quadratic
    weight then collapses to a constant) and a centered response. Starts
    from zero, sweeps coordinates in order and stops when the largest
    coefficient change in a sweep drops below ``tol``, or unconverged after
    ``CD_MAX_ITER`` sweeps. This is the one-problem case of the
    covariance-mode kernel.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros((1, X.shape[1]))
    sweeps, converged = _cd_kernel(
        (X.T @ X)[None], (X.T @ y)[None], [X.shape[0]], alpha, lam, beta, tol, CD_MAX_ITER
    )
    return CDResult(beta=beta[0], converged=bool(converged[0]), sweeps=int(sweeps[0]))


def fit_ols(X, y, feature_names=None) -> LinearFit:
    """Ordinary least squares with an intercept.

    Raises :class:`RankDeficiencyError` when the reciprocal condition
    number of the normal equations falls below 1e-12 (duplicated or
    constant columns, or n <= p).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(X.shape[1])]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    s = np.linalg.svd(Xc, compute_uv=False) if min(Xc.shape) else np.array([0.0])
    if s.size == 0 or s[0] == 0.0 or (s[-1] / s[0]) ** 2 < 1e-12:
        raise RankDeficiencyError(
            "normal equations are rank deficient (reciprocal condition < 1e-12)"
        )
    coef = np.linalg.solve(Xc.T @ Xc, Xc.T @ yc)
    intercept = float(y.mean() - X.mean(axis=0) @ coef)
    return LinearFit(
        intercept=intercept,
        coefficients=coef,
        feature_names=list(feature_names),
        converged=True,
    )


def fit_elastic_net(
    X,
    y,
    penalty: PenaltySpec,
    feature_names=None,
    cv_folds: int = 10,
    cv_seed: int = 0,
) -> LinearFit:
    """Elastic net fit by coordinate descent.

    Standardizes X internally (mean 0, sum of squares 1), centers y, runs
    cyclic coordinate descent from zero to the absolute bound ``CD_TOL``
    and destandardizes the solution. When ``penalty.lam`` is "lambda.min"
    the penalty size is chosen by :func:`lambda_path_cv` first, whose folds
    stop by the relative rule instead (see the module docstring). A fit that
    exhausts ``CD_MAX_ITER`` sweeps is returned with ``converged=False`` and logged.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(X.shape[1])]
    lam = penalty.lam
    if lam == LAMBDA_MIN:
        lam = lambda_path_cv(X, y, penalty.alpha, k=cv_folds, seed=cv_seed).lambda_min
    Xs, st = standardize_matrix(X, list(feature_names))
    res = coordinate_descent(Xs, y - y.mean(), penalty.alpha, lam)
    if not res.converged:
        log.warning("coordinate descent did not converge in %d sweeps", res.sweeps)
    return LinearFit(
        intercept=float(y.mean() - (res.beta * st.center / st.scale).sum()),
        coefficients=res.beta / st.scale,
        feature_names=list(st.names),
        standardization=st,
        penalty=PenaltySpec(alpha=penalty.alpha, lam=float(lam)),
        converged=res.converged,
        iterations=res.sweeps,
    )


@dataclass
class LambdaPath:
    lambda_min: float
    lambdas: np.ndarray
    cv_mean: np.ndarray
    cv_sd: np.ndarray


def lambda_max(X_std: np.ndarray, y_centered: np.ndarray, alpha: float) -> float:
    """Smallest penalty zeroing every coefficient on a standardized design."""
    n = y_centered.shape[0]
    alpha_eff = max(alpha, 1e-3)
    return float(np.abs(X_std.T @ y_centered).max() / (n * alpha_eff))


def _secant_start(prev: np.ndarray, prev2: np.ndarray) -> np.ndarray:
    """Warm start for the next penalty from the solutions at the last two.

    A coefficient nonzero at the last penalty moves on along the secant
    ``2 prev - prev2``; on the geometric grid that is linear extrapolation in
    log lambda. It starts at 0 where the secant crosses zero, and a
    coefficient at 0 stays at 0.
    """
    guess = 2.0 * prev - prev2
    return np.where(guess * prev > 0.0, guess, 0.0)


def lambda_path_cv(X, y, alpha: float, k: int = 10, seed: int = 0) -> LambdaPath:
    """Cross-validated penalty path: pick lambda.min by k-fold squared error.

    The grid runs N_LAMBDAS log-spaced steps from lambda_max (the smallest
    value zeroing all coefficients on the full data) down to lambda_max *
    LAMBDA_RATIO. Folds come from :func:`~claimtree.data.fold_indices`. One
    kernel call per lambda solves every fold at once, on the coordinate-major
    layout built once for the whole path. The second lambda starts from the
    first one's solution and every later one from :func:`_secant_start` of
    the last two. Each fold's coefficients are kept at every lambda, and its
    test error along the path is scored in one product after the last lambda.
    Fold f stops once a sweep moves no coefficient by more
    than ``sqrt(PATH_THRESH * ||y_f - mean(y_f)||^2)`` over its training
    response y_f, so at alpha = 1 scaling y scales the grid and leaves the
    chosen index alone; a fold whose training response is constant stops
    after its first sweep at 0. Folds still unconverged after CD_MAX_ITER sweeps
    are logged in one warning. Ties prefer the larger (more shrunken) lambda.
    One DEBUG line per path gives the chosen grid index, its lambda and the
    sweeps of all folds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    folds = fold_indices(n, k, seed)
    keep = nonconstant_columns(X)
    if not keep.any() or np.ptp(y) == 0.0:
        return LambdaPath(0.0, np.zeros(1), np.zeros(1), np.zeros(1))
    Xs, _ = standardize_matrix(X[:, keep])
    lam_top = lambda_max(Xs, y - y.mean(), alpha)
    if lam_top == 0.0:
        return LambdaPath(0.0, np.zeros(1), np.zeros(1), np.zeros(1))
    grid = np.geomspace(lam_top, lam_top * LAMBDA_RATIO, N_LAMBDAS)
    # One stacked Gram system: fold f trains on its standardized nonconstant
    # columns; a column constant in its training rows is all zeros in G[f],
    # c[f] and its test matrix, so its coefficient stays 0.
    X = X[:, keep]
    p = X.shape[1]
    G = np.zeros((k, p, p))
    c = np.zeros((k, p))
    n_train = np.zeros(k)
    tol = np.zeros(k)
    tests = []
    for fi, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(n), test_idx, assume_unique=True)
        Xtr, ytr = X[train_idx], y[train_idx]
        sub = nonconstant_columns(Xtr)
        Xtr_s, st = standardize_matrix(Xtr[:, sub])
        G[fi][np.ix_(sub, sub)] = Xtr_s.T @ Xtr_s
        ytr_c = ytr - ytr.mean()
        c[fi, sub] = Xtr_s.T @ ytr_c
        tol[fi] = np.sqrt(PATH_THRESH * (ytr_c @ ytr_c))
        n_train[fi] = train_idx.size
        Xte_s = np.zeros((test_idx.size, p))
        Xte_s[:, sub] = st.apply(X[test_idx][:, sub])
        tests.append((Xte_s, y[test_idx], ytr.mean()))
    stalled = np.zeros((grid.size, k), dtype=bool)
    path = np.empty((k, grid.size, p))  # path[f, l]: fold f's coefficients at grid[l]
    beta = np.zeros((k, p))
    gcol = _coordinate_major(G)
    total_sweeps = 0
    for li, lam in enumerate(grid):
        if li >= 2:
            beta = _secant_start(path[:, li - 1], path[:, li - 2])
        sweeps, converged = _cd_kernel(G, c, n_train, alpha, lam, beta, tol, CD_MAX_ITER, gcol)
        total_sweeps += int(sweeps.sum())
        stalled[li] = ~converged
        path[:, li] = beta
    errors = np.array([
        ((y_te - (y_mean + path[fi] @ Xte_s.T)) ** 2).mean(axis=1)
        for fi, (Xte_s, y_te, y_mean) in enumerate(tests)
    ])
    if stalled.any():
        li, fi = np.argwhere(stalled)[0]
        log.warning(
            "coordinate descent did not converge in %d sweeps for %d of %d CV fits "
            "(first: fold %d, lambda index %d)", CD_MAX_ITER, stalled.sum(), stalled.size, fi, li
        )
    cv_mean = errors.mean(axis=0)
    cv_sd = errors.std(axis=0, ddof=1)
    best = int(np.argmin(cv_mean))
    log.debug(
        "lambda path: grid index %d of %d, lambda %.6g, %d sweeps over %d folds",
        best, grid.size, grid[best], total_sweeps, k,
    )
    return LambdaPath(float(grid[best]), grid, cv_mean, cv_sd)
