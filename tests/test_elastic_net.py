"""Coordinate descent solver checked against independent routes:
soft-thresholding against 1-D grid minimization, ridge against its linear
algebra closed form, LASSO against dense coefficient-grid search, plus
KKT certification and the standardization contract.
"""

import contextlib
import logging
import re
import warnings

import numpy as np
import pytest

import claimtree.elastic_net as elastic_net
from claimtree import hybrid
from claimtree.data import nonconstant_columns, standardize_matrix
from claimtree.elastic_net import (
    CD_MAX_ITER,
    CD_TOL,
    LAMBDA_MIN,
    LAMBDA_RATIO,
    N_LAMBDAS,
    PATH_THRESH,
    PenaltySpec,
    RankDeficiencyError,
    coordinate_descent,
    enet_objective,
    fit_elastic_net,
    fit_ols,
    kkt_violation,
    lambda_max,
    lambda_path_cv,
    ridge_closed_form,
    soft_threshold,
)
from claimtree.simulate import SimConfig, simulate


def standardized_problem(rng, n, p, noise=1.0):
    X = rng.normal(size=(n, p)) @ (np.eye(p) + 0.3 * rng.normal(size=(p, p)))
    beta = rng.normal(size=p) * 2
    y = X @ beta + noise * rng.normal(size=n)
    Xs, _ = standardize_matrix(X)
    return Xs, y - y.mean()


def solver_warnings(caplog) -> list[str]:
    """Messages of the WARNING records the solver's logger wrote."""
    return [rec.getMessage() for rec in caplog.records
            if rec.name == "claimtree.elastic_net" and rec.levelno == logging.WARNING]


@contextlib.contextmanager
def nothing_warned(caplog):
    """Fail on any Python warning, and on any WARNING the solver logs."""
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="claimtree.elastic_net"):
        warnings.simplefilter("error")
        yield
    assert solver_warnings(caplog) == []


def grid_minimize_objective(X, y, lam, alpha=1.0, steps=41, zooms=4):
    """Dense coefficient-grid minimization of the penalized objective,
    zooming in around the incumbent. Independent of the solver."""
    n, p = X.shape
    b_ols = np.linalg.lstsq(X, y, rcond=None)[0]
    half = np.maximum(2.0 * np.abs(b_ols), 1.0)
    lo, hi = -half, half
    best = np.zeros(p)
    best_J = np.inf
    for _ in range(zooms):
        axes = [np.linspace(lo[j], hi[j], steps) for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        B = np.stack([g.ravel() for g in mesh], axis=1)
        R = y[:, None] - X @ B.T
        J = (
            (R**2).sum(axis=0) / (2.0 * n)
            + lam * (1.0 - alpha) / 2.0 * (B**2).sum(axis=1)
            + lam * alpha * np.abs(B).sum(axis=1)
        )
        k = int(np.argmin(J))
        if J[k] < best_J:
            best_J = float(J[k])
            best = B[k]
        width = (hi - lo) / (steps - 1)
        lo = best - 2.0 * width
        hi = best + 2.0 * width
    return best, best_J


class TestSoftThreshold:
    def test_worked_cases(self):
        assert soft_threshold(3.0, 2.0) == 2.0
        assert soft_threshold(-3.0, 2.0) == -2.0
        assert soft_threshold(0.5, 2.0) == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.5)

    def test_matches_grid_minimization(self):
        """Analytic solution vs argmin of (b-t)^2 + lam|b| on a fine grid."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = float(rng.uniform(-5, 5))
            lam = float(rng.uniform(0, 5))
            span = abs(t) + lam + 1.0
            grid = np.arange(-span, span, 1e-4)
            obj = (grid - t) ** 2 + lam * np.abs(grid)
            assert abs(soft_threshold(t, lam) - grid[np.argmin(obj)]) <= 1e-4

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0, 4))
            assert soft_threshold(-t, lam) == -soft_threshold(t, lam)


class TestRidge:
    def test_identity_design_closed_form(self):
        """X = I, y = (2,4), lam = 1: (X'X + I)^-1 X'y = (1, 2)."""
        beta = ridge_closed_form(np.eye(2), np.array([2.0, 4.0]), 1.0)
        np.testing.assert_allclose(beta, [1.0, 2.0])

    def test_small_lambda_approaches_ols(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=60)
        ols = fit_ols(X, y)
        ridge = fit_elastic_net(X, y, PenaltySpec(alpha=0.0, lam=1e-10 / 60))
        np.testing.assert_allclose(ridge.coefficients, ols.coefficients, atol=1e-6)

    def test_large_lambda_shrinks_to_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=50)
        ridge = fit_elastic_net(X, y, PenaltySpec(alpha=0.0, lam=1e12 / 50))
        np.testing.assert_allclose(ridge.coefficients, 0.0, atol=1e-8)
        assert ridge.intercept == pytest.approx(y.mean(), abs=1e-8)

    def test_coordinate_descent_alpha0_matches_closed_form(self):
        """CD at alpha=0 with lam/n equals the (X'X + lam I)^-1 X'y solution."""
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(12, 51))
            p = int(rng.integers(1, 9))
            Xs, yc = standardized_problem(rng, n, p)
            lam = float(rng.uniform(0.01, 5.0))
            closed = ridge_closed_form(Xs, yc, lam)
            res = coordinate_descent(Xs, yc, alpha=0.0, lam=lam / n)
            assert res.converged
            np.testing.assert_allclose(res.beta, closed, atol=1e-6)


class TestOls:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = 2.0 + X @ np.array([1.0, -1.0, 3.0])
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.predict(X), y, atol=1e-9)
        np.testing.assert_allclose(fit.coefficients, [1.0, -1.0, 3.0], atol=1e-9)

    def test_single_standardized_column_slope(self):
        x = np.linspace(-1, 1, 20)[:, None]
        Xs, _ = standardize_matrix(x)
        fit = fit_ols(Xs, 2.0 * Xs[:, 0])
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)

    def test_duplicated_column_is_rank_deficient(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        X = np.column_stack([x, x])
        with pytest.raises(RankDeficiencyError):
            fit_ols(X, rng.normal(size=30))

    def test_more_columns_than_rows_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(RankDeficiencyError):
            fit_ols(rng.normal(size=(5, 8)), rng.normal(size=5))

    def test_normal_equations_gradient_zero(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=80)
        fit = fit_ols(X, y)
        resid = y - fit.predict(X)
        np.testing.assert_allclose(X.T @ resid, 0.0, atol=1e-8)
        assert resid.mean() == pytest.approx(0.0, abs=1e-10)


class TestElasticNet:
    def test_alpha0_matches_ridge_closed_form(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 4))
        y = X @ np.array([1.0, 0.0, -2.0, 0.5]) + 0.3 * rng.normal(size=40)
        lam = 0.8
        enet = fit_elastic_net(X, y, PenaltySpec(alpha=0.0, lam=lam / 40))
        Xs, st = standardize_matrix(X)
        b_std = ridge_closed_form(Xs, y - y.mean(), lam)
        np.testing.assert_allclose(enet.coefficients, b_std / st.scale, atol=1e-6)
        intercept = y.mean() - (b_std / st.scale) @ st.center
        assert enet.intercept == pytest.approx(intercept, abs=1e-6)

    def test_single_predictor_lasso_is_soft_thresholded_ols(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=50)[:, None]
        y = 1.5 * x[:, 0] + 0.2 * rng.normal(size=50)
        Xs, _ = standardize_matrix(x)
        yc = y - y.mean()
        rho = float(Xs[:, 0] @ yc)  # OLS slope on the standardized design
        lam = 0.02
        res = coordinate_descent(Xs, yc, alpha=1.0, lam=lam)
        # equality up to the rounding of sum(x^2) = 1 in the standardization
        assert res.beta[0] == pytest.approx(soft_threshold(rho, 2.0 * 50 * lam), rel=1e-12)
        # and it minimizes the penalized objective (1-D grid oracle), with
        # ||yc - g x||^2 expanded so no n x grid matrix is built
        grid = np.arange(-2 * abs(rho), 2 * abs(rho), 1e-5)
        x = Xs[:, 0]
        rss = (yc @ yc) - 2.0 * grid * (x @ yc) + grid**2 * (x @ x)
        obj = rss / (2 * 50) + lam * np.abs(grid)
        assert abs(res.beta[0] - grid[np.argmin(obj)]) <= 1e-4

    def test_large_lambda_zeroes_everything(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=60)
        Xs, _ = standardize_matrix(X)
        yc = y - y.mean()
        lam = lambda_max(Xs, yc, alpha=1.0) * 1.001
        fit = fit_elastic_net(X, y, PenaltySpec(alpha=1.0, lam=lam))
        np.testing.assert_array_equal(fit.coefficients, 0.0)

    def test_objective_nonincreasing_over_sweeps(self):
        rng = np.random.default_rng(12)
        for alpha in (0.0, 0.5, 1.0):
            Xs, yc = standardized_problem(rng, 50, 6)
            G, c = (Xs.T @ Xs)[None], (Xs.T @ yc)[None]
            beta = np.zeros((1, 6))
            objectives = [enet_objective(Xs, yc, beta[0], alpha, 0.01)]
            for _ in range(CD_MAX_ITER):  # one sweep per kernel call, warm-started in place
                _, converged = elastic_net._cd_kernel(G, c, [50], alpha, 0.01, beta, CD_TOL, 1)
                objectives.append(enet_objective(Xs, yc, beta[0], alpha, 0.01))
                if converged[0]:
                    break
            assert (np.diff(objectives) <= 1e-12).all()

    def test_kkt_certification(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(20, 80))
            p = int(rng.integers(2, 7))
            Xs, yc = standardized_problem(rng, n, p)
            alpha = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.001, 0.2))
            res = coordinate_descent(Xs, yc, alpha=alpha, lam=lam, tol=1e-7)
            assert res.converged
            assert kkt_violation(Xs, yc, res.beta, alpha, lam) <= 1e-6

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_grid_oracle_small_p(self, alpha):
        """CD solution matches dense grid search on the objective, p <= 3."""
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(15, 40))
            p = int(rng.integers(1, 4))
            Xs, yc = standardized_problem(rng, n, p)
            lam = float(rng.uniform(0.005, 0.3))
            res = coordinate_descent(Xs, yc, alpha=alpha, lam=lam)
            _, grid_J = grid_minimize_objective(Xs, yc, lam, alpha=alpha)
            cd_J = enet_objective(Xs, yc, res.beta, alpha, lam)
            assert abs(cd_J - grid_J) <= 1e-3

    def test_nonconvergence_flagged(self, monkeypatch, caplog):
        rng = np.random.default_rng(15)
        Xs, yc = standardized_problem(rng, 40, 5)
        monkeypatch.setattr(elastic_net, "CD_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="claimtree.elastic_net"):
            fit = fit_elastic_net(
                rng.normal(size=(40, 5)), yc + 1.0, PenaltySpec(alpha=0.3, lam=1e-9)
            )
        assert not fit.converged
        assert solver_warnings(caplog) == ["coordinate descent did not converge in 1 sweeps"]

    def test_destandardized_predictions_match_standardized_path(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(70, 4)) * np.array([1.0, 10.0, 0.1, 100.0]) + 5.0
        y = X @ np.array([0.5, -0.03, 2.0, 0.001]) + rng.normal(size=70)
        fit = fit_elastic_net(X, y, PenaltySpec(alpha=0.7, lam=0.01))
        direct = fit.predict(X)
        Xs = fit.standardization.apply(X)
        via_std = y.mean() + Xs @ (fit.coefficients * fit.standardization.scale)
        np.testing.assert_allclose(direct, via_std, atol=1e-8)


def residual_update_cd(X, y, alpha, lam, beta, tol):
    """Cyclic coordinate descent that keeps the residual y - X b, from beta,
    until a sweep moves no coefficient by ``tol`` or moves none at all."""
    n, p = X.shape
    beta = beta.copy()
    resid = y - X @ beta
    shrink = 2.0 * n * lam * alpha
    denom = 1.0 + n * lam * (1.0 - alpha)
    for _ in range(CD_MAX_ITER):
        delta = 0.0
        for j in range(p):
            old = beta[j]
            new = soft_threshold(float(X[:, j] @ resid) + old, shrink) / denom
            if new != old:
                resid += X[:, j] * (old - new)
                beta[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol or delta == 0.0:
            break
    return beta


def extrapolated_start(last, before):
    """Coefficient by coefficient: one nonzero at the last penalty starts at
    2 last - before when that keeps its sign, every other one at 0."""
    start = np.zeros_like(last)
    for j, (b1, b0) in enumerate(zip(last.tolist(), before.tolist())):
        guess = 2.0 * b1 - b0
        if (b1 > 0.0 and guess > 0.0) or (b1 < 0.0 and guess < 0.0):
            start[j] = guess
    return start


def reference_lambda_path_cv(X, y, alpha, k, seed, tol=None, predictor=True):
    """lambda.min and the CV curve from a plain loop: each fold on its own,
    warm-started down the path with residual-update coordinate descent.
    From the third penalty on, the warm start is ``extrapolated_start`` of
    the last two solutions, or with ``predictor=False`` the last solution.
    Each fold stops at sqrt(PATH_THRESH * ||yc||^2) of its centered training
    response yc (glmnet's relative rule), or at ``tol`` when one is given."""
    keep = nonconstant_columns(X)
    Xs, _ = standardize_matrix(X[:, keep])
    lam_top = lambda_max(Xs, y - y.mean(), alpha)
    grid = np.geomspace(lam_top, lam_top * LAMBDA_RATIO, N_LAMBDAS)
    perm = np.random.default_rng(seed).permutation(y.shape[0])
    folds = np.array_split(perm, k)
    errors = np.zeros((k, grid.size))
    for fi, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(perm, test_idx, assume_unique=True)
        Xtr, ytr = X[train_idx], y[train_idx]
        sub = nonconstant_columns(Xtr)
        Xtr_s, st = standardize_matrix(Xtr[:, sub])
        Xte_s = st.apply(X[test_idx][:, sub])
        yc = ytr - ytr.mean()
        fold_tol = np.sqrt(PATH_THRESH * (yc @ yc)) if tol is None else tol
        beta = before = np.zeros(Xtr_s.shape[1])
        for li, lam in enumerate(grid):
            start = extrapolated_start(beta, before) if predictor and li >= 2 else beta
            before, beta = beta, residual_update_cd(Xtr_s, yc, alpha, lam, start, fold_tol)
            errors[fi, li] = ((y[test_idx] - (ytr.mean() + Xte_s @ beta)) ** 2).mean()
    cv_mean = errors.mean(axis=0)
    return float(grid[np.argmin(cv_mean)]), cv_mean


def assert_path_matches_reference(X, y, alpha, k, seed):
    """lambda_path_cv picks the reference's lambda.min, with its CV curve
    within rtol 1e-10 (the two solvers sum in different orders)."""
    path = lambda_path_cv(X, y, alpha, k=k, seed=seed)
    lam_min, cv_mean = reference_lambda_path_cv(X, y, alpha, k, seed=seed)
    assert path.lambda_min == lam_min
    np.testing.assert_allclose(path.cv_mean, cv_mean, rtol=1e-10)
    return path


class TestLambdaPath:
    def test_pure_noise_prefers_heavy_shrinkage(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(150, 6))
        y = rng.normal(size=150)  # no signal at all
        path = lambda_path_cv(X, y, alpha=1.0, k=5, seed=0)
        assert path.lambda_min >= path.lambdas.max() * 0.05

    def test_exact_signal_prefers_no_shrinkage(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(120, 4))
        y = X @ np.array([2.0, -1.0, 0.5, 3.0])  # noiseless
        path = lambda_path_cv(X, y, alpha=1.0, k=5, seed=0)
        assert path.lambda_min <= path.lambdas.max() * 1e-3

    def test_constant_y_returns_zero_fit(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 3))
        y = np.full(30, 7.0)
        path = lambda_path_cv(X, y, alpha=1.0, k=3, seed=0)
        fit = fit_elastic_net(X, y, PenaltySpec(alpha=1.0, lam=max(path.lambda_min, 0.0)))
        np.testing.assert_array_equal(fit.coefficients, 0.0)
        assert fit.intercept == pytest.approx(7.0)

    def test_grid_shape(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(80, 3))
        y = X @ np.array([1.0, 0.0, -1.0]) + rng.normal(size=80)
        path = lambda_path_cv(X, y, alpha=0.5, k=4, seed=1)
        assert path.lambdas.size == 100
        np.testing.assert_allclose(path.lambdas.min(), path.lambdas.max() * 1e-4)
        assert path.cv_mean.shape == path.lambdas.shape

    def test_lambda_min_rule_resolves_in_fit(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, 0.0, 0.0, -2.0]) + 0.1 * rng.normal(size=60)
        fit = fit_elastic_net(X, y, PenaltySpec(alpha=1.0, lam=LAMBDA_MIN), cv_folds=4, cv_seed=2)
        assert isinstance(fit.penalty.lam, float)
        assert fit.converged

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("folds", [3, 10, "n"])
    def test_batched_folds_match_per_fold_reference(self, alpha, folds):
        rng = np.random.default_rng([22, int(alpha * 2), [3, 10, "n"].index(folds)])
        # leave-one-out stays at n <= 40: the reference fits n folds in pure Python
        n = int(rng.integers(12, 41 if folds == "n" else 91))
        p = int(rng.integers(1, 13))
        k = n if folds == "n" else folds
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        assert_path_matches_reference(X, y, alpha, k, seed=3)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_batched_folds_match_reference_with_p_near_n(self, alpha, shape):
        """Up to 70 columns on a few more or a few fewer rows, the regime of a
        claim terminal (76 rows and 60 columns in the paper_enet benchmark),
        where the ten folds stop at widely different sweeps."""
        rng = np.random.default_rng([29, int(alpha * 2), shape == "wide"])
        p = int(rng.integers(40, 71))
        n = int(rng.integers(p // 2, p) if shape == "wide" else rng.integers(p + 1, p + 40))
        X = rng.normal(size=(n, p)) @ (np.eye(p) + 0.2 * rng.normal(size=(p, p)))
        y = X[:, :5] @ rng.normal(size=5) + rng.normal(size=n)
        assert_path_matches_reference(X, y, alpha, k=10, seed=5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_stacked_copies_match_single_problem_bit_for_bit(self, alpha):
        """The kernel's vectorized steps (k = 4) and its per-problem float
        steps (k = 1) produce the same iterates."""
        rng = np.random.default_rng(25)
        Xs, yc = standardized_problem(rng, 40, 7)
        G, c = Xs.T @ Xs, Xs.T @ yc
        single = np.zeros((1, 7))
        stacked = np.zeros((4, 7))
        for lam in (0.5, 0.05, 0.005):
            one = elastic_net._cd_kernel(G[None], c[None], [40], alpha, lam, single, CD_TOL, 500)
            four = elastic_net._cd_kernel(
                np.stack([G] * 4), np.stack([c] * 4), [40] * 4, alpha, lam, stacked, CD_TOL, 500
            )
            np.testing.assert_array_equal(stacked, np.repeat(single, 4, axis=0))
            np.testing.assert_array_equal(four[0], np.repeat(one[0], 4))
        assert one[1].all()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_distinct_stacked_problems_match_each_alone_bit_for_bit(self, alpha):
        """Ten distinct fold problems, half of them with more columns than
        rows and each with its own relative bound, stop at different sweeps,
        so finished problems drop out while more than three still take the
        vectorized steps. Warm-started down a path that starts next to
        lambda_max, each problem's coefficients, sweep count and convergence
        flag equal those of solving it alone (k = 1, the float steps)."""
        rng = np.random.default_rng([28, int(alpha * 2)])
        k, p = 10, 12
        G, c = np.zeros((k, p, p)), np.zeros((k, p))
        n, tol = np.zeros(k, dtype=int), np.zeros(k)
        for f in range(k):
            n[f] = int(rng.integers(6, 12) if f % 2 else rng.integers(20, 40))
            Xs, yc = standardized_problem(rng, n[f], p)
            G[f], c[f] = Xs.T @ Xs, Xs.T @ yc
            tol[f] = np.sqrt(PATH_THRESH * (yc @ yc))
        lam_top = (np.abs(c).max(axis=1) / (n * max(alpha, 1e-3))).max()
        stacked, alone = np.zeros((k, p)), np.zeros((k, p))
        dropped_while_vectorized = False
        for li, lam in enumerate(lam_top * np.array([0.95, 0.3, 0.05, 0.01, 1e-3])):
            sweeps, converged = elastic_net._cd_kernel(G, c, n, alpha, lam, stacked, tol, 2000)
            for f in range(k):
                one = elastic_net._cd_kernel(
                    G[f:f + 1], c[f:f + 1], n[f:f + 1], alpha, lam, alone[f:f + 1], tol[f], 2000
                )
                assert (sweeps[f], converged[f]) == (one[0][0], one[1][0])
            np.testing.assert_array_equal(stacked.view(np.int64), alone.view(np.int64))
            dropped_while_vectorized |= (sweeps > sweeps.min()).sum() > 3
            if li == 0 and alpha > 0:  # next to lambda_max most coefficients stay exactly 0
                assert (stacked == 0.0).mean() > 0.75
        assert dropped_while_vectorized

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_column_constant_in_a_training_fold_matches_reference(self, alpha):
        """A sparse indicator whose ones all sit in fold 0's test rows."""
        rng = np.random.default_rng(23)
        n, k, seed = 60, 10, 4
        X = rng.normal(size=(n, 4))
        fold0 = np.array_split(np.random.default_rng(seed).permutation(n), k)[0]
        X = np.column_stack([X, np.zeros(n)])
        X[fold0[:2], 4] = 1.0
        y = X @ np.array([1.0, -0.5, 0.0, 2.0, 3.0]) + rng.normal(size=n)
        assert not nonconstant_columns(np.delete(X, fold0, axis=0))[4]
        assert_path_matches_reference(X, y, alpha, k, seed)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_constant_training_response_in_one_fold(self, alpha, caplog):
        """Every nonzero y sits in fold 0's test rows, so fold 0 trains on a
        constant response: its relative bound is 0, and it must still stop
        after one sweep at 0 and pick what the absolute rule picks."""
        rng = np.random.default_rng(23)
        n, k, seed = 60, 10, 4
        X = rng.normal(size=(n, 4))
        fold0 = np.array_split(np.random.default_rng(seed).permutation(n), k)[0]
        y = np.zeros(n)
        y[fold0[:2]] = [3.0, 5.0]
        with nothing_warned(caplog):
            path = assert_path_matches_reference(X, y, alpha, k, seed)
        assert path.lambda_min == reference_lambda_path_cv(X, y, alpha, k, seed=seed, tol=CD_TOL)[0]

    def test_scaling_y_scales_the_grid_and_keeps_the_choice(self, caplog):
        """The LASSO is scale-equivariant: y -> c y takes b -> c b at lam ->
        c lam, so with a stopping bound relative to y the path picks the
        same grid index. (At alpha < 1 the ridge term breaks that symmetry.)"""
        rng = np.random.default_rng(27)
        X = rng.normal(size=(80, 6))
        y = X @ np.array([1.0, 0.0, -0.5, 0.0, 0.2, 0.0]) + 2.0 * rng.normal(size=80)
        with nothing_warned(caplog):
            paths = {c: lambda_path_cv(X, c * y, 1.0, k=5, seed=1) for c in (1e-3, 1.0, 1e4)}
        base = paths[1.0]
        index = int(np.flatnonzero(base.lambdas == base.lambda_min)[0])
        assert 0 < index < N_LAMBDAS - 1
        for c, path in paths.items():
            np.testing.assert_allclose(path.lambdas, c * base.lambdas, rtol=1e-12)
            assert path.lambda_min == path.lambdas[index]

    def test_more_columns_than_rows_on_claim_scale_converges(self, caplog):
        """p > n with a response of sd about 4000, where an absolute bound
        on coefficient change stalls at the sweep cap."""
        rng = np.random.default_rng(26)
        X = rng.normal(size=(45, 60))
        y = np.abs(X[:, :3] @ np.array([1500.0, -900.0, 600.0]) + 6500.0 * rng.normal(size=45))
        assert 3000.0 < y.std() < 5000.0
        with nothing_warned(caplog):
            path = lambda_path_cv(X, y, alpha=1.0, k=10, seed=0)
        assert path.lambda_min in path.lambdas

    def test_nonconvergence_warns_with_fold_and_lambda(self, monkeypatch, caplog):
        monkeypatch.setattr(elastic_net, "CD_MAX_ITER", 1)
        rng = np.random.default_rng(24)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, 0.0, 0.0, -2.0]) + 0.1 * rng.normal(size=60)
        with caplog.at_level(logging.WARNING, logger="claimtree.elastic_net"):
            lambda_path_cv(X, y, alpha=0.5, k=4, seed=0)
        [message] = solver_warnings(caplog)
        assert re.fullmatch(
            r"coordinate descent did not converge in 1 sweeps for \d+ of 400 CV fits "
            r"\(first: fold \d+, lambda index \d+\)", message
        )


# The README quickstart model; on 1,000 seed-7 rows it has one linear
# terminal, 76 rows by 60 columns (the paper_enet benchmark's terminal).
QUICKSTART = hybrid.HybridHyperparams(
    cp=1e-4, maxdepth=8, zero_threshold=0.25,
    severity_learner="elastic_net", glm_which=0.5, glm_lambda=LAMBDA_MIN,
)


def plain_warm_start(last, before):
    """Every penalty starts from the last solution, with no predictor."""
    return last.copy()


def fit_quickstart(monkeypatch):
    """Fit the quickstart model on 1,000 seed-7 rows. Returns the penalty
    of each linear terminal and the arguments of each lambda.min path."""
    seen = []
    path_cv = elastic_net.lambda_path_cv

    def recording(X, y, alpha, k=10, seed=0):
        seen.append((X, y, alpha, k, seed))
        return path_cv(X, y, alpha, k=k, seed=seed)

    monkeypatch.setattr(elastic_net, "lambda_path_cv", recording)
    model = hybrid.fit(simulate(SimConfig(n=1000, seed=7)).dataset, QUICKSTART, seed=0)
    monkeypatch.setattr(elastic_net, "lambda_path_cv", path_cv)
    lams = [nm.fit.penalty.lam for nm in model.node_models.values() if nm.kind == "linear"]
    return lams, seen


def count_sweeps(monkeypatch):
    """Wrap the kernel so that every sweep of every problem adds to a total."""
    kernel = elastic_net._cd_kernel
    total = [0]

    def counting(*args):
        sweeps, converged = kernel(*args)
        total[0] += int(sweeps.sum())
        return sweeps, converged

    monkeypatch.setattr(elastic_net, "_cd_kernel", counting)
    return total


class TestPathPredictor:
    @pytest.mark.parametrize("predictor", [True, False], ids=["secant", "plain"])
    def test_quickstart_terminal_picks_the_reference_lambda(self, monkeypatch, predictor):
        if not predictor:
            monkeypatch.setattr(elastic_net, "_secant_start", plain_warm_start)
        lams, seen = fit_quickstart(monkeypatch)
        [(X, y, alpha, k, seed)] = seen
        assert X.shape == (76, 60) and alpha == 0.5
        lam_min, cv_mean = reference_lambda_path_cv(X, y, alpha, k, seed, predictor=predictor)
        assert lams == [lam_min]
        np.testing.assert_allclose(
            lambda_path_cv(X, y, alpha, k=k, seed=seed).cv_mean, cv_mean, rtol=1e-10
        )

    def test_predictor_runs_fewer_sweeps_than_a_plain_warm_start(self, monkeypatch):
        """About a third fewer on this terminal (1002 against 1517 sweeps)."""
        [lam], [(X, y, alpha, k, seed)] = fit_quickstart(monkeypatch)
        total = count_sweeps(monkeypatch)
        assert lambda_path_cv(X, y, alpha, k=k, seed=seed).lambda_min == lam
        secant = total[0]
        monkeypatch.setattr(elastic_net, "_secant_start", plain_warm_start)
        total[0] = 0
        assert lambda_path_cv(X, y, alpha, k=k, seed=seed).lambda_min == lam
        assert 0 < secant < 0.8 * total[0]

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_secant_start_matches_the_coefficientwise_rule(self, alpha):
        """On every fold's path of a wide problem: nonzero coefficients that
        keep their sign along the secant start on it, all others at 0."""
        rng = np.random.default_rng([30, int(alpha * 2)])
        Xs, yc = standardized_problem(rng, 30, 40)
        G, c = Xs.T @ Xs, Xs.T @ yc
        beta, before = np.zeros((1, 40)), np.zeros((1, 40))
        crossings = 0
        for lam in lambda_max(Xs, yc, alpha) * np.geomspace(1.0, 1e-3, 30):
            last = beta.copy()
            start = elastic_net._secant_start(last, before)
            np.testing.assert_array_equal(start[0], extrapolated_start(last[0], before[0]))
            crossings += int(((2 * last - before) * last < 0).sum())
            beta = start.copy()
            elastic_net._cd_kernel(G[None], c[None], [30], alpha, lam, beta, CD_TOL, CD_MAX_ITER)
            before = last
        assert crossings > 0 or alpha == 0.0  # no ridge coefficient crosses zero here

    def test_one_debug_line_per_path(self, monkeypatch, caplog):
        """The chosen grid index, its lambda and the sweeps of every fold;
        at the WARNING level the path logs nothing."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, 0.0, 0.0, -2.0]) + rng.normal(size=60)
        total = count_sweeps(monkeypatch)
        with nothing_warned(caplog):
            lambda_path_cv(X, y, alpha=0.5, k=4, seed=0)
        assert caplog.records == []
        total[0] = 0
        with caplog.at_level(logging.DEBUG, logger="claimtree.elastic_net"):
            path = lambda_path_cv(X, y, alpha=0.5, k=4, seed=0)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "claimtree.elastic_net"
        index = int(np.flatnonzero(path.lambdas == path.lambda_min)[0])
        assert record.getMessage() == (
            f"lambda path: grid index {index} of {N_LAMBDAS}, lambda {path.lambda_min:.6g}, "
            f"{total[0]} sweeps over 4 folds"
        )


class TestPenaltySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(alpha=1.5, lam=0.1)
        with pytest.raises(ValueError):
            PenaltySpec(alpha=0.5, lam=-0.1)
        with pytest.raises(ValueError):
            PenaltySpec(alpha=0.5, lam="lambda.max")
        assert PenaltySpec(alpha=1.0, lam=LAMBDA_MIN).lam == LAMBDA_MIN
