"""Validation metrics, k-fold cross-validation, grid search and the
rescaled multi-model comparison table.

The seven validation measures are the ordered Gini index, R^2, the
concordance correlation coefficient, RMSE, MAE, and the mean absolute /
signed percentage errors (the percentage errors are computed over rows
with nonzero actuals).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DataError, Dataset
from .hybrid import tree_reuse

log = logging.getLogger(__name__)

MEASURES = ("gini", "r2", "ccc", "rmse", "mae", "mape", "mpe")
HIGHER_IS_BETTER = {"gini": True, "r2": True, "ccc": True, "rmse": False, "mae": False,
                    "mape": False, "mpe": False}  # mpe is compared by |value|


class UndefinedMetricError(ValueError):
    """Metric has no defined value for these inputs (e.g. all-zero actuals)."""


def _check_lengths(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ValueError("y and yhat must be 1-D arrays of equal length")
    if y.size < 2:
        raise ValueError("need at least 2 observations")
    return y, yhat


def gini_index(y, yhat) -> float:
    """Ordered Gini index: actuals ranked by ascending prediction.

    Ties in the predictions keep original order (and constant predictions
    log a warning since the ordering is then arbitrary).
    """
    y, yhat = _check_lengths(y, yhat)
    total = y.sum()
    if total <= 0:
        raise UndefinedMetricError("gini index undefined: actuals sum to 0")
    if np.ptp(yhat) == 0.0:
        log.warning("gini index: constant predictions, ordering falls back to input order")
    order = np.argsort(yhat, kind="stable")
    ranked = y[order]
    n = y.size
    i = np.arange(1, n + 1)
    return float(1.0 - (2.0 / (n - 1)) * (n - (i * ranked).sum() / total))


def r_squared(y, yhat) -> float:
    y, yhat = _check_lengths(y, yhat)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedMetricError("r_squared undefined: constant actuals")
    return 1.0 - float(((yhat - y) ** 2).sum()) / ss_tot


def ccc(y, yhat) -> float:
    """Concordance correlation, via 2 cov / (var + var + mean gap^2).

    Degenerate constant predictions give 0 (zero covariance), matching the
    convention for a no-information predictor.
    """
    y, yhat = _check_lengths(y, yhat)
    cov = float(((yhat - yhat.mean()) * (y - y.mean())).mean())
    denom = float(yhat.var() + y.var() + (yhat.mean() - y.mean()) ** 2)
    if denom == 0.0:
        return 0.0
    return 2.0 * cov / denom


def rmse(y, yhat) -> float:
    y, yhat = _check_lengths(y, yhat)
    return float(np.sqrt(((yhat - y) ** 2).mean()))


def mae(y, yhat) -> float:
    y, yhat = _check_lengths(y, yhat)
    return float(np.abs(yhat - y).mean())


def mape(y, yhat) -> float:
    """Mean absolute percentage error over rows with nonzero actuals."""
    y, yhat = _check_lengths(y, yhat)
    mask = y != 0
    if not mask.any():
        raise UndefinedMetricError("mape undefined: no nonzero actuals")
    return float(np.abs((yhat[mask] - y[mask]) / y[mask]).mean())


def mpe(y, yhat) -> float:
    """Mean signed percentage error over rows with nonzero actuals."""
    y, yhat = _check_lengths(y, yhat)
    mask = y != 0
    if not mask.any():
        raise UndefinedMetricError("mpe undefined: no nonzero actuals")
    return float(((yhat[mask] - y[mask]) / y[mask]).mean())


@dataclass
class MetricReport:
    gini: float
    r2: float
    ccc: float
    rmse: float
    mae: float
    mape: float
    mpe: float
    n_used: dict[str, int]

    def as_dict(self) -> dict:
        out = {m: getattr(self, m) for m in MEASURES}
        out["n_used"] = dict(self.n_used)
        return out

    def __getitem__(self, measure: str) -> float:
        return getattr(self, measure)


def compute_metrics(y, yhat) -> MetricReport:
    """All seven validation measures in one report."""
    y, yhat = _check_lengths(y, yhat)
    n = int(y.size)
    n_nonzero = int((y != 0).sum())
    return MetricReport(
        gini=gini_index(y, yhat),
        r2=r_squared(y, yhat),
        ccc=ccc(y, yhat),
        rmse=rmse(y, yhat),
        mae=mae(y, yhat),
        mape=mape(y, yhat),
        mpe=mpe(y, yhat),
        n_used={"gini": n, "r2": n, "ccc": n, "rmse": n, "mae": n,
                "mape": n_nonzero, "mpe": n_nonzero},
    )


# A learner maps a training Dataset to a prediction function over Datasets.
Learner = Callable[[Dataset], Callable[[Dataset], np.ndarray]]


def constant_mean_learner(ds_train: Dataset) -> Callable[[Dataset], np.ndarray]:
    """Baseline: predict the training mean response everywhere."""
    mu = float(ds_train.response.mean())
    return lambda ds: np.full(ds.n, mu)


@dataclass
class CVCell:
    params: dict
    fold_rmse: list[float]
    failures: list[str]

    @property
    def valid(self) -> bool:
        return not self.failures

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse)) if self.fold_rmse else float("nan")

    @property
    def sd_rmse(self) -> float:
        if len(self.fold_rmse) < 2:
            return 0.0
        return float(np.std(self.fold_rmse, ddof=1))


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle split into k contiguous blocks."""
    if not 2 <= k <= n:
        raise ValueError("need n >= k >= 2")
    rng = np.random.default_rng(seed)
    return [np.sort(block) for block in np.array_split(rng.permutation(n), k)]


def kfold_cv(ds: Dataset, learner: Learner, k: int, seed: int) -> CVCell:
    """Fit on k-1 folds, score RMSE on the held-out fold, k times.

    A data or numerical error from the learner marks the fold (and hence
    the cell) invalid rather than aborting the whole search; any other
    exception is a bug and propagates. This is the one-cell case of
    :func:`grid_search`'s fold-major loop: each fold's train and test
    datasets are built once, and fits within a fold may share one grown
    tree (:func:`claimtree.hybrid.tree_reuse`).
    """
    return _cross_validate(ds, [({}, learner)], k, seed)[0]


def _depth_first(params: dict):
    # Deepest cell first (maxdepth descending, then minsplit ascending), so
    # the first fit of a fold grows a tree that covers every later cell.
    return (-params.get("maxdepth", 0), params.get("minsplit", 0))


def _cross_validate(ds: Dataset, cells: list[tuple[dict, Learner]], k: int, seed: int) -> list[CVCell]:
    """One CVCell per (params, learner) pair, all on the same k folds.

    Folds are the outer loop. Each fold's train and test datasets are built
    once, every cell is fitted on that same pair of objects, deepest cell
    first, and both are dropped before the next fold, so one fold's copies
    are live at a time. Within a fold the cells share one grown tree, the
    training set's encoding and the terminals' severity models
    (:func:`claimtree.hybrid.tree_reuse`). Results land in the
    cells' own order, each cell's fold results and failures in fold order.
    """
    folds = fold_indices(ds.n, k, seed)
    all_idx = np.arange(ds.n)
    out = [CVCell(params=params, fold_rmse=[], failures=[]) for params, _ in cells]
    order = sorted(range(len(cells)), key=lambda i: _depth_first(cells[i][0]))
    for fi, test_idx in enumerate(folds):
        train = ds.subset(np.setdiff1d(all_idx, test_idx, assume_unique=False))
        test = ds.subset(test_idx)
        with tree_reuse():
            for i in order:
                try:
                    pred = np.asarray(cells[i][1](train)(test), dtype=float)
                    out[i].fold_rmse.append(rmse(ds.response[test_idx], pred))
                except (DataError, ValueError, ArithmeticError) as exc:
                    # ValueError covers UndefinedMetricError and np.linalg.LinAlgError
                    # (RankDeficiencyError); DataError is not a ValueError.
                    out[i].failures.append(f"fold {fi}: {exc}")
        del train, test
    return out


@dataclass
class CVResult:
    cells: list[CVCell]
    winner: CVCell


def _tie_key(cell: CVCell):
    # Prefer simpler models on ties: larger cp, then smaller maxdepth.
    cp = cell.params.get("cp", 0.0)
    maxdepth = cell.params.get("maxdepth", 0)
    return (cell.mean_rmse, -cp, maxdepth)


def grid_search(
    ds: Dataset,
    grid: dict[str, list],
    k: int,
    seed: int,
    learner_factory: Callable[[dict], Learner],
) -> CVResult:
    """Exhaustive hyperparameter search over the Cartesian product of
    ``grid`` with shared k-fold splits.

    The winner minimizes mean fold RMSE; exact ties prefer the larger cp,
    then the smaller maxdepth. Every learner is built before any fold is
    fitted, so a bad cell fails at once. Raises if the grid is empty or
    every cell failed.

    The search runs fold-major: each fold's datasets are built once and
    every cell is fitted on them, deepest cell first (maxdepth descending,
    then minsplit ascending). A hybrid learner grows the fold's tree once,
    in the first cell, and the later cells truncate it, which gives the
    tree they would grow; the fold's training set is encoded once and a
    terminal that cells share is fitted once for each set of severity
    settings (:func:`claimtree.hybrid.tree_reuse`). Cells, their
    fold results and failures keep grid order.
    """
    if not grid:
        raise ValueError("empty grid")
    names = list(grid)
    combos = [dict(zip(names, c)) for c in itertools.product(*(grid[name] for name in names))]
    learners = [learner_factory(params) for params in combos]
    cells = _cross_validate(ds, list(zip(combos, learners)), k, seed)
    valid = [c for c in cells if c.valid]
    if not valid:
        raise ValueError("every grid cell failed cross-validation")
    winner = min(valid, key=_tie_key)
    return CVResult(cells=cells, winner=winner)


def cv_table_csv(result: CVResult) -> str:
    names = sorted({k for c in result.cells for k in c.params})
    lines = [",".join(names + ["mean_rmse", "sd_rmse", "valid"])]
    for cell in result.cells:
        row = [repr(cell.params.get(n, "")) for n in names]
        row += [repr(cell.mean_rmse), repr(cell.sd_rmse), str(cell.valid).lower()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def rescale(values: dict[str, float], higher_better: bool, by_abs: bool = False):
    """Min-max rescale to [0, 100], oriented so the best model scores 100.

    When best == worst every model scores 100.
    """
    scored = {m: abs(v) if by_abs else v for m, v in values.items()}
    lo, hi = min(scored.values()), max(scored.values())
    if hi == lo:
        return {m: 100.0 for m in scored}
    out = {}
    for m, v in scored.items():
        frac = (v - lo) / (hi - lo)
        out[m] = 100.0 * (frac if higher_better else 1.0 - frac)
    return out


@dataclass
class ComparisonTable:
    model_names: list[str]
    raw: dict[str, dict[str, dict[str, float]]]       # split -> measure -> model -> value
    rescaled: dict[str, dict[str, dict[str, float]]]  # split -> measure -> model -> [0, 100]

    def to_csv(self) -> str:
        lines = ["split,model," + ",".join(MEASURES) + "," + ",".join(f"{m}_rescaled" for m in MEASURES)]
        for split in self.raw:
            for name in self.model_names:
                cells = [repr(self.raw[split][m][name]) for m in MEASURES]
                cells += [repr(self.rescaled[split][m][name]) for m in MEASURES]
                lines.append(f"{split},{name}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def comparison_table(
    models: list[tuple[str, Callable[[Dataset], np.ndarray]]],
    ds_train: Dataset,
    ds_test: Dataset,
) -> ComparisonTable:
    """Seven-measure comparison of fitted predictors on train and test.

    Each measure is min-max rescaled across models (orientation-aware,
    MPE by absolute value) so the best model shows 100 and the worst 0.
    """
    if len(models) < 2:
        raise ValueError("need at least 2 models to compare")
    names = [name for name, _ in models]
    raw: dict[str, dict[str, dict[str, float]]] = {}
    rescaled: dict[str, dict[str, dict[str, float]]] = {}
    for split, ds in (("train", ds_train), ("test", ds_test)):
        reports = {name: compute_metrics(ds.response, fn(ds)) for name, fn in models}
        raw[split] = {m: {name: reports[name][m] for name in names} for m in MEASURES}
        rescaled[split] = {
            m: rescale(raw[split][m], HIGHER_IS_BETTER[m], by_abs=(m == "mpe")) for m in MEASURES
        }
    return ComparisonTable(model_names=names, raw=raw, rescaled=rescaled)


def _heat_color(value: float) -> str:
    """Red (0) through white (50) to blue (100)."""
    t = min(max(value / 100.0, 0.0), 1.0)
    red = (215, 48, 39)
    white = (245, 245, 245)
    blue = (69, 117, 180)
    if t < 0.5:
        a, b, u = red, white, t / 0.5
    else:
        a, b, u = white, blue, (t - 0.5) / 0.5
    rgb = tuple(round(a[i] + (b[i] - a[i]) * u) for i in range(3))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def comparison_svg(table: ComparisonTable) -> str:
    """Self-contained SVG heat table, one block per split."""
    cell_w, cell_h, label_w, pad = 84, 30, 150, 10
    width = label_w + cell_w * len(MEASURES) + 2 * pad
    block_h = cell_h * (len(table.model_names) + 1) + 30
    height = 2 * block_h + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="Helvetica" font-size="12">'
    ]
    y0 = pad
    for split in table.rescaled:
        parts.append(f'<text x="{pad}" y="{y0 + 14}" font-weight="bold">{split}</text>')
        for ci, m in enumerate(MEASURES):
            x = label_w + ci * cell_w
            parts.append(
                f'<text x="{x + cell_w / 2}" y="{y0 + 32}" text-anchor="middle">{m}</text>'
            )
        for ri, name in enumerate(table.model_names):
            y = y0 + 40 + ri * cell_h
            parts.append(f'<text x="{pad}" y="{y + cell_h / 2 + 4}">{name}</text>')
            for ci, m in enumerate(MEASURES):
                x = label_w + ci * cell_w
                value = table.rescaled[split][m][name]
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                    f'fill="{_heat_color(value)}" stroke="#999"/>'
                )
                parts.append(
                    f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 + 4}" '
                    f'text-anchor="middle">{value:.0f}</text>'
                )
        y0 += block_h
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
