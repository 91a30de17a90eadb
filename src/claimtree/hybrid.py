"""Hybrid tree model: occurrence tree with per-terminal severity models.

Fitting grows and prunes the classification tree, routes the training rows
and attaches one severity model to every terminal: Zero when the node's
zero-claim share exceeds the threshold (or the node majority is no-claim),
the node mean when the node is too small for a regression, and otherwise
an OLS or elastic net fit on the node's rows. Prediction routes a row to
its terminal and evaluates that node's model, clipping negatives to 0.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .cart import (
    Tree, TreeHyperparams, covers, cp_to_alpha, grow, prune, tree_from_dict, tree_to_dict, truncate,
)
from .data import (
    Column, DataError, Dataset, Standardization, column_from_dict, feature_matrix, json_text,
    nonconstant_columns, require_int, require_real, validate_schema,
)
from .elastic_net import (
    LAMBDA_MIN,
    LinearFit,
    PenaltySpec,
    RankDeficiencyError,
    fit_elastic_net,
    fit_ols,
)

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


class ModelLoadError(Exception):
    """Raised when a stored model cannot be read back."""


@dataclass(frozen=True)
class HybridHyperparams:
    """Settings for the two-stage fit.

    ``glm_lambda`` is a float or "lambda.min"; ``glm_which`` is the elastic
    net mixing weight. Nodes whose zero-claim share exceeds
    ``zero_threshold`` predict 0 outright; nodes smaller than
    ``min_node_for_linear`` fall back to their mean.
    """

    cp: float = 0.0001
    maxdepth: int = 8
    zero_threshold: float = 0.25
    glm_which: float = 1.0
    glm_lambda: float | str = LAMBDA_MIN
    min_node_for_linear: int = 40
    severity_learner: str = "elastic_net"
    minsplit: int = 8

    def __post_init__(self):
        self.tree_hyperparams()  # validates cp, maxdepth and minsplit
        require_int(min_node_for_linear=self.min_node_for_linear)
        require_real(zero_threshold=self.zero_threshold, glm_which=self.glm_which)
        if not isinstance(self.glm_lambda, str):
            require_real(glm_lambda=self.glm_lambda)
        if not 0.0 <= self.zero_threshold <= 1.0:
            raise ValueError("zero_threshold must lie in [0, 1]")
        if self.min_node_for_linear < 2:
            raise ValueError("min_node_for_linear must be >= 2")
        if self.severity_learner not in ("ols", "elastic_net"):
            raise ValueError("severity_learner must be 'ols' or 'elastic_net'")
        PenaltySpec(self.glm_which, self.glm_lambda)  # validates the pair

    def tree_hyperparams(self) -> TreeHyperparams:
        return TreeHyperparams(cp=self.cp, maxdepth=self.maxdepth, minsplit=self.minsplit)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class NodeModel:
    """Severity predictor at one terminal: zero, mean or linear."""

    kind: str  # "zero" | "mean" | "linear", for reports and serialization
    value: float = 0.0  # the prediction when there is no fit: 0.0 at a zero terminal
    fit: LinearFit | None = None
    feature_idx: np.ndarray | None = None  # columns of the encoded matrix used by fit

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.fit is None:
            return np.full(X.shape[0], self.value)
        return self.fit.predict(X[:, self.feature_idx])


@dataclass
class TerminalSummary:
    """One terminal as reported in ``model.json`` and ``fit_report.json``."""

    node_id: int
    n: int
    n_positive: int
    zero_fraction: float
    beta_f: int
    model_kind: str


@dataclass
class HybridModel:
    tree: Tree
    node_models: dict[int, NodeModel]
    hyperparams: HybridHyperparams
    schema: tuple[Column, ...]
    fit_metadata: dict = field(default_factory=dict)
    # Share of zero responses among each terminal's training rows; the one
    # per-terminal fact the tree does not hold.
    zero_fractions: dict[int, float] = field(default_factory=dict)

    @property
    def terminal_summaries(self) -> list[TerminalSummary]:
        """One row per terminal, in node-id order, from the tree and node models."""
        nodes = self.tree.nodes
        return [
            TerminalSummary(
                node_id=tid,
                n=nodes[tid].n_node,
                n_positive=nodes[tid].n_positive,
                zero_fraction=self.zero_fractions[tid],
                beta_f=nodes[tid].beta_f,
                model_kind=self.node_models[tid].kind,
            )
            for tid in self.tree.terminal_ids()
        ]


# The HybridHyperparams fields a non-zero terminal's severity model depends
# on: all but those that only shape the tree, and zero_threshold, which only
# decides whether a terminal is zero.
_SEVERITY_FIELDS = tuple(
    f.name for f in fields(HybridHyperparams)
    if f.name not in {g.name for g in fields(TreeHyperparams)} | {"zero_threshold"}
)


@dataclass
class _Shared:
    """What the fits in one :func:`tree_reuse` block share: the tree last
    grown there, the dataset it was grown on, that dataset's encoding and
    the severity models of the tree's non-zero terminals, keyed by terminal
    id, the severity settings and the seed. Empty until the block's first
    grow."""

    ds: Dataset | None = None
    tree: Tree | None = None
    features: tuple[np.ndarray, list[str]] | None = None
    node_models: dict[tuple[int, str, int], NodeModel] = field(default_factory=dict)


# The innermost tree_reuse block's record; None outside every block, so
# nothing is kept there.
_shared: ContextVar[_Shared | None] = ContextVar("claimtree_shared", default=None)


@contextmanager
def tree_reuse():
    """A block within which :func:`fit` shares one grown tree, and what it
    derives from that tree's rows, between fits on the same ``Dataset``.

    Datasets are immutable, so the same object means the same rows. Any
    pruned or truncated cut of the kept tree holds each of its terminals
    with exactly that node's rows, so a severity model fitted on a node's
    rows serves the block's later fits. A nested block keeps its own record
    and leaves the outer one as it was; the record is released when the
    block ends, also when its body raises.
    """
    token = _shared.set(_Shared())
    try:
        yield
    finally:
        _shared.reset(token)


def fit(ds: Dataset, hp: HybridHyperparams, seed: int = 0) -> HybridModel:
    """Two-stage fit: grow + prune the occurrence tree, then attach
    severity models to the terminals.

    Severity fits use every row routed to the terminal, zeros included.
    An OLS terminal whose design is rank deficient falls back to the node
    mean with a logged warning. ``seed`` feeds the per-node penalty
    cross-validation when glm_lambda is "lambda.min". Each terminal's row
    and zero counts are tallied over the routed rows at once, so a zero
    terminal is decided without gathering its rows.

    Inside a :func:`claimtree.hybrid.tree_reuse` block, a tree already
    grown on this same ``ds`` object with a maxdepth at least as large and
    a minsplit at least as small is truncated instead of grown again, which
    gives the same tree; a tree that is grown takes the place of the one
    the block kept. The block's record (``_Shared``) also holds the encoded
    matrix of ``ds`` and every non-zero terminal's severity model, keyed by
    terminal id, the settings outside the tree but ``zero_threshold``
    (which only decides zero terminals) and ``seed``: a terminal is the
    same node with the same rows in every tree cut from the kept one, so
    later fits reuse the model it was given.
    """
    if ds.n == 0:
        raise ValueError("cannot fit on an empty dataset")
    tree_hp = hp.tree_hyperparams()
    shared = _shared.get() or _Shared()  # outside every block, a record nothing keeps
    if shared.ds is ds and covers(shared.tree.hyperparams, tree_hp):
        full = truncate(shared.tree, tree_hp)
    else:
        full = grow(ds, tree_hp)
        shared.ds, shared.tree, shared.features, shared.node_models = ds, full, feature_matrix(ds), {}
    tree = prune(full, cp_to_alpha(full, hp.cp))

    X, names = shared.features
    y = ds.response
    slot = tree.terminal_slots(X)
    terminals = tree.terminal_ids()
    # Every terminal holds rows of ds, on which the tree was grown, and
    # zeros / count has the bits of (y_node == 0).mean().
    count = np.bincount(slot, minlength=len(terminals))
    shares = np.bincount(slot, weights=y == 0.0, minlength=len(terminals)) / count
    # repr tells 1 from 1.0, which a stored penalty would show
    severity = repr([getattr(hp, name) for name in _SEVERITY_FIELDS])

    node_models: dict[int, NodeModel] = {}
    zero_fractions: dict[int, float] = {}
    for j, tid in enumerate(terminals):
        zero_fractions[tid] = float(shares[j])
        # Precedence: the majority-no-claim gate, then the zero rule.
        if tree.nodes[tid].beta_f == 0 or zero_fractions[tid] > hp.zero_threshold:
            node_models[tid] = NodeModel(kind="zero")
            continue
        key = (tid, severity, seed)
        if key not in shared.node_models:
            shared.node_models[key] = _fit_node_model(X, y, np.flatnonzero(slot == j), names, hp, seed, tid)
        node_models[tid] = shared.node_models[key]
    return HybridModel(
        tree=tree,
        node_models=node_models,
        hyperparams=hp,
        schema=ds.columns,
        fit_metadata={"seed": seed, "software_version": __version__},
        zero_fractions=zero_fractions,
    )


def _fit_node_model(X, y, rows, names, hp, seed, tid) -> NodeModel:
    # A terminal that is not zero: the node mean when the node is too small
    # for a regression or constant in every column, otherwise a linear fit;
    # a rank-deficient OLS design falls back to the mean.
    y_node = y[rows]
    mean = NodeModel(kind="mean", value=float(y_node.mean()))
    if rows.size < hp.min_node_for_linear:
        return mean
    X_node = X[rows]
    active = np.flatnonzero(nonconstant_columns(X_node))
    if active.size == 0:
        return mean
    X_fit = X_node[:, active]
    active_names = [names[j] for j in active]
    if hp.severity_learner == "ols":
        try:
            lf = fit_ols(X_fit, y_node, feature_names=active_names)
        except RankDeficiencyError:
            log.warning("terminal %d: rank-deficient OLS design, falling back to node mean", tid)
            return mean
    else:
        lf = fit_elastic_net(
            X_fit,
            y_node,
            PenaltySpec(hp.glm_which, hp.glm_lambda),
            feature_names=active_names,
            cv_folds=min(10, y_node.size),
            cv_seed=seed + tid,
        )
    return NodeModel(kind="linear", fit=lf, feature_idx=active)


def predict_batch(model: HybridModel, ds: Dataset):
    """Vectorized prediction; returns (terminal ids, raw, clipped) arrays.

    Raw keeps the unclipped affine value of linear terminals for
    diagnostics; the claim prediction is the raw value floored at 0.
    """
    X, names = feature_matrix(ds)
    if names != model.tree.feature_names:
        raise ValueError(
            "dataset features do not match the model "
            f"(expected {model.tree.feature_names}, got {names})"
        )
    slot = model.tree.terminal_slots(X)
    node_models = [model.node_models[tid] for tid in model.tree.terminal_ids()]
    # Terminals without a fit fill by one gather of their values; only
    # linear ones need their rows.
    raw = np.array([nm.value for nm in node_models], dtype=float).take(slot)
    for j, nm in enumerate(node_models):
        if nm.fit is not None:
            rows = np.flatnonzero(slot == j)
            raw[rows] = nm.predict(X[rows])
    return model.tree.routing.node_id.take(slot), raw, np.maximum(raw, 0.0)


def predict(model: HybridModel, x: np.ndarray) -> float:
    """Predict one encoded feature row; negative values clip to 0."""
    x = np.asarray(x, dtype=float)
    nm = model.node_models[model.tree.classify(x)]
    raw = nm.value if nm.fit is None else nm.predict(x[None, :])[0]
    return max(float(raw), 0.0)


def coefficient_report(model: HybridModel) -> dict[int, dict[str, float]]:
    """Terminal-by-feature coefficient table for the non-zero terminals.

    Mean terminals report only their intercept. Features with exactly zero
    coefficients (shrunk away or constant in the node) are omitted, which
    renders as blanks in the formatted table.
    """
    report: dict[int, dict[str, float]] = {}
    for tid in model.tree.terminal_ids():
        nm = model.node_models[tid]
        if nm.kind == "zero":
            continue
        lf = nm.fit
        entry = report[tid] = {"(Intercept)": nm.value if lf is None else lf.intercept}
        if lf is not None:
            entry.update((name, float(c)) for name, c in zip(lf.feature_names, lf.coefficients) if c != 0.0)
    return report


def format_coefficient_table(model: HybridModel) -> str:
    """CSV rendering of :func:`coefficient_report` (blank = not selected)."""
    report = coefficient_report(model)
    tids = sorted(report)
    rows = ["(Intercept)"] + model.tree.feature_names
    lines = ["term," + ",".join(f"node_{t}" for t in tids)]
    for feat in rows:
        if feat != "(Intercept)" and not any(feat in report[t] for t in tids):
            continue
        cells = [repr(report[t][feat]) if feat in report[t] else "" for t in tids]
        lines.append(",".join([feat] + cells))
    return "\n".join(lines) + "\n"


def _node_model_to_dict(nm: NodeModel) -> dict:
    if nm.kind == "zero":
        return {"kind": "zero"}
    if nm.kind == "mean":
        return {"kind": "mean", "value": nm.value}
    lf = nm.fit
    return {
        "kind": "linear",
        "intercept": lf.intercept,
        "coefficients": [float(c) for c in lf.coefficients],
        "feature_names": list(lf.feature_names),
        "feature_idx": [int(i) for i in nm.feature_idx],
        "standardization": lf.standardization.to_dict() if lf.standardization else None,
        "penalty": None
        if lf.penalty is None
        else {"alpha": lf.penalty.alpha, "lambda": lf.penalty.lam},
        "converged": lf.converged,
        "iterations": lf.iterations,
    }


def _node_model_from_dict(d: dict, encoded: list[str]) -> NodeModel:
    if d["kind"] == "zero":
        return NodeModel(kind="zero")
    if d["kind"] == "mean":
        require_real(value=d["value"])
        return NodeModel(kind="mean", value=d["value"])
    idx, coefficients = d["feature_idx"], d["coefficients"]
    if not (isinstance(idx, list) and isinstance(coefficients, list) and len(idx) == len(coefficients)):
        raise ValueError("feature_idx and coefficients must be lists of one length")
    require_real(intercept=d["intercept"], **{f"coefficient {i}": c for i, c in enumerate(coefficients)})
    for j in idx:
        require_int(feature_idx=j)
        if not 0 <= j < len(encoded):
            raise ValueError(f"feature_idx {j} is not one of the {len(encoded)} encoded features")
    names = [encoded[j] for j in idx]
    if d["feature_names"] != names:
        raise ValueError(f"feature_names {d['feature_names']!r} are not the features at feature_idx {names}")
    st = d.get("standardization")
    if st is not None:
        if st["names"] != names:
            raise ValueError(f"standardization names {st['names']!r} are not the feature names {names}")
        for key in ("center", "scale"):
            if not (isinstance(st[key], list) and len(st[key]) == len(names)):
                raise ValueError(f"standardization {key} must be a list of {len(names)} numbers")
            require_real(**{f"standardization {key} {i}": v for i, v in enumerate(st[key])})
        if min(st["scale"], default=1.0) <= 0:
            raise ValueError("standardization scale must be > 0")
    penalty = d.get("penalty")
    lf = LinearFit(
        intercept=d["intercept"],
        coefficients=np.asarray(coefficients, dtype=float),
        feature_names=names,
        standardization=None if st is None else Standardization.from_dict(st),
        penalty=PenaltySpec(penalty["alpha"], penalty["lambda"]) if penalty else None,
        converged=d["converged"],
        iterations=d["iterations"],
    )
    return NodeModel(kind="linear", fit=lf, feature_idx=np.asarray(idx, dtype=int))


def to_json(model: HybridModel) -> str:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": model.hyperparams.to_dict(),
        "schema": [
            {"name": c.name, "kind": c.kind, "categories": list(c.categories) if c.categories else None}
            for c in model.schema
        ],
        "encoded_features": list(model.tree.feature_names),
        "tree": tree_to_dict(model.tree),
        "node_models": {str(tid): _node_model_to_dict(nm) for tid, nm in model.node_models.items()},
        "fit_metadata": model.fit_metadata,
        "terminal_summaries": [asdict(s) for s in model.terminal_summaries],
    }
    return json_text(payload)


def save(model: HybridModel, path) -> None:
    """Write the model as JSON; loading reproduces predictions exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))


def load(path) -> HybridModel:
    """Read back a model written by :func:`save`.

    Raises :class:`ModelLoadError`, naming the file, on malformed JSON, an
    unsupported format version, or content that cannot route or score a
    row: node ids off the heap numbering, a split on a feature that does
    not exist or at a threshold that is not a finite number, a linear
    terminal's columns out of range or named otherwise than the tree names
    them, its standardization not one finite center and positive scale per
    coefficient under the same names, a zero fraction outside [0, 1], or
    stored feature names that are not the tree's.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ModelLoadError(f"cannot read model file {path}: {exc}") from exc
    try:
        version = payload["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise ModelLoadError(
                f"unsupported model format version {version} (supported: {MODEL_FORMAT_VERSION})"
            )
        hp = HybridHyperparams(**payload["hyperparams"])
        schema = validate_schema([column_from_dict(c) for c in payload["schema"]])
        tree = tree_from_dict(payload["tree"])
        if payload["encoded_features"] != tree.feature_names:
            raise ModelLoadError(
                f"malformed model file {path}: encoded_features {payload['encoded_features']} "
                f"are not the tree's feature names {tree.feature_names}"
            )
        if not isinstance(payload["node_models"], dict):
            raise ValueError("node_models must be an object keyed by node id")
        node_models = {
            int(tid): _node_model_from_dict(d, tree.feature_names)
            for tid, d in payload["node_models"].items()
        }
        zero_fractions = {s["node_id"]: s["zero_fraction"] for s in payload["terminal_summaries"]}
        for tid, z in zero_fractions.items():
            require_real(**{f"terminal {tid} zero_fraction": z})
            if not 0.0 <= z <= 1.0:
                raise ValueError(f"terminal {tid} zero_fraction {z} lies outside [0, 1]")
        terminals = set(tree.terminal_ids())
        for key, ids in (("node_models", set(node_models)), ("terminal_summaries", set(zero_fractions))):
            if ids != terminals:
                raise ModelLoadError(
                    f"malformed model file {path}: {key} must cover exactly the tree's terminals "
                    f"(missing {sorted(terminals - ids)}, extra {sorted(ids - terminals)})"
                )
        return HybridModel(
            tree=tree,
            node_models=node_models,
            hyperparams=hp,
            schema=schema,
            fit_metadata=payload.get("fit_metadata", {}),
            zero_fractions=zero_fractions,
        )
    except ModelLoadError:
        raise
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise ModelLoadError(f"malformed model file {path}: {exc}") from exc
