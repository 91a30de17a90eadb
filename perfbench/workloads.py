"""The benchmark's workloads: inputs built from the seed, one timed pass,
and the checks on what the pass produced.

Fits train on the baseline portfolio, ``SimConfig(seed=7)`` (the ROADMAP's
reference draw). ``tune_ols`` and ``score`` take its rows in an order drawn
from the workload seed, which changes the cross-validation folds but not
the tree. ``paper_enet`` keeps the stored order: its cost is one lambda.min
path whose sweep count moves by about 15% with the fold assignment, and on
fresh draws the cost of one such terminal ranged from 0.9 s to 9.7 s, which
no run of a few seconds averages out. The holdout and scoring portfolios
are fresh draws from seed+1 and seed+2, and the CLI chain simulates its
own portfolio from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("claimtree.cli")
data = importlib.import_module("claimtree.data")
evaluate = importlib.import_module("claimtree.evaluate")
hybrid = importlib.import_module("claimtree.hybrid")
simulate = importlib.import_module("claimtree.simulate")

BASELINE_SEED = 7

# The README quickstart model, and the learner the CLI trains with --severity-learner ols.
HP_ENET = hybrid.HybridHyperparams(
    cp=1e-4, maxdepth=8, zero_threshold=0.25,
    severity_learner="elastic_net", glm_which=0.5, glm_lambda="lambda.min",
)
HP_OLS = hybrid.HybridHyperparams(severity_learner="ols")
GRID = {"cp": [1e-4, 2e-4], "maxdepth": [8, 10]}
FOLDS = 5

# The same-row tolerance of batch against single-row prediction: the two
# paths sum in different orders and differ by up to 8.7e-11 relative.
SINGLE_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    enet_n: int          # paper_enet training and holdout rows
    tune_n: int          # tune_ols portfolio rows
    cli_n: int           # rows the CLI chain simulates
    score_fit_n: int     # rows of the score workload's training portfolio
    score_n: int         # rows scored per score pass
    batch_rows: int      # rows per predict_batch call in the score pass
    single_rows: int     # single-row predict calls per score pass


SIZES = {
    "full": Sizes(enet_n=1000, tune_n=1000, cli_n=10_000, score_fit_n=10_000, score_n=200_000,
                  batch_rows=10_000, single_rows=20_000),
    "smoke": Sizes(enet_n=1000, tune_n=300, cli_n=500, score_fit_n=1000, score_n=4000,
                   batch_rows=1000, single_rows=500),
}


@dataclass
class PassResult:
    """What one pass produced, reduced to what the checks compare."""

    digest: str
    rmse: float
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def portfolio(n: int, seed: int):
    return simulate.simulate(simulate.SimConfig(n=n, seed=seed)).dataset


def baseline_in_order(n: int, order_seed) -> "data.Dataset":
    rows = np.random.default_rng(order_seed).permutation(n)
    return portfolio(n, BASELINE_SEED).subset(rows)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def prediction_errors(batch: np.ndarray, single: np.ndarray) -> list[str]:
    """Reference-free checks on one model's batch and single-row predictions
    (``single`` covers the first rows of ``batch``)."""
    errors = []
    if not np.isfinite(batch).all() or (batch < 0).any():
        errors.append("batch predictions are not all finite and non-negative")
    paired = batch[: single.size]
    if not np.allclose(single, paired, rtol=SINGLE_RTOL, atol=SINGLE_RTOL):
        worst = float(np.max(np.abs(single - paired) / np.maximum(np.abs(paired), 1e-300)))
        errors.append(f"single-row and batch predictions differ (max rel {worst:.3g})")
    return errors


class Workload:
    """Base: subclasses build inputs in ``setup`` and time ``run``."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, tracer):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer  # for spans around benchmark-side operations

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def inspect(self, products) -> PassResult:
        raise NotImplementedError

    def after_passes(self) -> list[str]:
        """Checks on what the passes left behind; returns the failures."""
        return []

    def reference(self, results: list[PassResult]) -> dict:
        return {}

    def check_reference(self, results: list[PassResult], ref: dict) -> list[tuple[str, bool]]:
        return []


def roundtrip_errors(model, ds, workdir: Path) -> list[str]:
    path = workdir / "roundtrip_model.json"
    hybrid.save(model, path)
    again = hybrid.load(path)
    path.unlink()
    if not np.array_equal(hybrid.predict_batch(again, ds)[1], hybrid.predict_batch(model, ds)[1]):
        return ["a save/load round trip changes the predictions"]
    return []


class PaperEnet(Workload):
    """The README quickstart model: lambda.min elastic-net terminals."""

    name = "paper_enet"

    def setup(self):
        self.train = portfolio(self.sizes.enet_n, BASELINE_SEED)
        self.holdout = portfolio(self.sizes.enet_n, self.seed + 1)

    def run(self):
        model = hybrid.fit(self.train, HP_ENET, seed=0)
        pred = hybrid.predict_batch(model, self.holdout)[2]
        report = evaluate.compute_metrics(self.holdout.response, pred)
        return model, pred, report

    def inspect(self, products):
        model, pred, report = products
        self.model = model
        linear = sorted(t for t, nm in model.node_models.items() if nm.kind == "linear")
        lambdas = [model.node_models[t].fit.penalty.lam for t in linear]
        res = PassResult(
            digest=sha256(pred.tobytes(), json.dumps(lambdas).encode()),
            rmse=report.rmse,
            attempted=3,
            detail={
                "kinds": {str(t): nm.kind for t, nm in sorted(model.node_models.items())},
                "lambdas": lambdas,
                "pred_sum": float(pred.sum()),
                "pred_sample": np.sort(pred)[:: max(1, pred.size // 100)].tolist(),
            },
        )
        if not np.isfinite(pred).all() or (pred < 0).any():
            res.errors.append("holdout predictions are not all finite and non-negative")
        unconverged = [t for t in linear if not model.node_models[t].fit.converged]
        if unconverged:
            res.errors.append(f"final coordinate descent did not converge at terminals {unconverged}")
        return res

    def after_passes(self):
        return roundtrip_errors(self.model, self.holdout, self.workdir)

    def reference(self, results):
        return results[0].detail

    def check_reference(self, results, ref):
        d = results[0].detail
        preds_ok = (np.isclose(d["pred_sum"], ref["pred_sum"], rtol=1e-6)
                    and len(d["pred_sample"]) == len(ref["pred_sample"])
                    and np.allclose(d["pred_sample"], ref["pred_sample"], rtol=1e-6, atol=1e-9))
        return [
            ("terminal kinds identical", d["kinds"] == ref["kinds"]),
            ("selected lambda of every linear terminal identical",
             len(d["lambdas"]) == len(ref["lambdas"])
             and np.allclose(d["lambdas"], ref["lambdas"], rtol=1e-9, atol=0)),
            ("holdout predictions within rtol 1e-6", bool(preds_ok)),
        ]


class TuneOls(Workload):
    """The README tuning grid with the CLI's OLS learner."""

    name = "tune_ols"

    def setup(self):
        self.ds = baseline_in_order(self.sizes.tune_n, self.seed)

    def _factory(self, params):
        hp = hybrid.HybridHyperparams(**{**HP_OLS.to_dict(), **params})

        def learner(ds_train):
            model = hybrid.fit(ds_train, hp, seed=0)
            return lambda ds: hybrid.predict_batch(model, ds)[2]

        return learner

    def run(self):
        return evaluate.grid_search(self.ds, GRID, k=FOLDS, seed=1, learner_factory=self._factory)

    def inspect(self, result):
        table = evaluate.cv_table_csv(result)
        failures = [f for c in result.cells for f in c.failures]
        res = PassResult(
            digest=sha256(table.encode()),
            rmse=result.winner.mean_rmse,
            attempted=1 + FOLDS * len(result.cells),
            failed=len(failures),
            detail={"cv_table_csv": table, "winner": result.winner.params},
        )
        # The documented rule: least mean fold RMSE, ties to larger cp, then smaller maxdepth.
        valid = [c for c in result.cells if c.valid]
        best = min(valid, key=lambda c: (c.mean_rmse, -c.params["cp"], c.params["maxdepth"]))
        if best.params != result.winner.params:
            res.errors.append(f"winner {result.winner.params} is not the CV argmin {best.params}")
        return res

    def reference(self, results):
        return {k: results[0].detail[k] for k in ("cv_table_csv", "winner")}

    def check_reference(self, results, ref):
        d = results[0].detail
        return [("cv_table_csv identical", d["cv_table_csv"] == ref["cv_table_csv"]),
                ("winner identical", d["winner"] == ref["winner"])]


class CliScale(Workload):
    """simulate -> train -> predict -> evaluate through ``claimtree.cli.main``."""

    name = "cli_scale"

    def setup(self):
        pass  # the pass simulates its own portfolio through the CLI

    def run(self):
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        sim, model_dir = d / "sim", d / "model"
        commands = [
            ("simulate", ["--n", str(self.sizes.cli_n), "--seed", str(self.seed), "--out", sim]),
            ("train", ["--data", sim / "portfolio.csv", "--schema", sim / "schema.json",
                       "--out", model_dir, "--severity-learner", "ols", "--seed", "0"]),
            ("predict", ["--model", model_dir / "model.json", "--data", sim / "portfolio.csv",
                         "--out", d / "predictions.csv"]),
            ("evaluate", ["--predictions", d / "predictions.csv", "--actuals", sim / "portfolio.csv",
                          "--schema", sim / "schema.json", "--out", d / "metrics.json"]),
        ]
        codes = {}
        sink = io.StringIO()
        for cmd, args in commands:
            with self.tracer.span(f"cli.{cmd}") as counters, contextlib.redirect_stdout(sink):
                codes[cmd] = cli.main([cmd, *map(str, args)])
                counters["nonzero_exits"] = int(codes[cmd] != 0)
        return d, codes

    def inspect(self, products):
        d, codes = products
        try:
            bad = {c: rc for c, rc in codes.items() if rc != 0}
            res = PassResult(digest="", rmse=float("nan"), attempted=len(codes), failed=len(bad))
            if bad:
                return res
            model_bytes = (d / "model" / "model.json").read_bytes()
            pred_bytes = (d / "predictions.csv").read_bytes()
            metrics = json.loads((d / "metrics.json").read_text())
            clipped = np.loadtxt(d / "predictions.csv", delimiter=",", skiprows=1, usecols=3, ndmin=1)
            if not np.isfinite(clipped).all() or (clipped < 0).any():
                res.errors.append("CLI predictions are not all finite and non-negative")
            res.digest = sha256(model_bytes, pred_bytes)
            res.rmse = metrics["rmse"]
            res.detail = {"model_json_sha256": sha256(model_bytes),
                          "predictions_csv_sha256": sha256(pred_bytes), "metrics": metrics}
            return res
        finally:
            shutil.rmtree(d)

    def reference(self, results):
        return dict(results[0].detail)

    def check_reference(self, results, ref):
        d = results[0].detail
        return [(f"{k} identical", d.get(k) == ref[k]) for k in
                ("model_json_sha256", "predictions_csv_sha256", "metrics")]


class Score(Workload):
    """Batch and single-row prediction with a fitted OLS model."""

    name = "score"

    def setup(self):
        s = self.sizes
        self.model = hybrid.fit(baseline_in_order(s.score_fit_n, self.seed), HP_OLS, seed=0)
        scoring = portfolio(s.score_n, self.seed + 2)
        self.batches = [scoring.subset(np.arange(a, min(a + s.batch_rows, s.score_n)))
                        for a in range(0, s.score_n, s.batch_rows)]
        self.response = scoring.response.copy()
        self.X_single = data.feature_matrix(scoring.subset(np.arange(s.single_rows)))[0]

    def run(self):
        batch = np.concatenate([hybrid.predict_batch(self.model, b)[2] for b in self.batches])
        single = np.array([hybrid.predict(self.model, x) for x in self.X_single])
        return batch, single

    def inspect(self, products):
        batch, single = products
        return PassResult(
            digest=sha256(batch.tobytes(), single.tobytes()),
            rmse=evaluate.rmse(self.response, batch),
            attempted=len(self.batches) + len(single),
            errors=prediction_errors(batch, single),
        )

    def after_passes(self):
        return roundtrip_errors(self.model, self.batches[0], self.workdir)

    def reference(self, results):
        return {"rmse": results[0].rmse}

    def check_reference(self, results, ref):
        return [("holdout rmse within rtol 1e-9",
                 bool(np.isclose(results[0].rmse, ref["rmse"], rtol=1e-9, atol=0)))]


WORKLOADS = {w.name: w for w in (PaperEnet, TuneOls, CliScale, Score)}
