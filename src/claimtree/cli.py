"""Command-line entry point: simulate, train, tune, predict, evaluate,
compare and export-tree.

Options come from flags or, for simulate, train, tune and compare, a JSON
config file (flags win); those four write a manifest with the resolved
configuration next to their outputs.
Exit codes: 0 success, 1 validation error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cart import TreeHyperparams, to_dot
from .data import (
    Column, DataError, Dataset, load_csv, load_schema, require_int, require_seed, save_csv, save_schema,
    write_csv, write_json,
)
from .elastic_net import LAMBDA_MIN
from .evaluate import (
    comparison_svg,
    comparison_table,
    compute_metrics,
    constant_mean_learner,
    cv_table_csv,
    grid_search,
    mean_leaf_tree_learner,
)
from .hybrid import (
    HybridHyperparams,
    ModelLoadError,
    fit,
    format_coefficient_table,
    load,
    predict_batch,
    save,
)
from .simulate import SimConfig, save_latents_csv, simulate


class CliValidationError(Exception):
    """Bad flags or config values; maps to exit code 1."""


@dataclass(frozen=True)
class RunSettings:
    """A run's own settings beside the model's: its seed and tune's fold count."""

    seed: int = 0
    folds: int = 10

    def __post_init__(self):
        require_seed(self.seed)
        require_int(folds=self.folds)
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_config(sub):
    # Only the commands that resolve settings read a config file.
    sub.add_argument("--config", help="JSON config file; explicit flags override it")


def _add_common(sub):
    sub.add_argument("--force", action="store_true", help="overwrite existing outputs")
    sub.add_argument(
        "--log-level",
        dest="log_level",
        choices=LOG_LEVELS,
        default="warning",
        help="lowest level of library messages written to stderr (default: warning)",
    )


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of the moment it is emitted,
    as logging's last-resort handler does, so a redirection made after
    configuration (an embedding program's, a test's capture) is honoured."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_logging(level: str) -> None:
    """Send the package's messages at ``level`` and above to stderr.

    Safe to call once per ``main`` call: the handler is added only once, so
    repeated calls in one process change the level and never stack output.
    """
    logger = logging.getLogger(__package__)
    logger.setLevel(level.upper())
    if not any(isinstance(h, _StderrHandler) for h in logger.handlers):
        logger.addHandler(_StderrHandler())


def build_parser() -> _Parser:
    parser = _Parser(prog="claimtree", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    cmds = parser.add_subparsers(dest="command", required=True)

    sim = cmds.add_parser("simulate", help="generate a synthetic portfolio")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--p-continuous", type=int, dest="p_continuous")
    sim.add_argument("--p-categorical", type=int, dest="p_categorical")
    sim.add_argument("--rho", type=float)
    sim.add_argument("--power", type=float)
    sim.add_argument("--phi", type=float)
    sim.add_argument("--noise-sd", type=float, dest="noise_sd")
    sim.add_argument("--latents", action="store_true", help="also write latent rates")
    _add_config(sim)
    _add_common(sim)

    tr = cmds.add_parser("train", help="fit a hybrid model")
    tr.add_argument("--data", required=True)
    tr.add_argument("--schema", required=True)
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int)
    _add_hyperparam_flags(tr)
    _add_config(tr)
    _add_common(tr)

    tu = cmds.add_parser("tune", help="grid search with k-fold cross-validation")
    tu.add_argument("--data", required=True)
    tu.add_argument("--schema", required=True)
    tu.add_argument("--grid", required=True, help="JSON file: hyperparameter -> value list")
    tu.add_argument("--folds", type=int)
    tu.add_argument("--out", required=True, help="output directory")
    tu.add_argument("--seed", type=int)
    _add_hyperparam_flags(tu)
    _add_config(tu)
    _add_common(tu)

    pr = cmds.add_parser("predict", help="score a dataset with a stored model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True, help="predictions CSV path")
    _add_common(pr)

    ev = cmds.add_parser("evaluate", help="validation measures for stored predictions")
    ev.add_argument("--predictions", required=True, help="CSV from the predict command")
    ev.add_argument("--actuals", required=True, help="CSV holding the observed response")
    ev.add_argument("--schema", required=True)
    ev.add_argument("--out", required=True, help="metrics JSON path")
    _add_common(ev)

    co = cmds.add_parser("compare", help="rescaled comparison table for several models")
    co.add_argument("--models", nargs="*", default=[], help="stored model JSON files")
    co.add_argument("--train", required=True)
    co.add_argument("--test", required=True)
    co.add_argument("--schema", required=True)
    co.add_argument("--out", required=True, help="output directory")
    co.add_argument("--seed", type=int)
    co.add_argument(
        "--no-baselines",
        action="store_true",
        help="skip the constant-mean and mean-leaf-tree baselines",
    )
    _add_tree_flags(co)
    _add_config(co)
    _add_common(co)

    ex = cmds.add_parser("export-tree", help="DOT text of a stored model's tree")
    ex.add_argument("--model", required=True)
    ex.add_argument("--out", required=True, help="DOT file path")
    _add_common(ex)
    return parser


def _add_tree_flags(sub):
    sub.add_argument("--cp", type=float)
    sub.add_argument("--maxdepth", type=int)
    sub.add_argument("--minsplit", type=int)


def _add_hyperparam_flags(sub):
    _add_tree_flags(sub)
    sub.add_argument("--zero-threshold", type=float, dest="zero_threshold")
    sub.add_argument("--glm-which", type=float, dest="glm_which")
    sub.add_argument("--glm-lambda", dest="glm_lambda", help='penalty size or "lambda.min"')
    sub.add_argument("--min-node-linear", type=int, dest="min_node_for_linear")
    sub.add_argument("--severity-learner", dest="severity_learner", choices=["ols", "elastic_net"])


def _read_json_input(path: str, what: str):
    """The JSON value in a config or grid file; an unreadable file is a validation error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise CliValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _load_config_file(args) -> dict:
    if not args.config:
        return {}
    cfg = _read_json_input(args.config, "config")
    if not isinstance(cfg, dict):
        raise CliValidationError("config file must hold a JSON object")
    # a key of any command's settings, so that one file may serve several commands
    unknown = sorted(set(cfg) - {f.name for c in (SimConfig, HybridHyperparams, RunSettings) for f in fields(c)})
    if unknown:
        raise CliValidationError(f"config file {args.config}: unknown settings {unknown}")
    return cfg


def _parse_glm_lambda(value):
    # Only text is converted; any other value meets HybridHyperparams' own checks.
    if not isinstance(value, str) or value == LAMBDA_MIN:
        return value
    try:
        return float(value)
    except ValueError:
        raise CliValidationError(
            f'glm-lambda must be a number or "{LAMBDA_MIN}", got {value!r}'
        ) from None


def _from_flags(cls, args, cfg: dict):
    """Build a settings dataclass field by field: flag, else config key, else default."""
    kwargs = {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}
    kwargs.update((f.name, flag) for f in fields(cls) if (flag := getattr(args, f.name, None)) is not None)
    if "glm_lambda" in kwargs:  # flags and config files may give the penalty as text
        kwargs["glm_lambda"] = _parse_glm_lambda(kwargs["glm_lambda"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliValidationError(str(exc)) from exc


def _prepare_out_dir(path: str, force: bool, expected: list[str]) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if not force:
        clashes = [name for name in expected if (out / name).exists()]
        if clashes:
            raise CliValidationError(
                f"refusing to overwrite {', '.join(clashes)} in {out} (use --force)"
            )
    return out


def _check_out_file(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and not force:
        raise CliValidationError(f"refusing to overwrite {out} (use --force)")
    if out.parent:
        out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, command: str, resolved: dict, seed) -> None:
    manifest = {
        "command": command,
        "claimtree_version": __version__,
        "seed": seed,
        "resolved_config": resolved,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out_dir / "manifest.json", manifest)


def cmd_simulate(args) -> int:
    sim_cfg = _from_flags(SimConfig, args, _load_config_file(args))
    expected = ["portfolio.csv", "schema.json", "manifest.json"]
    if args.latents:
        expected.append("latents.csv")
    out = _prepare_out_dir(args.out, args.force, expected)
    portfolio = simulate(sim_cfg)
    save_csv(portfolio.dataset, out / "portfolio.csv")
    save_schema(portfolio.dataset.columns, out / "schema.json")
    if args.latents:
        save_latents_csv(portfolio, out / "latents.csv")
    _write_manifest(out, "simulate", sim_cfg.to_dict(), sim_cfg.seed)
    zero_share = float((portfolio.dataset.response == 0).mean())
    print(f"wrote {out / 'portfolio.csv'} (n={sim_cfg.n}, zero share {zero_share:.2%})")
    return 0


def _load_dataset(data_path: str, schema_path: str) -> Dataset:
    return load_csv(data_path, load_schema(schema_path))


def cmd_train(args) -> int:
    cfg = _load_config_file(args)
    hp = _from_flags(HybridHyperparams, args, cfg)
    run = _from_flags(RunSettings, args, cfg)
    out = _prepare_out_dir(
        args.out, args.force, ["model.json", "fit_report.json", "coefficients.csv", "manifest.json"]
    )
    ds = _load_dataset(args.data, args.schema)
    model = fit(ds, hp, seed=run.seed)
    save(model, out / "model.json")
    report = {
        "n": ds.n,
        "n_terminals": len(model.tree.terminal_ids()),
        "terminals": [asdict(s) for s in model.terminal_summaries],
    }
    write_json(out / "fit_report.json", report)
    (out / "coefficients.csv").write_text(format_coefficient_table(model), encoding="utf-8")
    _write_manifest(out, "train", {"hyperparams": hp.to_dict(), "data": args.data}, run.seed)
    print(f"wrote {out / 'model.json'} ({report['n_terminals']} terminals)")
    return 0


def _hybrid_learner(hp: HybridHyperparams, seed: int):
    def learner(ds_train: Dataset):
        model = fit(ds_train, hp, seed=seed)
        return lambda ds: predict_batch(model, ds)[2]

    return learner


def cmd_tune(args) -> int:
    cfg = _load_config_file(args)
    base = _from_flags(HybridHyperparams, args, cfg)
    run = _from_flags(RunSettings, args, cfg)
    grid = _read_json_input(args.grid, "grid")
    if not isinstance(grid, dict) or not grid:
        raise CliValidationError("grid file must map hyperparameter names to value lists")
    unknown = sorted(set(grid) - {f.name for f in fields(HybridHyperparams)})
    if unknown:
        raise CliValidationError(f"unknown grid hyperparameters: {unknown}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise CliValidationError(f"grid values for {key!r} must be a non-empty list")
    out = _prepare_out_dir(args.out, args.force, ["winner.json", "cv_table.csv", "manifest.json"])
    ds = _load_dataset(args.data, args.schema)

    def factory(params: dict):
        try:
            hp = replace(base, **params)
        except (TypeError, ValueError) as exc:
            raise CliValidationError(f"grid cell {params}: {exc}") from exc
        return _hybrid_learner(hp, run.seed)

    result = grid_search(ds, grid, k=run.folds, seed=run.seed, learner_factory=factory)
    winner_hp = {**base.to_dict(), **result.winner.params}
    write_json(
        out / "winner.json",
        {
            "hyperparams": winner_hp,
            "mean_rmse": result.winner.mean_rmse,
            "sd_rmse": result.winner.sd_rmse,
        },
    )
    (out / "cv_table.csv").write_text(cv_table_csv(result), encoding="utf-8")
    _write_manifest(
        out,
        "tune",
        {"base_hyperparams": base.to_dict(), "grid": grid, "folds": run.folds, "data": args.data},
        run.seed,
    )
    print(f"winner: {result.winner.params} (mean fold RMSE {result.winner.mean_rmse:.6g})")
    return 0


def cmd_predict(args) -> int:
    out = _check_out_file(args.out, args.force)
    model = load(args.model)
    ds = load_csv(args.data, model.schema)
    terminal_of, raw, clipped = predict_batch(model, ds)
    header = ["row", "terminal_id", "raw", "clipped"]
    write_csv(out, header, [np.arange(ds.n), terminal_of, raw, clipped])
    print(f"wrote {out} ({ds.n} predictions)")
    return 0


def cmd_evaluate(args) -> int:
    out = _check_out_file(args.out, args.force)
    predictions = load_csv(args.predictions, (Column("clipped", "response"),)).response
    # Only the response column of --actuals, as --schema names it, is read
    # (and only "clipped" of the predictions): other columns are neither
    # parsed nor checked, so a malformed feature cell does not fail evaluate.
    response = tuple(col for col in load_schema(args.schema) if col.kind == "response")
    actuals = load_csv(args.actuals, response).response
    if len(predictions) != len(actuals):
        raise DataError(
            f"prediction count {len(predictions)} does not match actuals ({len(actuals)} rows)"
        )
    report = compute_metrics(actuals, predictions)
    write_json(out, report.as_dict())
    print(f"wrote {out} (R^2 {report.r2:.4f}, RMSE {report.rmse:.6g})")
    return 0


# The model hyperparameters that shape no output of compare, whose only
# model of its own is the mean-leaf tree baseline.
_NOT_COMPARE = sorted({f.name for f in fields(HybridHyperparams)} - {f.name for f in fields(TreeHyperparams)})


def cmd_compare(args) -> int:
    cfg = _load_config_file(args)
    unused = [key for key in _NOT_COMPARE if key in cfg]
    if unused:
        raise CliValidationError(f"config file {args.config}: compare does not use {unused}")
    run = _from_flags(RunSettings, args, cfg)
    # a stored model is named by its path as given, less ".json"
    names = [path.removesuffix(".json") for path in args.models]
    if not args.no_baselines:
        names += ["constant_mean", "mean_leaf_tree"]
    if len(names) < 2:
        raise CliValidationError("need at least 2 models; pass --models or drop --no-baselines")
    # the hybrid's tree defaults; checked whether or not baselines run
    tree_hp = _from_flags(TreeHyperparams, args, {**asdict(HybridHyperparams().tree_hyperparams()), **cfg})
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise CliValidationError(f"two models would both be named {clashes[0]!r}")
    out = _prepare_out_dir(
        args.out, args.force, ["comparison.csv", "comparison.svg", "manifest.json"]
    )
    schema = load_schema(args.schema)
    ds_train = load_csv(args.train, schema)
    ds_test = load_csv(args.test, schema)
    predictors = [lambda ds, m=load(path): predict_batch(m, ds)[2] for path in args.models]
    if not args.no_baselines:
        predictors.append(constant_mean_learner(ds_train))
        predictors.append(mean_leaf_tree_learner(tree_hp)(ds_train))
    models = list(zip(names, predictors))
    table = comparison_table(models, ds_train, ds_test)
    (out / "comparison.csv").write_text(table.to_csv(), encoding="utf-8")
    (out / "comparison.svg").write_text(comparison_svg(table), encoding="utf-8")
    resolved = {"models": list(args.models), "train": args.train, "test": args.test}
    if not args.no_baselines:
        resolved["baseline_tree_hyperparams"] = asdict(tree_hp)
    _write_manifest(out, "compare", resolved, run.seed)
    print(f"wrote {out / 'comparison.csv'} ({len(models)} models)")
    return 0


def cmd_export_tree(args) -> int:
    out = _check_out_file(args.out, args.force)
    model = load(args.model)
    out.write_text(to_dot(model.tree), encoding="utf-8")
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "tune": cmd_tune,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "export-tree": cmd_export_tree,
}


# Blocks of at least this many bytes get a mapping of their own from glibc's
# malloc, unmapped when freed. Left to itself, glibc raises the threshold to
# the largest block freed so far, so from the first freed portfolio table
# (4.9 MB at 10k rows) on, such tables are carved from the heap, which keeps
# every page it has touched, and peak memory follows the heap's layout rather
# than the data held: on a 2-CPU Linux VM, the peak RSS of one process running
# the 10k-row simulate-train-predict-evaluate chain read 61-79 MB as the size
# of its environment changed, and 61-63 MB with this threshold.
MMAP_THRESHOLD = 1 << 20


@functools.cache
def _fix_mmap_threshold() -> None:
    """Sets glibc malloc's mmap threshold to MMAP_THRESHOLD, once per
    process, for the rest of the process; with another C library it does
    nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if glibc:
        import ctypes

        M_MMAP_THRESHOLD = -3  # malloc.h
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv=None) -> int:
    _fix_mmap_threshold()
    try:
        args = build_parser().parse_args(argv)
        _configure_logging(args.log_level)
        return _COMMANDS[args.command](args)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ModelLoadError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
