"""Command-line entry point: simulate, train, tune, predict, evaluate,
compare and export-tree.

Options come from flags or a JSON config file (flags win). Every run
writes a manifest with the resolved configuration next to its outputs.
Exit codes: 0 success, 1 validation error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import MISSING, asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import Column, DataError, Dataset, load_csv, load_schema, save_csv, save_schema, write_csv
from .elastic_net import LAMBDA_MIN
from .evaluate import (
    comparison_svg,
    comparison_table,
    compute_metrics,
    constant_mean_learner,
    cv_table_csv,
    grid_search,
)
from .hybrid import (
    HybridHyperparams,
    ModelLoadError,
    export_tree_dot,
    fit,
    format_coefficient_table,
    load,
    predict_batch,
    save,
)
from .simulate import SimConfig, save_latents_csv, simulate


class CliValidationError(Exception):
    """Bad flags or config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; explicit flags override it")
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
    _add_common(sim)

    tr = cmds.add_parser("train", help="fit a hybrid model")
    tr.add_argument("--data", required=True)
    tr.add_argument("--schema", required=True)
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int)
    _add_hyperparam_flags(tr)
    _add_common(tr)

    tu = cmds.add_parser("tune", help="grid search with k-fold cross-validation")
    tu.add_argument("--data", required=True)
    tu.add_argument("--schema", required=True)
    tu.add_argument("--grid", required=True, help="JSON file: hyperparameter -> value list")
    tu.add_argument("--folds", type=int)
    tu.add_argument("--out", required=True, help="output directory")
    tu.add_argument("--seed", type=int)
    _add_hyperparam_flags(tu)
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
    _add_hyperparam_flags(co)
    _add_common(co)

    ex = cmds.add_parser("export-tree", help="DOT text of a stored model's tree")
    ex.add_argument("--model", required=True)
    ex.add_argument("--out", required=True, help="DOT file path")
    _add_common(ex)
    return parser


def _add_hyperparam_flags(sub):
    sub.add_argument("--cp", type=float)
    sub.add_argument("--maxdepth", type=int)
    sub.add_argument("--zero-threshold", type=float, dest="zero_threshold")
    sub.add_argument("--glm-which", type=float, dest="glm_which")
    sub.add_argument("--glm-lambda", dest="glm_lambda", help='penalty size or "lambda.min"')
    sub.add_argument("--min-node-linear", type=int, dest="min_node_for_linear")
    sub.add_argument("--minsplit", type=int)
    sub.add_argument("--severity-learner", dest="severity_learner", choices=["ols", "elastic_net"])


def _read_json_input(path: str, what: str):
    """The JSON value in a config or grid file; an unreadable file is a validation error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliValidationError(f"cannot read {what} file {path}: {exc}") from exc


def _load_config_file(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    cfg = _read_json_input(args.config, "config")
    if not isinstance(cfg, dict):
        raise CliValidationError("config file must hold a JSON object")
    return cfg


def _resolve(args, cfg: dict, name: str, default):
    flag_value = getattr(args, name, None)
    if flag_value is not None:
        return flag_value
    if name in cfg:
        return cfg[name]
    return default


def _parse_glm_lambda(value):
    if value is None or value == LAMBDA_MIN:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliValidationError(
            f'glm-lambda must be a number or "{LAMBDA_MIN}", got {value!r}'
        ) from None


def _from_flags(cls, args, cfg: dict):
    """Build a settings dataclass field by field: flag, else config key, else default."""
    resolved = {f.name: _resolve(args, cfg, f.name, MISSING) for f in fields(cls)}
    kwargs = {name: value for name, value in resolved.items() if value is not MISSING}
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


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, resolved: dict, seed) -> None:
    manifest = {
        "command": command,
        "claimtree_version": __version__,
        "seed": seed,
        "resolved_config": resolved,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / "manifest.json", manifest)


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
    seed = _resolve(args, cfg, "seed", 0)
    ds = _load_dataset(args.data, args.schema)
    out = _prepare_out_dir(
        args.out, args.force, ["model.json", "fit_report.json", "coefficients.csv", "manifest.json"]
    )
    model = fit(ds, hp, seed=seed)
    save(model, out / "model.json")
    report = {
        "n": ds.n,
        "n_terminals": len(model.tree.terminal_ids()),
        "terminals": [asdict(s) for s in model.terminal_summaries],
    }
    _write_json(out / "fit_report.json", report)
    with open(out / "coefficients.csv", "w", encoding="utf-8") as fh:
        fh.write(format_coefficient_table(model))
    _write_manifest(out, "train", {"hyperparams": hp.to_dict(), "data": args.data}, seed)
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
    seed = _resolve(args, cfg, "seed", 0)
    folds = _resolve(args, cfg, "folds", 10)
    grid = _read_json_input(args.grid, "grid")
    if not isinstance(grid, dict) or not grid:
        raise CliValidationError("grid file must map hyperparameter names to value lists")
    known = {f.name for f in fields(HybridHyperparams)}
    unknown = set(grid) - known
    if unknown:
        raise CliValidationError(f"unknown grid hyperparameters: {sorted(unknown)}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise CliValidationError(f"grid values for {key!r} must be a non-empty list")
    if isinstance(folds, bool) or not isinstance(folds, int) or folds < 2:
        raise CliValidationError(f"folds must be an integer >= 2, got {folds!r}")
    ds = _load_dataset(args.data, args.schema)
    out = _prepare_out_dir(args.out, args.force, ["winner.json", "cv_table.csv", "manifest.json"])

    def factory(params: dict):
        try:
            hp = replace(base, **params)
        except (TypeError, ValueError) as exc:
            raise CliValidationError(f"grid cell {params}: {exc}") from exc
        return _hybrid_learner(hp, seed)

    result = grid_search(ds, grid, k=folds, seed=seed, learner_factory=factory)
    winner_hp = {**base.to_dict(), **result.winner.params}
    _write_json(
        out / "winner.json",
        {
            "hyperparams": winner_hp,
            "mean_rmse": result.winner.mean_rmse,
            "sd_rmse": result.winner.sd_rmse,
        },
    )
    with open(out / "cv_table.csv", "w", encoding="utf-8") as fh:
        fh.write(cv_table_csv(result))
    _write_manifest(
        out,
        "tune",
        {"base_hyperparams": base.to_dict(), "grid": grid, "folds": folds, "data": args.data},
        seed,
    )
    print(f"winner: {result.winner.params} (mean fold RMSE {result.winner.mean_rmse:.6g})")
    return 0


def cmd_predict(args) -> int:
    model = load(args.model)
    ds = load_csv(args.data, model.schema)
    out = _check_out_file(args.out, args.force)
    terminal_of, raw, clipped = predict_batch(model, ds)
    header = ["row", "terminal_id", "raw", "clipped"]
    write_csv(out, header, zip(range(ds.n), terminal_of.tolist(), raw.tolist(), clipped.tolist()))
    print(f"wrote {out} ({ds.n} predictions)")
    return 0


def cmd_evaluate(args) -> int:
    predictions = load_csv(args.predictions, (Column("clipped", "response"),)).response
    ds = _load_dataset(args.actuals, args.schema)
    if predictions.shape[0] != ds.n:
        raise DataError(
            f"prediction count {predictions.shape[0]} does not match actuals ({ds.n} rows)"
        )
    out = _check_out_file(args.out, args.force)
    report = compute_metrics(ds.response, predictions)
    _write_json(out, report.as_dict())
    print(f"wrote {out} (R^2 {report.r2:.4f}, RMSE {report.rmse:.6g})")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config_file(args)
    seed = _resolve(args, cfg, "seed", 0)
    schema = load_schema(args.schema)
    ds_train = load_csv(args.train, schema)
    ds_test = load_csv(args.test, schema)
    out = _prepare_out_dir(
        args.out, args.force, ["comparison.csv", "comparison.svg", "manifest.json"]
    )
    models = []
    for path in args.models:
        stored = load(path)
        name = Path(path).stem
        models.append((name, lambda ds, m=stored: predict_batch(m, ds)[2]))
    if not args.no_baselines:
        models.append(("constant_mean", constant_mean_learner(ds_train)))
        base = _from_flags(HybridHyperparams, args, cfg)
        mean_leaf_hp = replace(base, zero_threshold=1.0, min_node_for_linear=10**9)
        tree_model = fit(ds_train, mean_leaf_hp, seed=seed)
        models.append(("mean_leaf_tree", lambda ds, m=tree_model: predict_batch(m, ds)[2]))
    if len(models) < 2:
        raise CliValidationError("need at least 2 models; pass --models or drop --no-baselines")
    table = comparison_table(models, ds_train, ds_test)
    with open(out / "comparison.csv", "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    with open(out / "comparison.svg", "w", encoding="utf-8") as fh:
        fh.write(comparison_svg(table))
    _write_manifest(
        out,
        "compare",
        {"models": list(args.models), "train": args.train, "test": args.test},
        seed,
    )
    print(f"wrote {out / 'comparison.csv'} ({len(models)} models)")
    return 0


def cmd_export_tree(args) -> int:
    model = load(args.model)
    out = _check_out_file(args.out, args.force)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(export_tree_dot(model))
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


def main(argv=None) -> int:
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
