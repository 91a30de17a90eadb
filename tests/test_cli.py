"""End-to-end command-line flows in temporary directories."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import claimtree
from claimtree.cli import LOG_LEVELS, main
from claimtree.cart import TreeHyperparams
from claimtree.evaluate import compute_metrics, mean_leaf_tree_learner
from claimtree.hybrid import load, predict, predict_batch
from claimtree.data import load_csv, load_schema
from claimtree.simulate import SimConfig, simulate


@pytest.fixture(scope="module")
def portfolio(tmp_path_factory):
    out = tmp_path_factory.mktemp("portfolio")
    code = main(["simulate", "--n", "400", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, portfolio):
    out = tmp_path_factory.mktemp("model")
    code = main([
        "train",
        "--data", str(portfolio / "portfolio.csv"),
        "--schema", str(portfolio / "schema.json"),
        "--out", str(out),
        "--seed", "1",
        "--cp", "0.001",
        "--maxdepth", "3",
        "--zero-threshold", "0.4",
        "--severity-learner", "ols",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def linear_model(tmp_path_factory):
    """Seed-3 OLS model on 600 rows at maxdepth 3 with a linear terminal (node 14)."""
    out = tmp_path_factory.mktemp("linear")
    assert main(["simulate", "--n", "600", "--seed", "3", "--out", str(out / "sim")]) == 0
    code = main([
        "train", "--data", str(out / "sim" / "portfolio.csv"), "--schema", str(out / "sim" / "schema.json"),
        "--out", str(out / "m"), "--maxdepth", "3", "--zero-threshold", "1", "--severity-learner", "ols",
    ])
    assert code == 0
    return out


def _edit_model(payload, edit):
    """Apply one named corruption to a parsed model.json."""
    root = payload["tree"]["root"]
    linear = payload["node_models"]["14"]
    if edit == "feature out of range":
        root["split"]["feature"] = 999
    elif edit == "bool feature":
        root["split"]["feature"] = True
    elif edit == "string threshold":
        root["split"]["threshold"] = "0.5"
    elif edit == "nan threshold":
        root["split"]["threshold"] = float("nan")
    elif edit == "terminal id off the heap":
        root["left"]["left"]["id"] = 5  # node 4's place
    elif edit == "feature_idx out of range":
        linear["feature_idx"][0] = len(payload["encoded_features"])
    elif edit == "feature_idx shorter than coefficients":
        linear["feature_idx"].pop()
    elif edit == "encoded features renamed":
        payload["encoded_features"][0] = "renamed"
    elif edit == "node_models a list":
        payload["node_models"] = list(payload["node_models"].values())
    elif edit == "feature_names shorter":
        linear["feature_names"].pop()
    elif edit == "feature_names renamed":
        linear["feature_names"][0] = "renamed"
    elif edit == "feature_names a string":
        linear["feature_names"] = linear["feature_names"][0]
    elif edit == "bool cp":
        payload["hyperparams"]["cp"] = True
    elif edit == "string n":
        root["n"] = "600"
    elif edit == "string intercept":
        linear["intercept"] = "0.0"
    elif edit == "bool coefficient":
        linear["coefficients"][1] = True
    elif edit == "standardization of other features":
        linear["standardization"] = {"names": ["nope"], "center": [1.0], "scale": [0.0]}
    elif edit.startswith("standardization"):  # corrupt one entry of a well-formed standardization
        m = len(linear["coefficients"])
        st = linear["standardization"] = {"names": linear["feature_names"], "center": [0.0] * m, "scale": [1.0] * m}
        if edit == "standardization center too short":
            st["center"].pop()
        elif edit == "standardization string scale":
            st["scale"][0] = "1.0"
        elif edit == "standardization zero scale":
            st["scale"][2] = 0.0
    elif edit == "string zero_fraction":
        payload["terminal_summaries"][0]["zero_fraction"] = "lots"
    elif edit == "zero_fraction above 1":
        payload["terminal_summaries"][0]["zero_fraction"] = 1.5
    elif edit == "summary n":
        payload["terminal_summaries"][1]["n"] += 1
    elif edit == "summary model_kind":
        payload["terminal_summaries"][1]["model_kind"] = "linear"
    elif edit == "summary duplicated":
        payload["terminal_summaries"].append(dict(payload["terminal_summaries"][0]))
    elif edit == "beta_f 7":
        root["beta_f"] = 7
    elif edit == "unknown key":
        payload["notes"] = "hand edited"
    elif edit == "tree maxdepth 7":
        payload["tree"]["hyperparams"]["maxdepth"] = 7
    elif edit == "negative mean":
        payload["node_models"]["10"]["value"] = -2.5
    elif edit == "node deeper than 30":
        node, nid = root["left"]["left"], 4  # a terminal; grow a left spine under it
        while nid < 2**31:
            leaves = [{"id": i, "n": 1, "n_positive": 1, "beta_f": 1} for i in (2 * nid, 2 * nid + 1)]
            node.update(split=dict(root["split"]), gain=0.0, left=leaves[0], right=leaves[1])
            node, nid = leaves[0], 2 * nid


class TestSimulate:
    def test_writes_three_files(self, portfolio):
        for name in ("portfolio.csv", "schema.json", "manifest.json"):
            assert (portfolio / name).exists()

    def test_rerun_same_seed_identical_bytes(self, portfolio, tmp_path):
        again = tmp_path / "again"
        assert main(["simulate", "--n", "400", "--seed", "7", "--out", str(again)]) == 0
        assert (again / "portfolio.csv").read_bytes() == (portfolio / "portfolio.csv").read_bytes()
        assert (again / "schema.json").read_bytes() == (portfolio / "schema.json").read_bytes()

    def test_power_validation(self, tmp_path):
        code = main(["simulate", "--n", "10", "--power", "2.5", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_overwrite_refused_without_force(self, portfolio):
        code = main(["simulate", "--n", "400", "--seed", "7", "--out", str(portfolio)])
        assert code == 1
        code = main(["simulate", "--n", "400", "--seed", "7", "--out", str(portfolio), "--force"])
        assert code == 0

    def test_latents_sidecar(self, tmp_path):
        out = tmp_path / "lat"
        assert main(["simulate", "--n", "50", "--seed", "3", "--out", str(out), "--latents"]) == 0
        header = (out / "latents.csv").read_text().splitlines()[0]
        assert header == "row,lambda,n_claims,gamma_shape,gamma_rate"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 25, "seed": 9}), encoding="utf-8")
        out = tmp_path / "fromcfg"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--n", "30"]) == 0
        n_rows = len((out / "portfolio.csv").read_text().splitlines()) - 1
        assert n_rows == 30  # flag wins over config file
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["seed"] == 9

    def test_config_file_coefficients_honoured(self, tmp_path):
        cfg = {
            "n": 40, "p_continuous": 2, "p_categorical": 1, "seed": 4, "noise_sd": 0.0,
            "beta_poisson": [0.5, 1.0, -1.0, 0.2], "beta_gamma": [4.0, 0.3, 0.0, -0.3],
        }
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "betas"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["beta_poisson"] == cfg["beta_poisson"]
        assert manifest["resolved_config"]["beta_gamma"] == cfg["beta_gamma"]
        written = load_csv(out / "portfolio.csv", load_schema(out / "schema.json"))
        expected = simulate(SimConfig(**cfg)).dataset
        np.testing.assert_array_equal(written.values, expected.values)


class TestTrain:
    def test_outputs_exist(self, trained):
        for name in ("model.json", "fit_report.json", "coefficients.csv", "manifest.json"):
            assert (trained / name).exists()

    def test_fit_report_terminal_summaries(self, trained):
        report = json.loads((trained / "fit_report.json").read_text())
        assert report["n"] == 400
        assert report["n_terminals"] == len(report["terminals"])
        for term in report["terminals"]:
            assert term["model_kind"] in ("zero", "mean", "linear")
            assert 0.0 <= term["zero_fraction"] <= 1.0

    def test_zero_threshold_validation(self, portfolio, tmp_path):
        code = main([
            "train",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "m"),
            "--zero-threshold", "1.01",
        ])
        assert code == 1

    def test_fit_report_terminals_match_model_json(self, trained):
        report = json.loads((trained / "fit_report.json").read_text())
        model_json = json.loads((trained / "model.json").read_text())
        assert report["terminals"] == model_json["terminal_summaries"]

    @pytest.mark.parametrize(
        "flags", [["--maxdepth", "0"], ["--maxdepth", "31"], ["--minsplit", "1"]]
    )
    def test_tree_settings_validation(self, portfolio, tmp_path, flags):
        code = main([
            "train",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "m"),
            *flags,
        ])
        assert code == 1

    @pytest.mark.parametrize("cfg", [{"maxdepth": 3.5}, {"minsplit": 8.0}, {"min_node_for_linear": 40.0}])
    def test_tree_sizes_must_be_integers(self, portfolio, tmp_path, cfg):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        code = main([
            "train", "--config", str(cfg_file),
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "m"),
        ])
        assert code == 1

    def test_config_string_lambda_and_flag_override(self, portfolio, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "glm_lambda": "0.5", "glm_which": 0.5, "maxdepth": 5, "cp": 0.001,
            "zero_threshold": 0.4, "seed": 3,
        }), encoding="utf-8")
        out = tmp_path / "fromcfg"
        code = main([
            "train",
            "--config", str(cfg),
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
            "--maxdepth", "2",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["resolved_config"]["hyperparams"] == {
            "cp": 0.001, "maxdepth": 2, "zero_threshold": 0.4, "glm_which": 0.5,
            "glm_lambda": 0.5, "min_node_for_linear": 40,
            "severity_learner": "elastic_net", "minsplit": 8,
        }

    def test_non_finite_cell_is_data_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x1", "kind": "continuous"}, {"name": "y", "kind": "response"},
        ]}), encoding="utf-8")
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,0\ninf,3\n", encoding="utf-8")
        code = main([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert "row 2, column 'x1': non-finite value inf" in capsys.readouterr().err

    def test_negative_count_is_data_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x1", "kind": "continuous"}, {"name": "k", "kind": "count"},
            {"name": "y", "kind": "response"},
        ]}), encoding="utf-8")
        data = tmp_path / "d.csv"
        data.write_text("x1,k,y\n1.0,1.5,2\n2.0,-2,0\n3.0,0,0\n", encoding="utf-8")
        code = main([
            "train", "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert f"{data}: row 2, column 'k': negative count -2.0" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.json").exists()

    def test_retrain_byte_identical(self, portfolio, trained, tmp_path):
        out = tmp_path / "again"
        code = main([
            "train",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
            "--seed", "1",
            "--cp", "0.001",
            "--maxdepth", "3",
            "--zero-threshold", "0.4",
            "--severity-learner", "ols",
        ])
        assert code == 0
        assert (out / "model.json").read_bytes() == (trained / "model.json").read_bytes()


class TestPredict:
    def test_predictions_match_single_row_api(self, portfolio, trained, tmp_path):
        pred_file = tmp_path / "pred.csv"
        code = main([
            "predict",
            "--model", str(trained / "model.json"),
            "--data", str(portfolio / "portfolio.csv"),
            "--out", str(pred_file),
        ])
        assert code == 0
        lines = pred_file.read_text().splitlines()
        assert lines[0] == "row,terminal_id,raw,clipped"
        assert len(lines) == 401
        model = load(trained / "model.json")
        ds = load_csv(portfolio / "portfolio.csv", model.schema)
        for line in lines[1:20]:
            i, tid, raw, clipped = line.split(",")
            assert float(clipped) == predict(model, ds.values[int(i), :-1])

    def test_terminal_histogram_matches_fit_report(self, portfolio, trained, tmp_path):
        pred_file = tmp_path / "pred2.csv"
        main([
            "predict",
            "--model", str(trained / "model.json"),
            "--data", str(portfolio / "portfolio.csv"),
            "--out", str(pred_file),
        ])
        counts = {}
        for line in pred_file.read_text().splitlines()[1:]:
            tid = int(line.split(",")[1])
            counts[tid] = counts.get(tid, 0) + 1
        report = json.loads((trained / "fit_report.json").read_text())
        assert counts == {t["node_id"]: t["n"] for t in report["terminals"]}

    def test_empty_data_gives_header_only(self, portfolio, trained, tmp_path):
        empty = tmp_path / "empty.csv"
        header = (portfolio / "portfolio.csv").read_text().splitlines()[0]
        empty.write_text(header + "\n", encoding="utf-8")
        out = tmp_path / "pred_empty.csv"
        code = main([
            "predict", "--model", str(trained / "model.json"),
            "--data", str(empty), "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines() == ["row,terminal_id,raw,clipped"]

    def test_schema_mismatch_is_data_error(self, trained, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        code = main([
            "predict", "--model", str(trained / "model.json"),
            "--data", str(bad), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2


class TestEvaluate:
    def test_perfect_predictions_score_r2_one(self, portfolio, tmp_path):
        schema = load_schema(portfolio / "schema.json")
        ds = load_csv(portfolio / "portfolio.csv", schema)
        pred = tmp_path / "perfect.csv"
        with open(pred, "w", encoding="utf-8") as fh:
            fh.write("row,terminal_id,raw,clipped\n")
            for i, v in enumerate(ds.response):
                fh.write(f"{i},1,{float(v)!r},{float(v)!r}\n")
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--predictions", str(pred),
            "--actuals", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
        ])
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["r2"] == 1.0
        assert metrics["rmse"] == 0.0
        assert metrics["n_used"]["mape"] <= metrics["n_used"]["rmse"]

    def test_length_mismatch_is_data_error(self, portfolio, tmp_path):
        pred = tmp_path / "short.csv"
        pred.write_text("row,terminal_id,raw,clipped\n0,1,1.0,1.0\n", encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(pred),
            "--actuals", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2


    @pytest.mark.parametrize("cell, problem", [
        ("nan", "non-finite value nan"),
        ("abc", "cannot parse 'abc'"),
        ("1_000", "cannot parse '1_000'"),
        ("-1.5", "negative response -1.5"),
        ("", "missing value"),
    ])
    def test_bad_prediction_cell_is_named(self, portfolio, tmp_path, capsys, cell, problem):
        lines = ["row,terminal_id,raw,clipped"] + [f"{i},1,0.5,0.5" for i in range(400)]
        lines[3] = f"2,1,0.5,{cell}"
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--predictions", str(pred),
            "--actuals", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
        ])
        assert code == 2
        assert f"{pred}: row 3, column 'clipped': {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_field_over_the_csv_size_limit_is_data_error(self, portfolio, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("clipped,note\n1.0,a\n2.0," + "x" * 200_000 + "\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--predictions", str(pred),
            "--actuals", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
        ])
        assert code == 2
        assert f"{pred}: row 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_predictions_without_clipped_column_rejected(self, portfolio, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("row,terminal_id,raw\n0,1,1.0\n", encoding="utf-8")
        out = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--predictions", str(pred),
            "--actuals", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
        ])
        assert code == 2
        assert f"{pred}: missing column 'clipped'" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _evaluate(portfolio, tmp_path, actuals, out):
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "row,terminal_id,raw,clipped\n" + "".join(f"{i},1,{i / 100},{i / 100}\n" for i in range(400)),
            encoding="utf-8",
        )
        return main([
            "evaluate", "--predictions", str(pred), "--actuals", str(actuals),
            "--schema", str(portfolio / "schema.json"), "--out", str(out),
        ])

    @staticmethod
    def _edited_actuals(portfolio, tmp_path, row, edits):
        """portfolio.csv with the cells ``edits`` ({column: text}) of data row ``row`` replaced."""
        lines = (portfolio / "portfolio.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cells = lines[row].split(",")
        for name, text in edits.items():
            cells[header.index(name)] = text
        lines[row] = ",".join(cells)
        actuals = tmp_path / "actuals.csv"
        actuals.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return actuals

    @pytest.mark.parametrize("edits", [
        {"x1": "abc"},
        # the quoted cell sends the file to the cell-by-cell reader
        {"x1": "1_000", "x2": '"0.5"'},
    ], ids=["abc", "underscore-with-quoted-cell"])
    def test_feature_columns_of_actuals_are_not_read(self, portfolio, tmp_path, edits):
        clean = tmp_path / "clean.json"
        assert self._evaluate(portfolio, tmp_path, portfolio / "portfolio.csv", clean) == 0
        actuals = self._edited_actuals(portfolio, tmp_path, 3, edits)
        out = tmp_path / "metrics.json"
        assert self._evaluate(portfolio, tmp_path, actuals, out) == 0
        assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("cell, problem", [
        ("abc", "cannot parse 'abc'"),
        ("1_000", "cannot parse '1_000'"),
        ("-1.5", "negative response -1.5"),
        ("nan", "non-finite value nan"),
        ("", "missing value"),
    ])
    def test_bad_response_cell_is_named(self, portfolio, tmp_path, capsys, cell, problem):
        actuals = self._edited_actuals(portfolio, tmp_path, 3, {"claim": cell})
        out = tmp_path / "metrics.json"
        assert self._evaluate(portfolio, tmp_path, actuals, out) == 2
        assert f"{actuals}: row 3, column 'claim': {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_actuals_without_response_column_rejected(self, portfolio, tmp_path, capsys):
        lines = (portfolio / "portfolio.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",claim")
        actuals = tmp_path / "actuals.csv"
        actuals.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "metrics.json"
        assert self._evaluate(portfolio, tmp_path, actuals, out) == 2
        assert f"{actuals}: missing column 'claim'" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _actuals_with_extra_column(portfolio, tmp_path, name):
        """portfolio.csv with one more column, named ``name``, holding -7.0 throughout."""
        lines = (portfolio / "portfolio.csv").read_text(encoding="utf-8").splitlines()
        actuals = tmp_path / "actuals.csv"
        rows = "".join(f"{line},-7.0\n" for line in lines[1:])
        actuals.write_text(f"{lines[0]},{name}\n{rows}", encoding="utf-8")
        return actuals

    def test_actuals_naming_the_response_twice_rejected(self, portfolio, tmp_path, capsys):
        actuals = self._actuals_with_extra_column(portfolio, tmp_path, "claim")
        out = tmp_path / "metrics.json"
        assert self._evaluate(portfolio, tmp_path, actuals, out) == 2
        assert f"{actuals}: column 'claim' appears more than once in the header" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_feature_name_in_actuals_is_not_read(self, portfolio, tmp_path):
        clean = tmp_path / "clean.json"
        assert self._evaluate(portfolio, tmp_path, portfolio / "portfolio.csv", clean) == 0
        actuals = self._actuals_with_extra_column(portfolio, tmp_path, "x1")
        out = tmp_path / "metrics.json"
        assert self._evaluate(portfolio, tmp_path, actuals, out) == 0
        assert out.read_bytes() == clean.read_bytes()


class TestTune:
    def test_single_cell_grid(self, portfolio, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        out = tmp_path / "tuned"
        code = main([
            "tune",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--grid", str(grid),
            "--folds", "3",
            "--seed", "2",
            "--out", str(out),
            "--maxdepth", "3",
            "--severity-learner", "ols",
            "--zero-threshold", "0.4",
        ])
        assert code == 0
        winner = json.loads((out / "winner.json").read_text())
        assert winner["hyperparams"]["cp"] == 0.001

    def test_two_value_cp_grid_rows_and_determinism(self, portfolio, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"cp": [0.0001, 0.0002]}), encoding="utf-8")
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            code = main([
                "tune",
                "--data", str(portfolio / "portfolio.csv"),
                "--schema", str(portfolio / "schema.json"),
                "--grid", str(grid),
                "--folds", "3",
                "--seed", "5",
                "--out", str(out),
                "--maxdepth", "3",
                "--severity-learner", "ols",
                "--zero-threshold", "0.4",
            ])
            assert code == 0
            outs.append(out)
        t1 = (outs[0] / "cv_table.csv").read_text()
        t2 = (outs[1] / "cv_table.csv").read_text()
        assert t1 == t2
        assert len(t1.splitlines()) == 3  # header + one row per cp value

    def test_unknown_grid_key_rejected(self, portfolio, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"bogus": [1]}), encoding="utf-8")
        code = main([
            "tune",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--grid", str(grid),
            "--out", str(tmp_path / "t"),
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "grid", [{"zero_threshold": [0.25, 2.0]}, {"maxdepth": [0, 3]}, {"maxdepth": [True]}]
    )
    def test_invalid_grid_cell_is_validation_error(self, portfolio, tmp_path, grid):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid), encoding="utf-8")
        code = main([
            "tune",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--grid", str(grid_file),
            "--folds", "2",
            "--out", str(tmp_path / "t"),
            "--maxdepth", "2",
            "--severity-learner", "ols",
        ])
        assert code == 1

    @pytest.mark.parametrize("grid", [{"cp": 0.1}, {"cp": []}, {"maxdepth": [3], "cp": {"a": 1}}])
    def test_grid_values_must_be_non_empty_lists(self, tmp_path, capsys, grid):
        # checked before any data is read: the data file does not exist
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid), encoding="utf-8")
        code = main([
            "tune", "--data", str(tmp_path / "absent.csv"), "--schema", str(tmp_path / "absent.json"),
            "--grid", str(grid_file), "--out", str(tmp_path / "t"),
        ])
        assert code == 1
        assert "'cp'" in capsys.readouterr().err

    @pytest.mark.parametrize("folds", ["1", "0", "-2"])
    def test_fewer_than_two_folds_rejected_before_reading_data(self, tmp_path, folds):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        code = main([
            "tune", "--data", str(tmp_path / "absent.csv"), "--schema", str(tmp_path / "absent.json"),
            "--grid", str(grid_file), "--folds", folds, "--out", str(tmp_path / "t"),
        ])
        assert code == 1

    def test_more_folds_than_rows_is_data_error(self, portfolio, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        code = main([
            "tune",
            "--data", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--grid", str(grid_file),
            "--folds", "401",
            "--out", str(tmp_path / "t"),
        ])
        assert code == 2


class TestSettingTypes:
    """A config file value of the wrong type or sign is a validation error naming the field."""

    @pytest.mark.parametrize("cfg, name", [
        ({"n": 50.5}, "n"), ({"n": True}, "n"), ({"seed": 1.0}, "seed"),
        ({"p_continuous": "3"}, "p_continuous"), ({"p_categorical": False}, "p_categorical"),
        ({"rho": True}, "rho"), ({"power": "1.5"}, "power"), ({"phi": None}, "phi"),
        ({"noise_sd": True}, "noise_sd"),
        ({"n": 20, "p_continuous": -1, "p_categorical": 2,
          "beta_poisson": [0.0, 0.1], "beta_gamma": [0.0, 0.1]}, "p_continuous"),
        ({"p_categorical": -3}, "p_categorical"),
        ({"seed": True}, "seed"), ({"seed": "3"}, "seed"), ({"seed": -1}, "seed"),
    ])
    def test_simulate_config(self, tmp_path, capsys, cfg, name):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "sim")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {name} must be " in err and "Traceback" not in err
        assert not (tmp_path / "sim" / "portfolio.csv").exists()

    @pytest.mark.parametrize("cfg, name", [
        ({"cp": True, "glm_which": False, "zero_threshold": True}, "cp"),
        ({"glm_which": False}, "glm_which"), ({"zero_threshold": True}, "zero_threshold"),
        ({"glm_lambda": True}, "glm_lambda"), ({"glm_lambda": [0.3]}, "glm_lambda"),
        ({"cp": "0.01"}, "cp"),
    ])
    def test_train_config(self, portfolio, tmp_path, capsys, cfg, name):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        code = main([
            "train", "--config", str(cfg_file),
            "--data", str(portfolio / "portfolio.csv"), "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "m"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {name} must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "m" / "model.json").exists()

    @pytest.mark.parametrize("folds", [2.0, True, "3"])
    def test_tune_folds_config(self, tmp_path, capsys, folds):
        (tmp_path / "grid.json").write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        (tmp_path / "cfg.json").write_text(json.dumps({"folds": folds}), encoding="utf-8")
        code = main([
            "tune", "--config", str(tmp_path / "cfg.json"), "--data", str(tmp_path / "absent.csv"),
            "--schema", str(tmp_path / "absent.json"), "--grid", str(tmp_path / "grid.json"),
            "--out", str(tmp_path / "t"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: folds must be an integer" in err

    @pytest.mark.parametrize("seed", [1.0, True, "3", -1])
    @pytest.mark.parametrize("command", ["train", "tune", "compare"])
    def test_seed_config(self, portfolio, tmp_path, capsys, command, seed):
        """A seed must be an integer >= 0; the run writes nothing."""
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": seed}), encoding="utf-8")
        (tmp_path / "grid.json").write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        data, schema = str(portfolio / "portfolio.csv"), ["--schema", str(portfolio / "schema.json")]
        argv = {
            "train": ["--data", data, *schema, "--severity-learner", "ols"],
            "tune": ["--data", data, *schema, "--grid", str(tmp_path / "grid.json")],
            "compare": ["--train", data, "--test", data, *schema],
        }[command]
        code = main([command, "--config", str(tmp_path / "cfg.json"), *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: seed must be " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("train", {"max_depth": 2, "severity_learner": "ols"}, "max_depth"),
        ("simulate", {"nn": 50}, "nn"),
    ])
    def test_config_key_that_names_no_setting(self, portfolio, tmp_path, capsys, command, cfg, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["--data", str(portfolio / "portfolio.csv"), "--schema", str(portfolio / "schema.json")]
        code = main([command, "--config", str(cfg_file), *(argv if command == "train" else []),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: config file {cfg_file}: unknown settings [{key!r}]\n"
        assert not (tmp_path / "out").exists()

    def test_one_config_file_serves_simulate_and_train(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 300, "seed": 2, "maxdepth": 2, "severity_learner": "ols", "folds": 3}))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(sim)]) == 0
        assert main(["train", "--config", str(cfg_file), "--data", str(sim / "portfolio.csv"),
                     "--schema", str(sim / "schema.json"), "--out", str(tmp_path / "m")]) == 0
        assert json.loads((sim / "manifest.json").read_text())["resolved_config"]["n"] == 300
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["seed"] == 2 and manifest["resolved_config"]["hyperparams"]["maxdepth"] == 2

    @pytest.mark.parametrize("cfg", [{"nn": 1}, None], ids=["unknown key", "missing file"])
    @pytest.mark.parametrize("command", ["predict", "evaluate", "export-tree"])
    def test_config_rejected_by_commands_that_read_none(
        self, portfolio, trained, tmp_path, capsys, command, cfg
    ):
        """predict, evaluate and export-tree resolve no setting, so --config is
        an unknown flag there: exit 1 and nothing written, whatever the file holds.
        The same command without it succeeds."""
        cfg_file = tmp_path / "cfg.json"
        if cfg is not None:
            cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(trained / "model.json"),
                     "--data", str(portfolio / "portfolio.csv"), "--out", str(pred)]) == 0
        argv = {
            "predict": ["--model", str(trained / "model.json"), "--data", str(portfolio / "portfolio.csv")],
            "evaluate": ["--predictions", str(pred), "--actuals", str(portfolio / "portfolio.csv"),
                         "--schema", str(portfolio / "schema.json")],
            "export-tree": ["--model", str(trained / "model.json")],
        }[command]
        capsys.readouterr()
        code = main([command, *argv, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: unrecognized arguments: --config {cfg_file}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main([command, *argv, "--out", str(tmp_path / "out")]) == 0

    def test_simulate_negative_seed_flag(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "-1", "--n", "20", "--out", str(tmp_path / "sim")])
        assert code == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


class TestMalformedInputFiles:
    @pytest.mark.parametrize(
        "payload", [{}, [], {"columns": 3}, {"columns": [{"kind": "response"}]}]
    )
    def test_malformed_schema_is_data_error(self, portfolio, tmp_path, capsys, payload):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "train", "--data", str(portfolio / "portfolio.csv"), "--schema", str(schema),
            "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert f"malformed schema file {schema}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, problem", [
        ("two responses", "schema must have exactly one response column, found 2"),
        ("duplicate name", "duplicate column names in schema"),
        ("two counts", "schema may have at most one count column"),
        ("integer categories", "column 'x1': categories must be a list of labels"),
    ])
    def test_schema_level_errors_name_the_file(self, portfolio, tmp_path, capsys, edit, problem):
        payload = json.loads((portfolio / "schema.json").read_text())
        columns = payload["columns"]
        if edit == "two responses":
            columns[0]["kind"] = "response"
        elif edit == "duplicate name":
            columns.append(dict(columns[0]))
        elif edit == "two counts":
            columns[0]["kind"] = columns[1]["kind"] = "count"
        else:
            columns[0].update(name="x1", kind="categorical", categories=[1, 2])
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "train", "--data", str(portfolio / "portfolio.csv"), "--schema", str(schema),
            "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert f"malformed schema file {schema}: {problem}" in capsys.readouterr().err

    def test_model_missing_a_node_model_is_data_error(self, portfolio, trained, tmp_path, capsys):
        payload = json.loads((trained / "model.json").read_text())
        nonzero = [s["node_id"] for s in payload["terminal_summaries"] if s["beta_f"] == 1]
        del payload["node_models"][str(nonzero[0])]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "predict", "--model", str(model),
            "--data", str(portfolio / "portfolio.csv"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert "malformed model file" in capsys.readouterr().err

    def test_model_with_string_categories_is_data_error(self, portfolio, trained, tmp_path, capsys):
        payload = json.loads((trained / "model.json").read_text())
        entry = payload["schema"][0]
        entry["categories"] = "ab"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "predict", "--model", str(model),
            "--data", str(portfolio / "portfolio.csv"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"malformed model file {model}: column {entry['name']!r}: categories must be" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("edit, problem", [
        ("feature out of range", "node 1 splits on feature 999"),
        ("bool feature", "node 1 split feature must be an integer"),
        ("string threshold", "node 1 split threshold must be a finite number"),
        ("nan threshold", "node 1 split threshold must be a finite number"),
        ("terminal id off the heap", "node id 5 where node 4 belongs"),
        ("feature_idx out of range", "feature_idx 60 is not one of the 60 encoded features"),
        ("feature_idx shorter than coefficients", "feature_idx and coefficients must be lists of one length"),
        ("encoded features renamed", "are not the tree's feature names"),
        ("node_models a list", "node_models must be an object keyed by node id"),
        ("feature_names shorter", "are not the features at feature_idx"),
        ("feature_names renamed", "are not the features at feature_idx"),
        ("feature_names a string", "are not the features at feature_idx"),
        ("bool cp", "cp must be a finite number"),
        ("string n", "node 1 n must be an integer"),
        ("string intercept", "intercept must be a finite number"),
        ("bool coefficient", "coefficient 1 must be a finite number"),
        ("standardization of other features", "standardization names ['nope'] are not the feature names"),
        ("standardization center too short", "standardization center must be a list of 60 numbers"),
        ("standardization string scale", "standardization scale 0 must be a finite number"),
        ("standardization zero scale", "standardization scale must be > 0"),
        ("string zero_fraction", "terminal 4 zero_fraction must be a finite number, got 'lots'"),
        ("zero_fraction above 1", "terminal 4 zero_fraction 1.5 lies outside [0, 1]"),
        ("node deeper than 30", f"node {2**31} lies deeper than 30"),
        ("summary n", "terminal_summaries would not be saved back as read"),
        ("summary model_kind", "terminal_summaries would not be saved back as read"),
        ("summary duplicated", "terminal_summaries would not be saved back as read"),
        ("beta_f 7", "tree would not be saved back as read"),
        ("unknown key", "notes would not be saved back as read"),
        ("tree maxdepth 7", "tree hyperparams TreeHyperparams(cp=0.0001, maxdepth=7, minsplit=8, impurity='gini') "
                            "are not the model's TreeHyperparams(cp=0.0001, maxdepth=3,"),
        ("negative mean", "terminal 10: mean value -2.5 is negative"),
    ])
    def test_unusable_model_is_load_error(self, linear_model, tmp_path, capsys, edit, problem):
        payload = json.loads((linear_model / "m" / "model.json").read_text())
        _edit_model(payload, edit)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "predict", "--model", str(model),
            "--data", str(linear_model / "sim" / "portfolio.csv"), "--out", str(tmp_path / "p.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"malformed model file {model}: " in err and problem in err
        assert "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()

    def test_schema_that_does_not_encode_to_the_tree_is_load_error(self, linear_model, tmp_path, capsys):
        payload = json.loads((linear_model / "m" / "model.json").read_text())
        payload["schema"][0]["name"] = "q1"  # x1 renamed
        del payload["schema"][1]  # x2 removed
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "predict", "--model", str(model),
            "--data", str(linear_model / "sim" / "portfolio.csv"), "--out", str(tmp_path / "p.csv"),
        ])
        tree_names = payload["encoded_features"]
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: malformed model file {model}: schema features {['q1'] + tree_names[2:]} "
            f"are not the tree's feature names {tree_names}\n"
        )
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("which, code, problem", [
        ("model", 2, "cannot read model file"),
        ("config", 1, "cannot read config file"),
        ("schema", 2, "malformed schema file"),
    ])
    def test_deeply_nested_json_is_an_error(self, linear_model, tmp_path, capsys, which, code, problem):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        sim = linear_model / "sim"
        argv = {
            "model": ["predict", "--model", str(nested), "--data", str(sim / "portfolio.csv"),
                      "--out", str(tmp_path / "p.csv")],
            "config": ["simulate", "--config", str(nested), "--out", str(tmp_path / "s")],
            "schema": ["train", "--data", str(sim / "portfolio.csv"), "--schema", str(nested),
                       "--out", str(tmp_path / "m")],
        }[which]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{problem} {nested}" in err and "Traceback" not in err


class TestChecksBeforeInput:
    """Exit-1 errors are found before any data or model file is read."""

    @pytest.fixture
    def bad_inputs(self, tmp_path):
        """A headerless CSV, a truncated model file, a valid schema and grid."""
        paths = {name: tmp_path / name for name in ("rows.csv", "model.json", "schema.json", "grid.json")}
        paths["rows.csv"].write_text("1.0,2.0\n", encoding="utf-8")
        paths["model.json"].write_text("{", encoding="utf-8")
        columns = [{"name": "x1", "kind": "continuous"}, {"name": "y", "kind": "response"}]
        paths["schema.json"].write_text(json.dumps({"columns": columns}), encoding="utf-8")
        paths["grid.json"].write_text(json.dumps({"cp": [0.001]}), encoding="utf-8")
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("command", ["train", "tune", "predict", "evaluate", "compare", "export-tree"])
    def test_existing_output_refused_before_malformed_input(self, bad_inputs, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("{}", encoding="utf-8")  # in every output directory
        csv, model, schema = bad_inputs["rows.csv"], bad_inputs["model.json"], bad_inputs["schema.json"]
        argv = {
            "train": ["--data", csv, "--schema", schema, "--out", str(out)],
            "tune": ["--data", csv, "--schema", schema, "--grid", bad_inputs["grid.json"], "--out", str(out)],
            "predict": ["--model", model, "--data", csv, "--out", str(out / "manifest.json")],
            "evaluate": ["--predictions", csv, "--actuals", csv, "--schema", schema,
                         "--out", str(out / "manifest.json")],
            "compare": ["--train", csv, "--test", csv, "--schema", schema, "--out", str(out)],
            "export-tree": ["--model", model, "--out", str(out / "manifest.json")],
        }[command]
        assert main([command, *argv]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, problem", [
        (["--no-baselines"], "need at least 2 models"),
        (["--maxdepth", "0"], "maxdepth must lie in"),
    ])
    def test_compare_settings_refused_before_malformed_input(
        self, bad_inputs, tmp_path, capsys, flags, problem
    ):
        csv = bad_inputs["rows.csv"]
        code = main([
            "compare", "--models", bad_inputs["model.json"], "--train", csv, "--test", csv,
            "--schema", bad_inputs["schema.json"], "--out", str(tmp_path / "cmp"), *flags,
        ])
        assert code == 1
        assert problem in capsys.readouterr().err

    def test_compare_settings_refused_without_baselines(self, bad_inputs, tmp_path, capsys):
        csv, model = bad_inputs["rows.csv"], bad_inputs["model.json"]
        code = main([
            "compare", "--models", model, model, "--no-baselines", "--train", csv, "--test", csv,
            "--schema", bad_inputs["schema.json"], "--out", str(tmp_path / "cmp"), "--maxdepth", "0",
        ])
        assert code == 1
        assert "maxdepth must lie in" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


class TestCompareAndExport:
    def test_compare_with_baselines(self, portfolio, trained, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare",
            "--models", str(trained / "model.json"),
            "--train", str(portfolio / "portfolio.csv"),
            "--test", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
            "--maxdepth", "3",
        ])
        assert code == 0
        csv_text = (out / "comparison.csv").read_text()
        assert len(csv_text.splitlines()) == 1 + 2 * 3  # header + 2 splits x 3 models
        svg = (out / "comparison.svg").read_text()
        assert svg.count("<rect") == 2 * 3 * 7

    def test_models_sharing_a_file_name_keep_their_own_rows(
        self, portfolio, trained, tmp_path, monkeypatch
    ):
        """Every trained model is a model.json: each is named by its path as given."""
        monkeypatch.chdir(tmp_path)
        shutil.copytree(trained, "ols")
        data = ["--data", str(portfolio / "portfolio.csv"), "--schema", str(portfolio / "schema.json")]
        assert main(["train", *data, "--out", "enet", "--maxdepth", "3", "--zero-threshold", "0.4",
                     "--glm-which", "0.5", "--glm-lambda", "0.3"]) == 0
        code = main([
            "compare", "--models", "ols/model.json", "enet/model.json", "--no-baselines",
            "--train", str(portfolio / "portfolio.csv"), "--test", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"), "--out", "cmp",
        ])
        assert code == 0
        with open("cmp/comparison.csv", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["split"] == "test"]
        assert [row["model"] for row in rows] == ["ols/model", "enet/model"]
        ds = load_csv(portfolio / "portfolio.csv", load_schema(portfolio / "schema.json"))
        for row in rows:
            own = compute_metrics(ds.response, predict_batch(load(row["model"] + ".json"), ds)[2])
            assert row["gini"] == repr(own.gini)
        assert rows[0]["gini"] != rows[1]["gini"]

    @pytest.mark.parametrize("models, name", [
        (["m.json", "m.json"], "m"),
        (["a/model.json", "a/model"], "a/model"),
        (["constant_mean.json"], "constant_mean"),  # a baseline's name
    ])
    def test_clashing_model_names_refused_before_reading(self, tmp_path, capsys, monkeypatch, models, name):
        monkeypatch.chdir(tmp_path)  # no input file exists
        code = main(["compare", "--models", *models, "--train", "absent.csv", "--test", "absent.csv",
                     "--schema", "absent.json", "--out", "cmp"])
        assert code == 1
        assert f"error: two models would both be named {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("flag", [
        "--zero-threshold 0.9", "--glm-which 0.3", "--glm-lambda 5", "--min-node-linear 3", "--severity-learner ols",
    ])
    def test_severity_flags_are_not_compare_options(self, portfolio, tmp_path, capsys, flag):
        """Only the mean-leaf tree baseline is fitted, so only tree settings shape an output."""
        code = main([
            "compare", "--train", str(portfolio / "portfolio.csv"), "--test", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"), "--out", str(tmp_path / "cmp"), *flag.split(),
        ])
        assert code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("key, value", [
        ("zero_threshold", 0.9), ("glm_which", 0.3), ("glm_lambda", 5), ("min_node_for_linear", 3),
        ("severity_learner", "ols"),
    ])
    def test_severity_config_keys_are_refused(self, portfolio, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"maxdepth": 3, key: value}), encoding="utf-8")
        code = main([
            "compare", "--config", str(cfg), "--train", str(portfolio / "portfolio.csv"),
            "--test", str(portfolio / "portfolio.csv"), "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: config file {cfg}: compare does not use [{key!r}]\n"
        assert not (tmp_path / "cmp").exists()

    def test_baseline_tree_settings_are_resolved_and_recorded(self, portfolio, trained, tmp_path):
        """Flag, else config key, else the hybrid's default; the manifest
        records them when the baselines run, and the mean-leaf tree row is
        that of a tree grown with them."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cp": 0.002, "maxdepth": 5, "seed": 4}), encoding="utf-8")
        data = ["--train", str(portfolio / "portfolio.csv"), "--test", str(portfolio / "portfolio.csv"),
                "--schema", str(portfolio / "schema.json")]
        assert main(["compare", "--config", str(cfg), *data, "--maxdepth", "3", "--out", str(tmp_path / "cmp")]) == 0
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        tree = {"cp": 0.002, "maxdepth": 3, "minsplit": 8, "impurity": "gini"}
        assert manifest["seed"] == 4
        assert manifest["resolved_config"]["baseline_tree_hyperparams"] == tree
        ds = load_csv(portfolio / "portfolio.csv", load_schema(portfolio / "schema.json"))
        own = compute_metrics(ds.response, mean_leaf_tree_learner(TreeHyperparams(**tree))(ds)(ds))
        with open(tmp_path / "cmp" / "comparison.csv", encoding="utf-8", newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["model"] == "mean_leaf_tree" and r["split"] == "test")
        assert row["gini"] == repr(own.gini)
        models = [str(trained / "model.json"), shutil.copy(trained / "model.json", tmp_path / "copy.json")]
        assert main(["compare", "--models", *map(str, models), "--no-baselines", *data,
                     "--out", str(tmp_path / "plain")]) == 0
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert "baseline_tree_hyperparams" not in manifest["resolved_config"]

    @pytest.mark.parametrize("flags", [["--maxdepth", "0"], ["--minsplit", "1"]])
    def test_tree_settings_validation(self, portfolio, tmp_path, flags):
        code = main([
            "compare",
            "--train", str(portfolio / "portfolio.csv"),
            "--test", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(tmp_path / "cmp"),
            *flags,
        ])
        assert code == 1

    def test_export_tree_dot_structure(self, trained, tmp_path):
        """Exported text satisfies a line-level DOT grammar."""
        import re

        out = tmp_path / "tree.dot"
        code = main(["export-tree", "--model", str(trained / "model.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert re.fullmatch(r'digraph "[^"]+" \{', lines[0])
        assert lines[-1] == "}"
        node_re = re.compile(r'\s+\d+ \[label="[^"]*"\];')
        edge_re = re.compile(r'\s+\d+ -> \d+ \[label="(yes|no)"\];')
        attr_re = re.compile(r"\s+node \[.*\];")
        for line in lines[1:-1]:
            assert node_re.fullmatch(line) or edge_re.fullmatch(line) or attr_re.fullmatch(line), line
        edges = [line for line in lines if "->" in line]
        assert len(edges) % 2 == 0 and edges

    def test_missing_model_file_is_data_error(self, tmp_path):
        code = main(["export-tree", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "t.dot")])
        assert code == 2


GINI_NOTE = "gini index: constant predictions, ordering falls back to input order"


# Poisson intercept 100: every claim rate exceeds the simulator's cap.
RATE_CAP_CONFIG = {"n": 20, "p_continuous": 1, "p_categorical": 0,
                   "beta_poisson": [100.0, 0.0], "beta_gamma": [0.0, 0.0]}


class TestLogLevel:
    """The constant-mean baseline of ``compare`` logs one warning per gini call,
    and the rate cap of ``simulate`` one warning per capped rate vector."""

    @pytest.fixture(autouse=True)
    def restore_package_logger(self):
        logger = logging.getLogger("claimtree")
        level, handlers = logger.level, list(logger.handlers)
        yield logger
        logger.setLevel(level)
        logger.handlers[:] = handlers

    def compare(self, portfolio, out, *flags):
        return main([
            "compare",
            "--train", str(portfolio / "portfolio.csv"),
            "--test", str(portfolio / "portfolio.csv"),
            "--schema", str(portfolio / "schema.json"),
            "--out", str(out),
            "--maxdepth", "3",
            *flags,
        ])

    def test_default_writes_warnings_as_bare_lines_once_each(
        self, portfolio, tmp_path, capsys, restore_package_logger
    ):
        assert self.compare(portfolio, tmp_path / "a") == 0
        first = capsys.readouterr().err.splitlines()
        assert self.compare(portfolio, tmp_path / "b") == 0
        second = capsys.readouterr().err.splitlines()
        assert GINI_NOTE in first
        assert first == second  # a second main call in the process adds no handler
        assert len(restore_package_logger.handlers) == 1

    def test_error_level_quiets_warnings(self, portfolio, tmp_path, capsys):
        assert self.compare(portfolio, tmp_path / "cmp", "--log-level", "error") == 0
        assert GINI_NOTE not in capsys.readouterr().err

    @pytest.mark.parametrize("flags, lines", [
        ([], ["claim rate overflow, capping at 1e12"]),
        (["--log-level", "error"], []),
    ])
    def test_simulator_rate_cap_is_one_bare_line(self, tmp_path, capsys, flags, lines):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(RATE_CAP_CONFIG), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), *flags]) == 0
        assert capsys.readouterr().err.splitlines() == lines

    def test_library_sends_no_python_warnings(self):
        """Library diagnostics go through logging, which --log-level governs."""
        calls = [
            f"{path.name}:{i}"
            for path in sorted(Path(claimtree.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "warnings.warn(" in line
        ]
        assert calls == []

    @pytest.mark.parametrize("level", LOG_LEVELS)
    def test_sets_the_package_logger_level(self, trained, tmp_path, level, restore_package_logger):
        out = tmp_path / "tree.dot"
        code = main(["export-tree", "--model", str(trained / "model.json"), "--out", str(out),
                     "--log-level", level])
        assert code == 0
        assert restore_package_logger.level == getattr(logging, level.upper())

    def test_unknown_level_is_validation_error(self, trained, tmp_path):
        code = main(["export-tree", "--model", str(trained / "model.json"),
                     "--out", str(tmp_path / "t.dot"), "--log-level", "loud"])
        assert code == 1


class TestParser:
    def test_unknown_command_is_validation_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["train", "--data", "x.csv"]) == 1


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (_glibc() and Path("/proc/self/maps").is_file()),
                    reason="glibc's malloc and /proc/self/maps")
def test_main_maps_each_large_table_on_its_own():
    # In a fresh process: once an 8 MB block is freed, glibc carves a 4.8 MB
    # table from the brk heap; after any command, the next such table that
    # the heap has no room for gets a mapping of its own.
    script = """if True:
        import numpy as np
        from claimtree.cli import main

        def in_heap(a):  # numpy's madvise can split the heap into several mappings
            spans = [[int(x, 16) for x in line.split()[0].split("-")]
                     for line in open("/proc/self/maps") if line.rstrip().endswith("[heap]")]
            return any(lo <= a.ctypes.data < hi for lo, hi in spans)

        big = np.ones(1 << 20)
        del big
        first = np.ones(600_000)
        print(in_heap(first))
        print(main(["frobnicate"]))
        second = np.ones(600_000)
        print(in_heap(second))
    """
    src = str(Path(claimtree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["True", "1", "False"]
