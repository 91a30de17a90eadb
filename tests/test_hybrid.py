"""Hybrid model: node-model assignment rules, the piecewise predictor,
serialization and the coefficient report."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from claimtree.cart import Tree, TreeHyperparams, TreeNode, to_dot, variable_importance
from claimtree.data import Column, Dataset, feature_matrix, nonconstant_columns
from claimtree.elastic_net import LinearFit, RankDeficiencyError, fit_ols
from claimtree.hybrid import (
    HybridHyperparams,
    HybridModel,
    ModelLoadError,
    NodeModel,
    coefficient_report,
    fit,
    format_coefficient_table,
    load,
    predict,
    predict_batch,
    save,
    to_json,
    tree_reuse,
)
from claimtree.simulate import SimConfig, simulate


def claims_dataset(rng, n=600, zero_share=0.45, p=3):
    """Mixed portfolio with a zero point mass and feature-driven severity."""
    X = rng.normal(size=(n, p))
    occurred = rng.uniform(size=n) > zero_share + 0.2 * np.tanh(X[:, 0])
    amount = np.exp(3.0 + 0.8 * X[:, 0] + 0.3 * X[:, 1] + 0.2 * rng.normal(size=n))
    y = np.where(occurred, amount, 0.0)
    cols = tuple([Column(f"f{j}", "continuous") for j in range(p)] + [Column("y", "response")])
    return Dataset(cols, np.column_stack([X, y]))


def manual_linear_model():
    """Root-only model with the coefficient set used in the worked example."""
    names = ["CoverageBC", "lnDeductBC", "NoClaimCreditBC"]
    tree = Tree(
        nodes={1: TreeNode(id=1, n_node=100, n_positive=80)},
        feature_names=names,
        hyperparams=TreeHyperparams(),
    )
    lf = LinearFit(
        intercept=-172854.0,
        coefficients=np.array([15251.0, 16777.0, -16254.0]),
        feature_names=names,
    )
    schema = tuple([Column(n, "continuous") for n in names] + [Column("ClaimBC", "response")])
    return HybridModel(
        tree=tree,
        node_models={1: NodeModel(kind="linear", fit=lf, feature_idx=np.array([0, 1, 2]))},
        hyperparams=HybridHyperparams(),
        schema=schema,
    )


class TestHyperparams:
    def test_zero_threshold_range(self):
        with pytest.raises(ValueError):
            HybridHyperparams(zero_threshold=1.01)
        with pytest.raises(ValueError):
            HybridHyperparams(zero_threshold=-0.01)

    def test_learner_name_checked(self):
        with pytest.raises(ValueError):
            HybridHyperparams(severity_learner="xgboost")

    def test_glm_pair_validated(self):
        with pytest.raises(ValueError):
            HybridHyperparams(glm_which=2.0)
        with pytest.raises(ValueError):
            HybridHyperparams(glm_lambda=-1.0)

    @pytest.mark.parametrize(
        "bad", [{"cp": -1.0}, {"maxdepth": 0}, {"maxdepth": 31}, {"minsplit": 1}]
    )
    def test_tree_settings_validated(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            HybridHyperparams(**bad)

    @pytest.mark.parametrize(
        "bad",
        [{"maxdepth": 3.5}, {"maxdepth": True}, {"minsplit": 8.0},
         {"min_node_for_linear": 40.0}, {"min_node_for_linear": False}],
    )
    def test_sizes_must_be_integers(self, bad):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            HybridHyperparams(**bad)

    def test_depth_30_tree_fits_and_predicts(self):
        # A 1-in-3 pattern along one feature peels off one row per split;
        # unbounded depth used to overflow the int64 heap node ids.
        x = np.arange(400.0)
        y = np.where(np.arange(400) % 3 == 0, 10.0, 0.0)
        ds = Dataset((Column("x", "continuous"), Column("y", "response")), np.column_stack([x, y]))
        model = fit(ds, HybridHyperparams(maxdepth=30, minsplit=2, severity_learner="ols"))
        assert model.tree.depth() == 30
        assert max(model.tree.nodes) < 2**31
        terminal_of, _, clipped = predict_batch(model, ds)
        assert set(terminal_of) <= set(model.tree.terminal_ids())
        assert [predict(model, [v]) for v in x[:30]] == list(clipped[:30])


class TestNodeModelAssignment:
    def test_zero_threshold_zero_means_any_zero_claims_zero_node(self):
        ds = claims_dataset(np.random.default_rng(0))
        hp = HybridHyperparams(cp=0.001, maxdepth=3, zero_threshold=0.0,
                               severity_learner="ols", glm_lambda=0.1)
        model = fit(ds, hp)
        for s in model.terminal_summaries:
            if s.zero_fraction > 0.0 or s.beta_f == 0:
                assert s.model_kind == "zero"
            else:
                assert s.model_kind in ("mean", "linear")

    def test_all_positive_single_terminal_is_plain_regression(self):
        rng = np.random.default_rng(1)
        n = 1000
        X = rng.normal(size=(n, 2))
        y = 50.0 + 3.0 * X[:, 0] - 2.0 * X[:, 1] + rng.normal(size=n)
        cols = (Column("a", "continuous"), Column("b", "continuous"), Column("y", "response"))
        ds = Dataset(cols, np.column_stack([X, y - y.min() + 1.0]))
        hp = HybridHyperparams(maxdepth=4, zero_threshold=0.25, severity_learner="ols")
        model = fit(ds, hp)
        assert model.tree.terminal_ids() == [1]
        assert model.node_models[1].kind == "linear"
        from claimtree.elastic_net import fit_ols

        direct = fit_ols(X, ds.response)
        np.testing.assert_allclose(
            model.node_models[1].fit.coefficients, direct.coefficients, atol=1e-9
        )

    def test_small_node_falls_back_to_mean(self):
        rng = np.random.default_rng(2)
        ds = claims_dataset(rng, n=60)
        hp = HybridHyperparams(cp=0.0, maxdepth=2, zero_threshold=1.0,
                               min_node_for_linear=1000, severity_learner="ols")
        model = fit(ds, hp)
        kinds = {s.model_kind for s in model.terminal_summaries if s.beta_f == 1}
        assert kinds <= {"mean"}

    def test_majority_zero_node_gated_even_below_threshold(self):
        """beta_f = 0 wins over a permissive zero threshold."""
        rng = np.random.default_rng(3)
        n = 200
        X = rng.normal(size=(n, 1))
        y = np.where(rng.uniform(size=n) < 0.6, 0.0, 5.0)  # 60% zeros
        ds = Dataset((Column("x", "continuous"), Column("y", "response")),
                     np.column_stack([X, y]))
        hp = HybridHyperparams(cp=0.0, maxdepth=1, zero_threshold=0.9,
                               severity_learner="ols")
        model = fit(ds, hp)
        root_summary = [s for s in model.terminal_summaries if s.node_id == 1]
        if root_summary:  # tree may split; every majority-zero terminal must gate
            assert root_summary[0].model_kind == "zero"
        for s in model.terminal_summaries:
            if s.beta_f == 0:
                assert s.model_kind == "zero"

    def test_rank_deficient_ols_falls_back_to_mean(self, caplog):
        rng = np.random.default_rng(4)
        n = 120
        x = rng.normal(size=n)
        X = np.column_stack([x, x])  # duplicated information
        y = (np.abs(x) + 1.0) * 10
        cols = (Column("a", "continuous"), Column("b", "continuous"), Column("y", "response"))
        ds = Dataset(cols, np.column_stack([X, y]))
        hp = HybridHyperparams(cp=0.0, maxdepth=1, zero_threshold=0.25, severity_learner="ols")
        with caplog.at_level(logging.WARNING, logger="claimtree.hybrid"):
            model = fit(ds, hp)
        assert any(s.model_kind == "mean" for s in model.terminal_summaries)
        assert any("rank-deficient" in rec.message for rec in caplog.records)

    def test_typical_configuration_runs(self):
        ds = claims_dataset(np.random.default_rng(5), n=800)
        hp = HybridHyperparams(cp=0.0001, maxdepth=8, zero_threshold=0.25,
                               severity_learner="ols")
        model = fit(ds, hp)
        assert len(model.terminal_summaries) == len(model.tree.terminal_ids())
        kinds = {s.model_kind for s in model.terminal_summaries}
        assert kinds <= {"zero", "mean", "linear"}


def reference_terminals(model, ds):
    """Each terminal's zero share and kind, from its own rows one terminal at
    a time: a terminal is zero by the majority gate or the zero rule, the
    mean when it is small, constant or rank deficient under OLS, and linear
    otherwise."""
    hp = model.hyperparams
    X, _ = feature_matrix(ds)
    node = model.tree.classify_batch(X)
    out = {}
    for tid in model.tree.terminal_ids():
        rows = node == tid
        y_node = ds.response[rows]
        share = float((y_node == 0.0).mean())
        active = nonconstant_columns(X[rows])
        if model.tree.nodes[tid].beta_f == 0 or share > hp.zero_threshold:
            kind = "zero"
        elif y_node.size < hp.min_node_for_linear or not active.any():
            kind = "mean"
        elif hp.severity_learner == "ols":
            try:
                fit_ols(X[rows][:, active], y_node)
                kind = "linear"
            except RankDeficiencyError:
                kind = "mean"
        else:
            kind = "linear"
        out[tid] = (share, kind)
    return out


class TestSeverityStage:
    """fit decides zero terminals from per-terminal counts, and a tree_reuse
    block shares a terminal's severity model only between fits that agree on
    every setting outside the tree and on the seed."""

    BASE = HybridHyperparams(zero_threshold=0.6, glm_lambda="lambda.min", severity_learner="elastic_net")

    @pytest.fixture(scope="class")
    def ds(self):
        return claims_dataset(np.random.default_rng(5), n=800)

    @pytest.mark.parametrize("source", ["claims", "portfolio"])
    @pytest.mark.parametrize("zero_threshold", [0.0, 0.25, 1.0])
    def test_zero_shares_and_kinds_match_a_per_terminal_loop(self, ds, source, zero_threshold):
        if source == "portfolio":
            ds = simulate(SimConfig(n=400, seed=3)).dataset
        model = fit(ds, HybridHyperparams(zero_threshold=zero_threshold, severity_learner="ols"))
        expected = reference_terminals(model, ds)
        got = {tid: (model.zero_fractions[tid], nm.kind) for tid, nm in model.node_models.items()}
        assert got == expected  # exact float equality: the shares keep their bits

    @pytest.mark.parametrize("change", [
        {"zero_threshold": 0.25},
        {"min_node_for_linear": 1000},
        {"severity_learner": "ols"},
        {"glm_which": 0.5},
        {"glm_lambda": 0.3},
        {"seed": 4},
    ], ids=lambda change: next(iter(change)))
    def test_a_fit_after_one_that_differs_matches_a_fit_outside_any_block(self, ds, change):
        seed = change.get("seed", 0)
        other = replace(self.BASE, **{k: v for k, v in change.items() if k != "seed"})
        expected = to_json(fit(ds, self.BASE))
        with tree_reuse():
            fit(ds, other, seed=seed)
            shared = to_json(fit(ds, self.BASE))
        assert shared == expected

    def test_a_repeated_fit_in_a_block_matches_a_fit_outside_any_block(self, ds):
        hp = replace(self.BASE, cp=0.003)
        expected = to_json(fit(ds, hp))
        with tree_reuse():
            first = fit(ds, self.BASE)
            again = fit(ds, hp)
        assert to_json(again) == expected
        # the cp cut keeps some of the first fit's linear terminals, whose models it reuses
        linear = [t for t, nm in first.node_models.items() if nm.kind == "linear" and t in again.node_models]
        assert linear and all(again.node_models[t] is first.node_models[t] for t in linear)


class TestPredict:
    def test_zero_terminal_predicts_zero(self):
        model = manual_linear_model()
        model.node_models[1] = NodeModel(kind="zero")
        assert predict(model, np.array([4.0, 10.0, 0.0])) == 0.0

    def test_mean_terminal_returns_stored_mean(self):
        model = manual_linear_model()
        model.node_models[1] = NodeModel(kind="mean", value=13500.0)
        assert predict(model, np.array([4.0, 10.0, 0.0])) == 13500.0

    def test_linear_terminal_worked_coefficients(self):
        """Intercept -172854 + 4*15251 + 10*16777 + 0*(-16254) = 55920."""
        model = manual_linear_model()
        assert predict(model, np.array([4.0, 10.0, 0.0])) == 55920.0

    def test_negative_linear_output_clips_to_zero_but_raw_survives(self):
        model = manual_linear_model()
        x = np.array([0.0, 0.0, 0.0])  # intercept only: -172854
        assert predict(model, x) == 0.0
        ds = Dataset(model.schema, np.array([[0.0, 0.0, 0.0, 0.0]]))
        _, raw, clipped = predict_batch(model, ds)
        assert raw[0] == -172854.0
        assert clipped[0] == 0.0

    def test_beta_f_zero_gates_prediction(self):
        # fit applies the gate once: a majority no-claim terminal gets the
        # zero model even where the zero-share rule (threshold 1) never fires
        x = np.linspace(0.0, 10.0, 100)
        y = np.where(np.arange(100) % 5 < 3, 0.0, 1000.0 + 50.0 * x)
        ds = Dataset((Column("x", "continuous"), Column("y", "response")), np.column_stack([x, y]))
        hp = HybridHyperparams(cp=1.0, zero_threshold=1.0, min_node_for_linear=2, severity_learner="ols")
        model = fit(ds, hp)
        assert model.tree.terminal_ids() == [1] and model.tree.nodes[1].beta_f == 0
        assert model.node_models[1].kind == "zero"
        assert predict(model, np.array([9.0])) == 0.0
        assert not predict_batch(model, ds)[1].any()


class TestPredictBatch:
    def make_fitted(self, seed=6):
        ds = claims_dataset(np.random.default_rng(seed))
        hp = HybridHyperparams(cp=0.001, maxdepth=3, zero_threshold=0.4,
                               severity_learner="ols")
        return fit(ds, hp), ds

    def test_batch_of_one_equals_predict(self):
        model, ds = self.make_fitted()
        row = ds.subset(np.array([5]))
        _, _, clipped = predict_batch(model, row)
        single = predict(model, ds.values[5, :-1])
        assert clipped[0] == single

    def test_permutation_equivariance(self):
        model, ds = self.make_fitted(7)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        _, _, base = predict_batch(model, ds)
        _, _, shuffled = predict_batch(model, ds.subset(perm))
        # equal up to BLAS summation order, which varies with batch shape
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12, atol=1e-12)

    def test_terminal_histogram_matches_classify(self):
        model, ds = self.make_fitted(8)
        X, _ = feature_matrix(ds)
        tids, _, _ = predict_batch(model, ds)
        direct = model.tree.classify_batch(X)
        np.testing.assert_array_equal(tids, direct)
        assert tids.shape[0] == ds.n
        # ds is the training set: fit's rows per terminal are the grown counts
        terminals = model.tree.terminal_ids()
        counts = np.bincount(model.tree.terminal_slots(X), minlength=len(terminals))
        assert counts.tolist() == [model.tree.nodes[t].n_node for t in terminals]

    def test_schema_mismatch_rejected(self):
        model, _ = self.make_fitted(9)
        wrong = Dataset(
            (Column("other", "continuous"), Column("y", "response")), np.array([[1.0, 0.0]])
        )
        with pytest.raises(ValueError, match="features do not match"):
            predict_batch(model, wrong)


class TestSingleRowAgainstBatch:
    def test_every_terminal_kind(self, tmp_path):
        """predict equals predict_batch bit for bit on zero and mean terminals
        and within 1e-9 on linear ones (different summation order), on a
        seed-7 OLS model and on the same model loaded back."""
        model = fit(simulate(SimConfig(n=3000, seed=7)).dataset, HybridHyperparams(severity_learner="ols"))
        ds = simulate(SimConfig(n=3000, seed=8)).dataset
        X, _ = feature_matrix(ds)
        tids, raw, clipped = predict_batch(model, ds)
        kinds = np.array([model.node_models[t].kind for t in tids])
        assert set(kinds) == {"zero", "mean", "linear"}
        single = np.array([predict(model, x) for x in X])
        exact = kinds != "linear"
        np.testing.assert_array_equal(single[exact], clipped[exact])
        np.testing.assert_allclose(single[~exact], clipped[~exact], rtol=1e-9, atol=1e-9)
        assert [model.tree.classify(x) for x in X] == tids.tolist()

        save(model, tmp_path / "model.json")
        back = load(tmp_path / "model.json")
        back_tids, back_raw, _ = predict_batch(back, ds)
        np.testing.assert_array_equal(back_tids, tids)
        np.testing.assert_array_equal(back_raw, raw)
        assert [predict(back, x) for x in X] == single.tolist()


class TestSerialization:
    def fitted_elastic(self, seed=10):
        ds = claims_dataset(np.random.default_rng(seed), n=500)
        hp = HybridHyperparams(cp=0.001, maxdepth=3, zero_threshold=0.4,
                               severity_learner="elastic_net", glm_which=0.5, glm_lambda=1.0)
        return fit(ds, hp), ds

    def test_round_trip_predictions_identical(self, tmp_path):
        model, ds = self.fitted_elastic()
        path = tmp_path / "model.json"
        save(model, path)
        back = load(path)
        rng = np.random.default_rng(1)
        fresh = claims_dataset(rng, n=100)
        _, raw_a, clip_a = predict_batch(model, fresh)
        _, raw_b, clip_b = predict_batch(back, fresh)
        np.testing.assert_array_equal(raw_a, raw_b)
        np.testing.assert_array_equal(clip_a, clip_b)

    def test_round_trip_keeps_terminal_summaries(self, tmp_path):
        model, _ = self.fitted_elastic()
        path = tmp_path / "model.json"
        save(model, path)
        back = load(path)
        assert back.zero_fractions == model.zero_fractions
        assert back.terminal_summaries == model.terminal_summaries
        stored = json.loads(path.read_text())["terminal_summaries"]
        assert [s["node_id"] for s in stored] == model.tree.terminal_ids()

    def test_round_trip_keeps_node_order_and_importance(self, tmp_path):
        # variable_importance sums gains in node order, so a loaded tree
        # must list its nodes in the fitted (pre-order) order
        ds = simulate(SimConfig(n=1000, seed=0)).dataset
        model = fit(ds, HybridHyperparams(cp=0.0, severity_learner="ols"))
        path = tmp_path / "model.json"
        save(model, path)
        back = load(path)
        assert list(back.tree.nodes) == list(model.tree.nodes)
        assert variable_importance(back.tree) == variable_importance(model.tree)

    def test_model_deeper_than_30_rejected(self, tmp_path):
        model, _ = self.fitted_elastic()
        path = tmp_path / "model.json"
        save(model, path)
        payload = json.loads(path.read_text())
        payload["hyperparams"]["maxdepth"] = 31
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelLoadError, match="maxdepth"):
            load(path)

    @pytest.mark.parametrize("edit", ["drop node model", "drop summary", "extra node model"])
    def test_node_models_must_cover_the_terminals(self, tmp_path, edit):
        model, _ = self.fitted_elastic()
        path = tmp_path / "model.json"
        save(model, path)
        payload = json.loads(path.read_text())
        linear = next(t for t, nm in model.node_models.items() if nm.kind == "linear")
        if edit == "drop node model":
            del payload["node_models"][str(linear)]
        elif edit == "drop summary":
            payload["terminal_summaries"].pop()
        else:
            payload["node_models"]["1"] = {"kind": "zero"}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelLoadError, match="cover exactly the tree's terminals"):
            load(path)

    @pytest.mark.parametrize("edit, problem", [
        ({"categories": "ab"}, "categories must be a list of labels"),
        ({"kind": "ordinal"}, "unknown kind 'ordinal'"),
        ({"kind": "categorical", "categories": [1, 2]}, "categories must be a list of labels"),
    ])
    def test_malformed_schema_entry_rejected(self, tmp_path, edit, problem):
        model, _ = self.fitted_elastic()
        path = tmp_path / "model.json"
        save(model, path)
        payload = json.loads(path.read_text())
        payload["schema"][0].update(edit)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelLoadError, match=f"malformed model file .*: column '.*': {problem}"):
            load(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = self.fitted_elastic(11)
        path = tmp_path / "model.json"
        save(model, path)
        path.write_text(path.read_text()[: 200], encoding="utf-8")
        with pytest.raises(ModelLoadError):
            load(path)

    def test_future_version_rejected(self, tmp_path):
        model, _ = self.fitted_elastic(12)
        path = tmp_path / "model.json"
        save(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelLoadError, match="version"):
            load(path)

    def test_fit_is_deterministic(self):
        dsa = claims_dataset(np.random.default_rng(13))
        dsb = claims_dataset(np.random.default_rng(13))
        hp = HybridHyperparams(cp=0.001, maxdepth=3, zero_threshold=0.4,
                               severity_learner="elastic_net", glm_which=0.5,
                               glm_lambda="lambda.min")
        a = to_json(fit(dsa, hp, seed=5))
        b = to_json(fit(dsb, hp, seed=5))
        assert a == b


class TestCoefficientReport:
    def test_all_zero_terminals_empty_report(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(100, 2))
        cols = (Column("a", "continuous"), Column("b", "continuous"), Column("y", "response"))
        ds = Dataset(cols, np.column_stack([X, np.zeros(100)]))
        model = fit(ds, HybridHyperparams(zero_threshold=0.5))
        assert coefficient_report(model) == {}

    def test_single_linear_terminal_three_features(self):
        model = manual_linear_model()
        report = coefficient_report(model)
        assert set(report) == {1}
        assert report[1]["(Intercept)"] == -172854.0
        assert len(report[1]) == 4

    def test_heavy_penalty_blanks_shrunk_features(self):
        rng = np.random.default_rng(15)
        n = 300
        X = rng.normal(size=(n, 3))
        y = 20.0 + 5.0 * X[:, 0] + rng.normal(size=n) * 0.1
        cols = tuple([Column(f"f{j}", "continuous") for j in range(3)] + [Column("y", "response")])
        ds = Dataset(cols, np.column_stack([X, y - y.min() + 1]))
        hp = HybridHyperparams(maxdepth=1, zero_threshold=0.25,
                               severity_learner="elastic_net", glm_which=1.0, glm_lambda=3.0)
        model = fit(ds, hp)
        report = coefficient_report(model)
        (entry,) = report.values()
        assert "f1" not in entry and "f2" not in entry
        table = format_coefficient_table(model)
        assert "f1" not in table

    def test_mean_terminal_reports_intercept_only(self):
        model = manual_linear_model()
        model.node_models[1] = NodeModel(kind="mean", value=777.0)
        report = coefficient_report(model)
        assert report[1] == {"(Intercept)": 777.0}


class TestInvariants:
    def test_partition_totality_and_zero_rule(self):
        port = simulate(SimConfig(n=1500, seed=20))
        ds = port.dataset
        hp = HybridHyperparams(cp=0.001, maxdepth=4, zero_threshold=0.25,
                               severity_learner="ols")
        model = fit(ds, hp)
        tids, raw, clipped = predict_batch(model, ds)
        terminals = set(model.tree.terminal_ids())
        assert set(np.unique(tids)) <= terminals
        assert (clipped >= 0).all()
        by_node = {s.node_id: s for s in model.terminal_summaries}
        for tid in terminals:
            mask = tids == tid
            if by_node[tid].zero_fraction > hp.zero_threshold:
                np.testing.assert_array_equal(clipped[mask], 0.0)

    def test_piecewise_affine_in_continuous_features(self):
        model = manual_linear_model()
        grid = np.linspace(0.0, 20.0, 41)
        rows = np.column_stack([grid, np.full(41, 10.0), np.zeros(41)])
        ds = Dataset(model.schema, np.column_stack([rows, np.zeros(41)]))
        _, raw, _ = predict_batch(model, ds)
        second = np.diff(raw, n=2)
        assert np.abs(second).max() < 1e-9

    def test_export_tree_dot(self):
        ds = claims_dataset(np.random.default_rng(21))
        model = fit(ds, HybridHyperparams(cp=0.001, maxdepth=2, severity_learner="ols"))
        dot = to_dot(model.tree)
        assert dot.startswith("digraph")
