"""Validation measures, cross-validation and the comparison table."""

import contextlib
import logging
import os
from dataclasses import replace
from xml.etree import ElementTree

import numpy as np
import pytest

from claimtree import evaluate, hybrid
from claimtree.cart import TreeHyperparams, cp_to_alpha, grow, prune
from claimtree.data import Column, DataError, Dataset
from claimtree.evaluate import (
    UndefinedMetricError,
    ccc,
    comparison_svg,
    comparison_table,
    compute_metrics,
    constant_mean_learner,
    cv_table_csv,
    fold_indices,
    gini_index,
    grid_search,
    kfold_cv,
    mae,
    mean_leaf_tree_learner,
    mape,
    mpe,
    r_squared,
    rescale,
    rmse,
)
from claimtree.hybrid import HybridHyperparams, tree_reuse
from claimtree.simulate import SimConfig, simulate


def dataset_from_xy(x, y):
    cols = (Column("x", "continuous"), Column("y", "response"))
    return Dataset(cols, np.column_stack([np.asarray(x, float), np.asarray(y, float)]))


@pytest.fixture
def one_worker(monkeypatch):
    """Run every fold in the test's own process. A counter patched into
    hybrid sees only the folds of the process it lives in."""
    monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: 1)


class TestGiniIndex:
    def test_aligned_ordering(self):
        """y=(1,2,3) ranked by matching predictions: sum i*y = 14, gini = 1/3."""
        assert gini_index([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_reversed_ordering(self):
        assert gini_index([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_constant_predictions_warn_and_fall_back(self, caplog):
        with caplog.at_level(logging.WARNING, logger="claimtree.evaluate"):
            value = gini_index([1, 2, 3], [5, 5, 5])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert [rec.levelno for rec in caplog.records] == [logging.WARNING]
        assert "constant predictions" in caplog.records[0].message

    def test_all_zero_actuals_undefined(self):
        with pytest.raises(UndefinedMetricError):
            gini_index([0, 0, 0], [1, 2, 3])

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.uniform(0, 10, size=25)
            yhat = rng.permutation(np.arange(25, dtype=float) + 1)  # tie-free
            a = gini_index(y, yhat)
            b = gini_index(y, -yhat)
            assert a == pytest.approx(-b, abs=1e-10)


class TestPointMetrics:
    def test_identity_predictions(self):
        y = np.array([1.0, 2.0, 5.0])
        assert r_squared(y, y) == 1.0
        assert ccc(y, y) == pytest.approx(1.0)
        assert rmse(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert mape(y, y) == 0.0
        assert mpe(y, y) == 0.0

    def test_rmse_and_mae_worked_example(self):
        """y=(1,4), yhat=(1,2): RMSE = sqrt(2), MAE = 1."""
        assert rmse([1.0, 4.0], [1.0, 2.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert mae([1.0, 4.0], [1.0, 2.0]) == 1.0

    def test_constant_prediction_at_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        yhat = np.full(4, y.mean())
        assert r_squared(y, yhat) == pytest.approx(0.0, abs=1e-12)
        assert ccc(y, yhat) == 0.0

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.uniform(0, 5, 30)
            yhat = rng.uniform(0, 5, 30)
            assert rmse(y, yhat) >= mae(y, yhat) - 1e-15

    def test_percentage_errors_skip_zero_actuals(self):
        y = np.array([0.0, 2.0, 0.0, 4.0])
        yhat = np.array([1.0, 3.0, 7.0, 2.0])
        assert mape(y, yhat) == pytest.approx((0.5 + 0.5) / 2)
        assert mpe(y, yhat) == pytest.approx((0.5 - 0.5) / 2)

    def test_percentage_errors_undefined_on_all_zero(self):
        with pytest.raises(UndefinedMetricError):
            mape([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(UndefinedMetricError):
            mpe([0.0, 0.0], [1.0, 2.0])

    def test_short_inputs_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0])

    def test_ccc_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.uniform(0, 10, 40)
            yhat = rng.uniform(0, 10, 40)
            assert -1.0 <= ccc(y, yhat) <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.1, 9, 30)
        yhat = rng.uniform(0.1, 9, 30)
        perm = rng.permutation(30)
        before = compute_metrics(y, yhat)
        after = compute_metrics(y[perm], yhat[perm])
        for m in ("gini", "r2", "ccc", "rmse", "mae", "mape", "mpe"):
            assert before[m] == pytest.approx(after[m], abs=1e-12)

    def test_report_tracks_n_used(self):
        y = np.array([0.0, 1.0, 2.0, 0.0])
        rep = compute_metrics(y, np.array([0.5, 1.0, 2.0, 0.1]))
        assert rep.n_used["rmse"] == 4
        assert rep.n_used["mape"] == 2


class TestKFold:
    def test_leave_one_out_partition(self):
        folds = fold_indices(10, 10, seed=0)
        assert len(folds) == 10
        assert sorted(np.concatenate(folds).tolist()) == list(range(10))
        assert all(f.size == 1 for f in folds)

    def test_same_seed_same_folds(self):
        a = fold_indices(40, 5, seed=3)
        b = fold_indices(40, 5, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_constant_mean_learner_cv_rmse_near_sd(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 2.5, size=400).clip(min=0)
        ds = dataset_from_xy(rng.normal(size=400), y)
        cell = kfold_cv(ds, constant_mean_learner, k=10, seed=1)
        assert cell.valid
        assert cell.mean_rmse == pytest.approx(y.std(), rel=0.1)

    def test_cv_estimate_tightens_with_n(self):
        rng = np.random.default_rng(5)
        gaps = []
        for n in (200, 5_000):
            y = rng.normal(10, 3.0, size=n).clip(min=0)
            ds = dataset_from_xy(rng.normal(size=n), y)
            cell = kfold_cv(ds, constant_mean_learner, k=5, seed=0)
            gaps.append(abs(cell.mean_rmse - 3.0))
        assert gaps[1] < gaps[0]

    def test_failing_learner_marks_cell_invalid(self):
        def broken(ds_train):
            raise DataError("nope")

        ds = dataset_from_xy(np.arange(10.0), np.arange(10.0))
        cell = kfold_cv(ds, broken, k=5, seed=0)
        assert not cell.valid
        assert len(cell.failures) == 5


class TestGridSearch:
    @staticmethod
    def shift_learner(params):
        def learner(ds_train):
            mu = ds_train.response.mean() + params["shift"]
            return lambda ds: np.full(ds.n, mu)

        return learner

    def test_single_cell_wins(self):
        ds = dataset_from_xy(np.arange(20.0), np.linspace(0, 5, 20))
        result = grid_search(ds, {"shift": [0.0]}, k=4, seed=0, learner_factory=self.shift_learner)
        assert result.winner.params == {"shift": 0.0}

    def test_full_product_evaluated(self):
        ds = dataset_from_xy(np.arange(30.0), np.linspace(0, 5, 30))
        grid = {"shift": [0.0, 1.0], "other": ["a", "b"]}

        def factory(params):
            return self.shift_learner({"shift": params["shift"]})

        result = grid_search(ds, grid, k=3, seed=0, learner_factory=factory)
        assert len(result.cells) == 4

    def test_unbiased_shift_wins(self):
        rng = np.random.default_rng(6)
        ds = dataset_from_xy(rng.normal(size=200), rng.uniform(0, 10, 200))
        result = grid_search(
            ds, {"shift": [0.0, 5.0, -5.0]}, k=5, seed=0, learner_factory=self.shift_learner
        )
        assert result.winner.params == {"shift": 0.0}

    def test_dominated_cell_never_wins(self):
        rng = np.random.default_rng(7)
        ds = dataset_from_xy(rng.normal(size=100), rng.uniform(0, 10, 100))
        small = grid_search(ds, {"shift": [0.0, 1.0]}, k=5, seed=2, learner_factory=self.shift_learner)
        big = grid_search(
            ds, {"shift": [0.0, 1.0, 25.0]}, k=5, seed=2, learner_factory=self.shift_learner
        )
        assert big.winner.params == small.winner.params

    def test_tie_prefers_larger_cp_then_smaller_depth(self):
        ds = dataset_from_xy(np.arange(20.0), np.linspace(0, 5, 20))

        def factory(params):
            return self.shift_learner({"shift": 0.0})  # identical scores everywhere

        result = grid_search(
            ds,
            {"cp": [0.0001, 0.0002], "maxdepth": [10, 8]},
            k=4,
            seed=0,
            learner_factory=factory,
        )
        assert result.winner.params == {"cp": 0.0002, "maxdepth": 8}

    def test_all_failed_raises(self):
        def broken_factory(params):
            def learner(ds_train):
                raise ZeroDivisionError("nope")

            return learner

        ds = dataset_from_xy(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ValueError, match="every grid cell failed"):
            grid_search(ds, {"a": [1, 2]}, k=2, seed=0, learner_factory=broken_factory)

    def test_value_error_marks_only_its_fold_failed(self):
        def factory(params):
            def learner(ds_train):
                if params["shift"] == 0.0 and ds_train.n == 13:  # folds 0 and 1 hold out 5 rows
                    raise ValueError("too few rows")
                return lambda ds: np.full(ds.n, ds_train.response.mean() + params["shift"])

            return learner

        ds = dataset_from_xy(np.arange(18.0), np.linspace(0, 5, 18))
        result = grid_search(ds, {"shift": [0.0, 1.0]}, k=4, seed=0, learner_factory=factory)
        failing, clean = result.cells
        assert [f.split(":")[0] for f in failing.failures] == ["fold 0", "fold 1"]
        assert len(failing.fold_rmse) == 2 and not failing.valid
        assert clean.valid and result.winner is clean

    def test_programming_error_aborts_the_search(self):
        def factory(params):
            def learner(ds_train):
                return ds_train.no_such_attribute

            return learner

        ds = dataset_from_xy(np.arange(20.0), np.linspace(0, 5, 20))
        with pytest.raises(AttributeError, match="no_such_attribute"):
            grid_search(ds, {"shift": [0.0, 1.0]}, k=4, seed=0, learner_factory=factory)

    def test_rejected_later_cell_fails_before_any_fold_is_fitted(self):
        fitted = []

        def factory(params):
            if params["shift"] == 2.0:
                raise ValueError("bad cell")

            def learner(ds_train):
                fitted.append(params)
                return lambda ds: np.zeros(ds.n)

            return learner

        ds = dataset_from_xy(np.arange(20.0), np.linspace(0, 5, 20))
        with pytest.raises(ValueError, match="bad cell"):
            grid_search(ds, {"shift": [0.0, 2.0]}, k=4, seed=0, learner_factory=factory)
        assert fitted == []

    def test_table_csv_has_cell_rows(self):
        ds = dataset_from_xy(np.arange(20.0), np.linspace(0, 5, 20))
        result = grid_search(ds, {"shift": [0.0, 1.0]}, k=4, seed=0, learner_factory=self.shift_learner)
        text = cv_table_csv(result)
        assert text.count("\n") == 3  # header + 2 cells


class TestRescaling:
    def test_best_gets_100_worst_gets_0(self):
        scaled = rescale({"a": 1.0, "b": 3.0, "c": 2.0}, higher_better=True)
        assert scaled == {"a": 0.0, "b": 100.0, "c": 50.0}

    def test_lower_better_orientation(self):
        scaled = rescale({"a": 1.0, "b": 3.0}, higher_better=False)
        assert scaled == {"a": 100.0, "b": 0.0}

    def test_mpe_uses_absolute_value(self):
        scaled = rescale({"a": -0.1, "b": 0.5}, higher_better=False, by_abs=True)
        assert scaled["a"] == 100.0 and scaled["b"] == 0.0

    def test_tie_everyone_scores_100(self):
        scaled = rescale({"a": 2.0, "b": 2.0}, higher_better=True)
        assert scaled == {"a": 100.0, "b": 100.0}

    def test_idempotent(self):
        scaled = rescale({"a": 10.0, "b": 30.0, "c": 20.0}, higher_better=True)
        again = rescale(scaled, higher_better=True)
        assert again == scaled


class TestComparisonTable:
    def make_split(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=120)
        y = (2 * x + rng.normal(size=120) * 0.3 + 3).clip(min=0)
        ds = dataset_from_xy(x, y)
        return ds.subset(np.arange(80)), ds.subset(np.arange(80, 120))

    def test_dominant_model_scores_100_everywhere(self, caplog):
        train, test = self.make_split()

        def good(ds):
            return ds.response  # oracle predictions

        def bad(ds):
            return np.full(ds.n, 1e6)

        with caplog.at_level(logging.WARNING, logger="claimtree.evaluate"):
            table = comparison_table([("good", good), ("bad", bad)], train, test)
        assert any("constant predictions" in rec.message for rec in caplog.records)
        for split in ("train", "test"):
            for m in ("r2", "ccc", "rmse", "mae", "mape", "mpe"):
                assert table.rescaled[split][m]["good"] == 100.0

    def test_middle_model_linear_between(self):
        train, test = self.make_split(1)

        def shifted(delta):
            return lambda ds: ds.response + delta

        table = comparison_table(
            [("m0", shifted(0.0)), ("m1", shifted(1.0)), ("m2", shifted(2.0))], train, test
        )
        mid = table.rescaled["test"]["rmse"]["m1"]
        assert mid == pytest.approx(50.0, abs=1e-9)

    def test_two_models_required(self):
        train, test = self.make_split(2)
        with pytest.raises(ValueError, match="at least 2"):
            comparison_table([("only", lambda ds: ds.response)], train, test)

    def test_duplicate_model_names_rejected(self):
        """Results are keyed by name, so a repeated name would show one model's
        measures in both rows."""
        train, test = self.make_split(2)
        models = [("m", lambda ds: ds.response), ("m", lambda ds: ds.response + 1.0)]
        with pytest.raises(ValueError, match="model names must be distinct"):
            comparison_table(models, train, test)

    def test_csv_and_svg_render(self):
        train, test = self.make_split(3)
        table = comparison_table(
            [("a", lambda ds: ds.response), ("b", lambda ds: ds.response * 0.5 + 1)], train, test
        )
        text = table.to_csv()
        assert text.splitlines()[0].startswith("split,model,gini")
        assert len(text.splitlines()) == 5
        svg = comparison_svg(table)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 2 * 2 * 7  # splits x models x measures

    def test_svg_escapes_model_names(self):
        """Names holding XML's special characters still give a well-formed
        SVG, whose text shows them as given."""
        train, test = self.make_split(4)
        names = ["a&b", "c<d", "e>'f\""]
        table = comparison_table(
            [(name, lambda ds, k=k: ds.response * (1.0 + k)) for k, name in enumerate(names)], train, test
        )
        root = ElementTree.fromstring(comparison_svg(table))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        for name in names:
            assert texts.count(name) == 2  # one row per split
        assert texts.count("train") == texts.count("test") == 1


class TestMeanLeafTreeBaseline:
    def test_every_terminal_predicts_its_rows_training_mean(self):
        """Also the terminals where fewer than half the rows claim, which
        the hybrid sets to 0."""
        ds, fresh = (simulate(SimConfig(n=2000, seed=seed)).dataset for seed in (7, 8))
        hp = TreeHyperparams(cp=1e-4, maxdepth=8, minsplit=8)
        predict = mean_leaf_tree_learner(hp)(ds)
        full = grow(ds, hp)
        tree = prune(full, cp_to_alpha(full, hp.cp))
        means = []
        for j, tid in enumerate(tree.terminal_ids()):
            mean = ds.response[tree.dataset_slots(ds) == j].mean()
            assert (predict(ds)[tree.dataset_slots(ds) == j] == mean).all()
            assert (predict(fresh)[tree.dataset_slots(fresh) == j] == mean).all()
            means.append((tree.nodes[tid].beta_f, mean))
        assert any(beta_f == 0 and mean > 0 for beta_f, mean in means)


class TestGrowOncePerFold:
    """grid_search grows each fold's tree once and cuts every cell's tree from it."""

    @pytest.fixture(scope="class")
    def ds(self):
        return simulate(SimConfig(n=400, seed=3)).dataset

    @staticmethod
    def ols_factory(params):
        hp = HybridHyperparams(**{"severity_learner": "ols", **params})

        def learner(ds_train):
            model = hybrid.fit(ds_train, hp)
            return lambda ds: hybrid.predict_batch(model, ds)[2]

        return learner

    @staticmethod
    def count_grows(monkeypatch):
        calls = []

        def counting_grow(ds, hp):
            calls.append(hp)
            return grow(ds, hp)

        monkeypatch.setattr(hybrid, "grow", counting_grow)
        return calls

    def test_cells_equal_separate_kfold_runs(self, ds):
        grid = {"cp": [1e-4, 5e-3], "maxdepth": [6, 10, 8], "minsplit": [4, 20]}
        result = grid_search(ds, grid, k=3, seed=2, learner_factory=self.ols_factory)
        separate = [replace(kfold_cv(ds, self.ols_factory(c.params), k=3, seed=2), params=c.params)
                    for c in result.cells]
        assert [c.params["maxdepth"] for c in result.cells[:3]] == [6, 6, 10]  # grid order
        assert result.cells == separate

    @pytest.mark.usefixtures("one_worker")
    def test_grid_grows_once_per_fold(self, ds, monkeypatch):
        calls = self.count_grows(monkeypatch)
        grid = {"cp": [1e-4, 2e-4], "maxdepth": [8, 10]}
        grid_search(ds, grid, k=5, seed=1, learner_factory=self.ols_factory)
        assert [hp.maxdepth for hp in calls] == [10] * 5

    @pytest.mark.usefixtures("one_worker")
    def test_kfold_cv_grows_once_per_fold(self, ds, monkeypatch):
        calls = self.count_grows(monkeypatch)
        kfold_cv(ds, self.ols_factory({}), k=4, seed=0)
        assert len(calls) == 4

    def test_fits_outside_a_search_grow_every_time(self, ds, monkeypatch):
        calls = self.count_grows(monkeypatch)
        hp = HybridHyperparams(severity_learner="ols")
        first, second = hybrid.fit(ds, hp), hybrid.fit(ds, hp)
        assert len(calls) == 2
        assert hybrid.to_json(first) == hybrid.to_json(second)

    def test_reuse_needs_the_same_dataset_and_a_covering_tree(self, ds, monkeypatch):
        calls = self.count_grows(monkeypatch)
        copy = ds.subset(np.arange(ds.n))
        hp = HybridHyperparams(severity_learner="ols", maxdepth=6, minsplit=10)
        wanted = [hp, replace(hp, maxdepth=8), replace(hp, minsplit=4), replace(hp, cp=0.01)]
        expected = [hybrid.to_json(hybrid.fit(ds, h)) for h in wanted]
        del calls[:]
        with tree_reuse():
            got = [hybrid.to_json(hybrid.fit(ds, h)) for h in wanted]
            hybrid.fit(copy, hp)
        # a request the kept tree does not cover grows (and is kept), the cp
        # request reuses the kept tree, and an equal but distinct dataset grows
        assert [(h.maxdepth, h.minsplit) for h in calls] == [(6, 10), (8, 10), (6, 4), (6, 10)]
        assert got == expected
        hybrid.fit(ds, hp)  # the block has ended: nothing is kept
        assert len(calls) == 5

    @pytest.mark.usefixtures("one_worker")
    def test_fold_failure_in_one_cell_leaves_the_shared_tree_usable(self, ds, monkeypatch):
        calls = self.count_grows(monkeypatch)

        def factory(params):
            if params["maxdepth"] == 10:
                def broken(ds_train):
                    hybrid.fit(ds_train, HybridHyperparams(severity_learner="ols", maxdepth=10))
                    raise ValueError("scored nothing")
                return broken
            return self.ols_factory(params)

        result = grid_search(ds, {"maxdepth": [8, 10]}, k=3, seed=0, learner_factory=factory)
        assert len(calls) == 3
        assert [f.split(":")[0] for f in result.cells[1].failures] == ["fold 0", "fold 1", "fold 2"]
        alone = kfold_cv(ds, self.ols_factory({"maxdepth": 8}), k=3, seed=0)
        assert result.cells[0] == replace(alone, params={"maxdepth": 8})


class TestTreeReuseBlocks:
    """A tree_reuse block keeps its own record: a nested block leaves the
    outer one's tree as it was, and a block whose body raises releases its
    record."""

    HP = HybridHyperparams(severity_learner="ols", maxdepth=8)

    @pytest.fixture(scope="class")
    def ds(self):
        return simulate(SimConfig(n=400, seed=3)).dataset

    def test_an_inner_block_does_not_replace_the_outer_tree(self, ds, monkeypatch):
        calls = TestGrowOncePerFold.count_grows(monkeypatch)
        wanted = replace(self.HP, maxdepth=6, cp=0.003)
        expected = hybrid.to_json(hybrid.fit(ds, wanted))
        del calls[:]
        with tree_reuse():
            hybrid.fit(ds, self.HP)
            with tree_reuse():
                # the inner block starts empty, so it grows, and keeps a tree
                # too shallow for the outer block's next request
                hybrid.fit(ds, replace(self.HP, maxdepth=4))
            got = hybrid.to_json(hybrid.fit(ds, wanted))
        assert [hp.maxdepth for hp in calls] == [8, 4]  # the last fit cut the outer tree
        assert got == expected

    def test_a_block_that_raises_releases_its_record(self, ds, monkeypatch):
        calls = TestGrowOncePerFold.count_grows(monkeypatch)
        with pytest.raises(RuntimeError, match="body failed"):
            with tree_reuse():
                hybrid.fit(ds, self.HP)
                raise RuntimeError("body failed")
        hybrid.fit(ds, self.HP)
        assert len(calls) == 2


@pytest.mark.usefixtures("one_worker")
class TestFitTerminalsOncePerFold:
    """Within a grid_search fold, each terminal's severity model is made
    once and shared by every cell, and hybrid encodes only the rows its
    regressions read, never a whole table."""

    GRID = {"cp": [1e-4, 2e-4], "maxdepth": [8, 10]}

    @pytest.fixture(scope="class")
    def ds(self):
        return simulate(SimConfig(n=400, seed=3)).dataset

    @staticmethod
    def record(monkeypatch):
        """Events in call order: ("grow",) when a fold's tree is grown,
        ("node", terminal id, row count) per severity fit, ("encode",
        dataset, row count) per encoding of rows by hybrid, and ("fit",
        training set, model) per cell. hybrid encoding a whole table fails."""
        events = []
        grow_, fit_node, encode = hybrid.grow, hybrid._fit_node_model, hybrid.encoded_rows

        def counting_grow(ds, hp):
            events.append(("grow",))
            return grow_(ds, hp)

        def counting_fit_node(ds, rows, names, hp, seed, tid):
            events.append(("node", tid, rows.size))
            return fit_node(ds, rows, names, hp, seed, tid)

        def counting_encode(ds, rows):
            events.append(("encode", ds, len(rows)))
            return encode(ds, rows)

        def whole_table(ds):
            raise AssertionError("hybrid encoded a whole table")

        monkeypatch.setattr(hybrid, "grow", counting_grow)
        monkeypatch.setattr(hybrid, "_fit_node_model", counting_fit_node)
        monkeypatch.setattr(hybrid, "encoded_rows", counting_encode)
        monkeypatch.setattr(hybrid, "feature_matrix", whole_table)
        return events

    @staticmethod
    def factory(events):
        def make(params):
            hp = HybridHyperparams(**{"severity_learner": "ols", **params})

            def learner(ds_train):
                model = hybrid.fit(ds_train, hp)
                events.append(("fit", ds_train, model))
                return lambda ds: hybrid.predict_batch(model, ds)[2]

            return learner

        return make

    @staticmethod
    def folds(events):
        """The events of each fold: every fold starts by growing its tree."""
        starts = [i for i, e in enumerate(events) if e[0] == "grow"] + [len(events)]
        assert starts[0] == 0
        return [events[a + 1:b] for a, b in zip(starts, starts[1:])]

    def test_each_non_zero_terminal_is_fitted_once_per_fold(self, ds, monkeypatch):
        events = self.record(monkeypatch)
        grid_search(ds, self.GRID, k=5, seed=1, learner_factory=self.factory(events))
        folds = self.folds(events)
        assert len(folds) == 5
        per_cell = 0
        for fold in folds:
            fitted = [e[1] for e in fold if e[0] == "node"]
            models = [e[2] for e in fold if e[0] == "fit"]
            assert len(models) == 4
            non_zero = [{t for t, nm in m.node_models.items() if nm.kind != "zero"} for m in models]
            assert sorted(fitted) == sorted(set().union(*non_zero))
            per_cell += sum(map(len, non_zero))
        # cells share terminals: one fit per cell and terminal would be more
        assert sum(e[0] == "node" for e in events) < per_cell

    def test_training_set_is_encoded_once_per_fold(self, ds, monkeypatch):
        """Per fold, the training rows of each terminal given a regression are
        encoded once, right after its fit starts, and per cell the test rows
        that reach a linear terminal: far fewer rows than the tables hold."""
        events = self.record(monkeypatch)
        grid_search(ds, self.GRID, k=5, seed=1, learner_factory=self.factory(events))
        min_rows = HybridHyperparams().min_node_for_linear
        encoded_train = encoded_test = 0
        for fold, test_idx in zip(self.folds(events), fold_indices(ds.n, 5, 1)):
            fits = [e for e in fold if e[0] == "fit"]
            train, test = fits[0][1], ds.subset(test_idx)
            after_fit_starts = [b for a, b in zip(fold, fold[1:]) if a[0] == "node"]
            encoded = [e for e in fold if e[0] == "encode" and e[1] is train]
            assert encoded == [e for e in after_fit_starts if e[0] == "encode"]
            assert [e[2] for e in encoded] == [e[2] for e in fold if e[0] == "node" and e[2] >= min_rows]
            assert sum(e[2] for e in encoded) < train.n
            linear_rows = 0
            for _, _, model in fits:
                linear = [t for t, nm in model.node_models.items() if nm.kind == "linear"]
                linear_rows += int(np.isin(hybrid.predict_batch(model, test)[0], linear).sum())
            on_test = [e for e in fold if e[0] == "encode" and e[1] is not train]
            assert sum(e[2] for e in on_test) == linear_rows < len(fits) * test.n
            encoded_train += len(encoded)
            encoded_test += len(on_test)
        assert encoded_train > 0 and encoded_test > 0

    def test_zero_threshold_does_not_split_the_shared_fits(self, monkeypatch):
        """zero_threshold only decides which terminals are zero, so a grid over
        it fits each shared non-zero terminal once per fold: as many fits as
        the higher threshold's cell alone (whose non-zero terminals include
        the lower one's), where one fit per cell and terminal made 324."""
        ds = simulate(SimConfig(n=1000, seed=7)).dataset
        events = self.record(monkeypatch)

        def fits(grid):
            events.clear()
            grid_search(ds, grid, k=5, seed=1, learner_factory=self.factory(events))
            return sum(e[0] == "node" for e in events)

        assert fits({"zero_threshold": [0.25, 0.5]}) == fits({"zero_threshold": [0.5]}) == 173


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelFolds:
    """The folds run in forked workers, one per usable CPU up to k. Forced
    to one worker per fold, a search gives what one worker gives: the same
    cells, failures, winner, log records and exceptions, and leaves no
    child process behind."""

    @pytest.fixture(scope="class")
    def ds(self):
        return simulate(SimConfig(n=400, seed=3)).dataset

    @staticmethod
    def searches(monkeypatch, run):
        """``run()`` with one worker, then with one worker per fold."""
        out = []
        for workers in (lambda n_folds: 1, lambda n_folds: n_folds):
            monkeypatch.setattr(evaluate, "_fold_workers", workers)
            out.append(run())
            assert_no_child_left()
        return out

    @staticmethod
    def held_out(ds_train, n):
        """The rows a fold holds out, for a dataset whose response is its row number."""
        return sorted(set(range(n)) - set(ds_train.response.astype(int)))

    def test_table_winner_and_failures_match_one_worker(self, ds, monkeypatch):
        def factory(params):
            learner = TestGrowOncePerFold.ols_factory(params)
            if params["maxdepth"] != 10:
                return learner

            def failing_on_folds_1_and_2(ds_train):  # 3 folds of 400 rows: 134, 133, 133
                if ds_train.n == 267:
                    raise ValueError("too few rows")
                return learner(ds_train)

            return failing_on_folds_1_and_2

        grid = {"cp": [1e-4, 5e-3], "maxdepth": [6, 10]}
        serial, parallel = self.searches(
            monkeypatch, lambda: grid_search(ds, grid, k=3, seed=2, learner_factory=factory))
        assert [f.split(":")[0] for f in serial.cells[1].failures] == ["fold 1", "fold 2"]
        assert len(serial.cells[1].fold_rmse) == 1
        assert parallel.cells == serial.cells
        assert [c.failures for c in parallel.cells] == [c.failures for c in serial.cells]
        assert cv_table_csv(parallel) == cv_table_csv(serial)
        assert parallel.winner == serial.winner

    def test_lambda_min_cell_matches_one_worker(self, monkeypatch):
        ds = simulate(SimConfig(n=1000, seed=7)).dataset
        hp = HybridHyperparams(glm_which=0.5, glm_lambda="lambda.min")

        def factory(params):
            def learner(ds_train):
                model = hybrid.fit(ds_train, replace(hp, **params))
                return lambda d: hybrid.predict_batch(model, d)[2]

            return learner

        serial, parallel = self.searches(
            monkeypatch, lambda: grid_search(ds, {"maxdepth": [8]}, k=3, seed=1,
                                             learner_factory=factory))
        assert serial.cells[0].valid
        assert cv_table_csv(parallel) == cv_table_csv(serial)
        assert parallel.cells == serial.cells

    @pytest.mark.parametrize("raising", [(3,), (3, 1), (4, 0)])
    def test_lowest_raising_fold_raises_in_the_parent(self, monkeypatch, raising):
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))
        held = {tuple(fold): fi for fi, fold in enumerate(fold_indices(n, 5, 0))}

        def learner(ds_train):
            fi = held[tuple(self.held_out(ds_train, n))]
            if fi in raising:
                raise KeyError(f"fold {fi}")
            return lambda d: np.zeros(d.n)

        errors = []

        def run():
            with pytest.raises(KeyError) as info:
                kfold_cv(ds, learner, k=5, seed=0)
            errors.append(info.value)

        self.searches(monkeypatch, run)
        assert [e.args for e in errors] == [(f"fold {min(raising)}",)] * 2

    @pytest.mark.usefixtures("one_worker")
    def test_no_fold_after_the_raising_one_is_fitted(self):
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))
        folds = fold_indices(n, 5, 0)
        fitted = []

        def learner(ds_train):
            rows = self.held_out(ds_train, n)
            fitted.append(rows)
            if rows == folds[1].tolist():
                raise KeyError("fold 1")
            return lambda d: np.zeros(d.n)

        with pytest.raises(KeyError):
            kfold_cv(ds, learner, k=5, seed=0)
        assert fitted == [folds[0].tolist(), folds[1].tolist()]

    def test_an_exception_that_does_not_pickle_becomes_a_runtime_error(self, monkeypatch):
        class TwoPartError(Exception):
            def __init__(self, what, where):
                super().__init__(f"{what} in {where}")

        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))
        fold_0 = fold_indices(n, 5, 0)[0].tolist()

        def learner(ds_train):  # fold 0, run by the test's process, passes
            if self.held_out(ds_train, n) == fold_0:
                return lambda d: np.zeros(d.n)
            raise TwoPartError("bad fit", "a worker's fold")

        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: n_folds)
        with pytest.raises(RuntimeError, match="(?s)does not pickle.*TwoPartError: bad fit in"):
            kfold_cv(ds, learner, k=5, seed=0)
        assert_no_child_left()

    def test_log_records_arrive_in_fold_order(self, ds, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="claimtree")
        learner_log = logging.getLogger("claimtree.test_evaluate")
        n = 30
        small = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))

        def learner(ds_train):
            learner_log.info("holding out %s", self.held_out(ds_train, n)[:2])
            if 0 in self.held_out(ds_train, n):
                learner_log.warning("the fold with row 0")
            return lambda d: np.zeros(d.n)

        def records(run):
            caplog.clear()
            run()
            return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

        serial, parallel = self.searches(
            monkeypatch, lambda: records(lambda: kfold_cv(small, learner, k=4, seed=0)))
        expected = []
        for fold in fold_indices(n, 4, 0):
            expected.append(("claimtree.test_evaluate", logging.INFO,
                             f"holding out {fold[:2].tolist()}"))
            if 0 in fold:
                expected.append(("claimtree.test_evaluate", logging.WARNING, "the fold with row 0"))
        assert serial == parallel == expected

        # the library's own records: OLS fits that fall back to the node mean
        grid = {"cp": [1e-4], "maxdepth": [10]}
        serial, parallel = self.searches(monkeypatch, lambda: records(lambda: grid_search(
            ds, grid, k=5, seed=1, learner_factory=TestGrowOncePerFold.ols_factory)))
        assert any("rank-deficient" in message for _, _, message in serial)
        assert parallel == serial

    def test_records_whose_arguments_or_exception_do_not_pickle(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="claimtree")
        learner_log = logging.getLogger("claimtree.test_evaluate")
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))

        class Local:  # a local class does not pickle
            def __str__(self):
                return "a local object"

        def learner(ds_train):
            learner_log.info("argument: %s", Local())
            try:
                raise ZeroDivisionError("in a learner")
            except ZeroDivisionError:
                learner_log.exception("caught")
            return lambda d: np.zeros(d.n)

        def run():
            caplog.clear()
            kfold_cv(ds, learner, k=4, seed=0)
            return [r.getMessage() for r in caplog.records]

        serial, parallel = self.searches(monkeypatch, run)
        assert serial == parallel
        assert serial[::2] == ["argument: a local object"] * 4
        assert all(m.startswith("caught\nTraceback") and m.endswith("ZeroDivisionError: in a learner")
                   for m in serial[1::2])

    def test_records_up_to_the_raising_fold_are_kept(self, monkeypatch, caplog):
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))
        folds = fold_indices(n, 5, 0)
        learner_log = logging.getLogger("claimtree.test_evaluate")

        def learner(ds_train):
            rows = self.held_out(ds_train, n)
            learner_log.warning("fold starting at row %d", rows[0])
            if rows == folds[2].tolist():
                raise KeyError("fold 2")
            return lambda d: np.zeros(d.n)

        def run():
            caplog.clear()
            with pytest.raises(KeyError):
                kfold_cv(ds, learner, k=5, seed=0)
            return [r.getMessage() for r in caplog.records]

        serial, parallel = self.searches(monkeypatch, run)
        assert serial == parallel == [f"fold starting at row {f[0]}" for f in folds[:3]]

    @pytest.mark.usefixtures("one_worker")
    def test_a_handler_below_the_package_logger_sees_each_record_once(self):
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))
        seen = []
        handler = logging.Handler()
        handler.emit = seen.append
        learner_log = logging.getLogger("claimtree.test_evaluate")
        learner_log.addHandler(handler)

        def learner(ds_train):
            learner_log.warning("fold starting at row %d", self.held_out(ds_train, n)[0])
            return lambda d: np.zeros(d.n)

        try:
            kfold_cv(ds, learner, k=5, seed=0)
        finally:
            learner_log.removeHandler(handler)
        assert [r.getMessage() for r in seen] == [
            f"fold starting at row {f[0]}" for f in fold_indices(n, 5, 0)]

    def test_what_a_learner_prints_in_a_worker_is_written_out(self, monkeypatch, tmp_path):
        n = 20
        ds = dataset_from_xy(np.arange(float(n)), np.arange(float(n)))

        def learner(ds_train):
            print("fold starting at row", self.held_out(ds_train, n)[0])
            return lambda d: np.zeros(d.n)

        monkeypatch.setattr(evaluate, "_fold_workers", lambda n_folds: n_folds)
        path = tmp_path / "out.txt"
        with open(path, "w") as out, contextlib.redirect_stdout(out):  # block-buffered
            kfold_cv(ds, learner, k=5, seed=0)
        assert_no_child_left()
        assert sorted(path.read_text().splitlines()) == sorted(
            f"fold starting at row {f[0]}" for f in fold_indices(n, 5, 0))

    def test_worker_count_follows_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [evaluate._fold_workers(k) for k in (2, 3, 10)] == [2, 3, 3]
        monkeypatch.delattr(os, "fork")
        assert evaluate._fold_workers(10) == 1
