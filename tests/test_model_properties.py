"""Property tests of the fitted model and the metrics: single-row and batch
prediction agree, a save/load round trip predicts the same, and every
metric but the ordered Gini ignores row order."""

import functools
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree.data import Column, Dataset, feature_matrix  # noqa: E402
from claimtree.evaluate import MEASURES, compute_metrics  # noqa: E402
from claimtree.hybrid import HybridHyperparams, fit, load, predict, predict_batch, save  # noqa: E402

COLUMNS = (
    Column("x1", "continuous"),
    Column("x2", "continuous"),
    Column("region", "categorical", ("north", "south", "west")),
    Column("y", "response"),
)


def training_data(n: int = 400) -> Dataset:
    """Claims whose occurrence and size both follow x1 and the region."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, 2))
    region = rng.integers(0, 3, size=n)
    occurred = rng.uniform(size=n) < 0.5 + 0.3 * np.tanh(x[:, 0]) - 0.1 * (region == 2)
    size = np.exp(2.0 + 0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.4 * region + 0.1 * rng.normal(size=n))
    return Dataset(COLUMNS, np.column_stack([x, region, np.where(occurred, size, 0.0)]))


@functools.lru_cache(maxsize=None)
def fitted(maxdepth: int, learner: str):
    # Every terminal of enough rows with a claim majority is linear.
    hp = HybridHyperparams(
        cp=0.0, maxdepth=maxdepth, zero_threshold=1.0, min_node_for_linear=10,
        severity_learner=learner, glm_which=0.5, glm_lambda=0.01,
    )
    return fit(training_data(), hp, seed=1)


models = st.tuples(st.integers(1, 4), st.sampled_from(["ols", "elastic_net"]))
rows = st.lists(
    st.tuples(
        st.floats(-6.0, 6.0, allow_nan=False), st.floats(-6.0, 6.0, allow_nan=False), st.integers(0, 2),
    ),
    min_size=1,
    max_size=30,
)


def dataset_of(drawn_rows) -> Dataset:
    return Dataset(COLUMNS, np.array([[*row, 0.0] for row in drawn_rows], dtype=float))


@settings(max_examples=60, deadline=None)
@given(models, rows)
def test_single_row_predict_equals_batch(model_settings, drawn_rows):
    model = fitted(*model_settings)
    ds = dataset_of(drawn_rows)
    X, _ = feature_matrix(ds)
    _, _, batch = predict_batch(model, ds)
    single = np.array([predict(model, x) for x in X])
    np.testing.assert_allclose(single, batch, rtol=1e-9, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(models, rows)
def test_save_load_round_trip_predicts_identically(model_settings, drawn_rows):
    model = fitted(*model_settings)
    ds = dataset_of(drawn_rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save(model, path)
        again = load(path)
    for before, after in zip(predict_batch(model, ds), predict_batch(again, ds)):
        np.testing.assert_array_equal(before, after)


@st.composite
def scored_rows(draw):
    n = draw(st.integers(2, 40))
    values = st.floats(0.01, 1e3)  # zero is drawn on its own
    y = np.array(draw(st.lists(st.one_of(st.just(0.0), values), min_size=n, max_size=n)))
    yhat = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)))
    assume(np.ptp(y) > 1e-3)  # R^2 and the percentage errors are then defined
    return y, yhat, np.array(draw(st.permutations(range(n))))


@settings(max_examples=100, deadline=None)
@given(scored_rows())
def test_metrics_but_gini_ignore_row_order(case):
    y, yhat, perm = case
    before = compute_metrics(y, yhat)
    after = compute_metrics(y[perm], yhat[perm])
    for measure in MEASURES:
        if measure != "gini":
            assert after[measure] == pytest.approx(before[measure], rel=1e-9, abs=1e-12), measure
    assert after.n_used == before.n_used


@settings(max_examples=40, deadline=None)
@given(models, rows, st.data())
def test_permuted_batch_predicts_the_permuted_rows(model_settings, drawn_rows, data):
    """Routing is per row, so a permuted batch reaches the permuted
    terminals exactly. Each linear terminal's rows go through one matrix
    product whose summation order may follow a row's place in the batch,
    so values agree to rounding, not bit for bit."""
    model = fitted(*model_settings)
    ds = dataset_of(drawn_rows)
    perm = np.array(data.draw(st.permutations(range(ds.n))), dtype=np.intp)
    terminals, raw, clipped = predict_batch(model, ds)
    permuted = predict_batch(model, ds.subset(perm))
    np.testing.assert_array_equal(permuted[0], terminals[perm])
    np.testing.assert_allclose(permuted[1], raw[perm], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(permuted[2], clipped[perm], rtol=1e-12, atol=0.0)
