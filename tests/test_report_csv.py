"""Every report CSV reads back through csv.reader as the cells it was built from,
also when a label, model name or grid value holds a comma or a quote."""

import csv
import io

import numpy as np

from claimtree.data import Column, Dataset, csv_text
from claimtree.evaluate import comparison_table, cv_table_csv, grid_search
from claimtree.hybrid import HybridHyperparams, coefficient_report, fit, format_coefficient_table
from claimtree.simulate import SimConfig, save_latents_csv, simulate

AWKWARD = ("a", "b,c", 'd"e')


def cells(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def small_dataset(seed: int = 0) -> Dataset:
    """Continuous x, a three-level categorical with awkward labels, all-positive y."""
    rng = np.random.default_rng(seed)
    n = 120
    x = rng.normal(size=n)
    c = rng.integers(0, 3, size=n).astype(float)
    y = 10.0 + 2.0 * x + 3.0 * c + rng.normal(size=n)
    columns = (Column("x", "continuous"), Column("c", "categorical", AWKWARD), Column("y", "response"))
    return Dataset(columns, np.column_stack([x, c, y]))


def test_coefficient_table_cells():
    model = fit(small_dataset(), HybridHyperparams(severity_learner="ols", min_node_for_linear=10))
    report = coefficient_report(model)
    tids = sorted(report)
    table = cells(format_coefficient_table(model))
    assert table[0] == ["term"] + [f"node_{t}" for t in tids]
    assert [row[0] for row in table[1:]] == ["(Intercept)", "x", "c=b,c", 'c=d"e']
    for row in table[1:]:
        assert row[1:] == [repr(report[t][row[0]]) if row[0] in report[t] else "" for t in tids]


def test_comparison_table_cells():
    ds = small_dataset(1)
    names = ["a,b", 'q"r']
    models = [(names[0], lambda d: d.response), (names[1], lambda d: d.response * 0.5 + 1.0)]
    table = comparison_table(models, ds, ds)
    rows = cells(table.to_csv())
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [(row[0], row[1]) for row in rows[1:]] == [(s, m) for s in ("train", "test") for m in names]
    assert rows[1][2] == repr(table.raw["train"]["gini"][names[0]])


def test_cv_table_cells():
    def factory(params):
        return lambda ds_train: (lambda ds: np.full(ds.n, ds_train.response.mean()))

    result = grid_search(small_dataset(2), {"tag": list(AWKWARD)}, k=3, seed=0, learner_factory=factory)
    rows = cells(cv_table_csv(result))
    assert rows[0] == ["tag", "mean_rmse", "sd_rmse", "valid"]
    assert [row[0] for row in rows[1:]] == [repr(label) for label in AWKWARD]
    assert [row[1] for row in rows[1:]] == [repr(cell.mean_rmse) for cell in result.cells]


def test_latents_cells(tmp_path):
    portfolio = simulate(SimConfig(n=30, p_continuous=2, p_categorical=1,
                                   beta_poisson=np.zeros(4), beta_gamma=np.ones(4), seed=3))
    path = tmp_path / "latents.csv"
    save_latents_csv(portfolio, path)
    rows = cells(path.read_text(encoding="utf-8"))
    assert rows[0] == ["row", "lambda", "n_claims", "gamma_shape", "gamma_rate"]
    assert rows[1:] == [
        [str(i), repr(float(portfolio.lam[i])), str(int(portfolio.n_claims[i])),
         repr(float(portfolio.gamma_shape)), repr(float(portfolio.gamma_rate[i]))]
        for i in range(30)
    ]


def test_carriage_return_field_is_quoted():
    rows = [["term", "node_1"], ["c=a\rb", "1.0"], ["c=d\r\ne", ""], ["c=f\ng", "x\r"]]
    text = csv_text(rows)
    assert cells(text) == rows
    assert text == 'term,node_1\n"c=a\rb",1.0\n"c=d\r\ne",\n"c=f\ng","x\r"\n'


def test_fields_without_carriage_return_keep_csv_writer_bytes():
    rows = [["a", "b,c", 'd"e', ""], ["x\ny", " z ", "1.5", "#"], [""], []]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert csv_text(rows) == buf.getvalue()
    assert csv_text([]) == ""
