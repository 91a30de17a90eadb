"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict line;
without ``-s`` the lines still appear for failing criteria. Each criterion
asserts at its stated tolerance and is timed against its runtime budget.

Criterion 6 holds the default simulation to its documented zero-claim
share of 94.31%. The default coefficient vectors measurably produce a
zero share near 43% (64% under the default noise), so that clause cannot
pass; it is asserted as documented and fails honestly rather than being
loosened. The remaining clauses and criteria pass.
"""

import json
import time

import numpy as np
import pytest

import claimtree as ct
from claimtree.cart import TreeHyperparams, cost_complexity, grow, prune
from claimtree.cli import main as cli_main
from claimtree.elastic_net import (
    coordinate_descent,
    enet_objective,
    kkt_violation,
    ridge_closed_form,
    soft_threshold,
)
from claimtree.evaluate import gini_index, mae, rmse
from claimtree.hybrid import HybridHyperparams, fit, load, predict_batch, save
from claimtree.simulate import SimConfig, gen_features, simulate
from test_cart import (
    brute_force_best_split,
    enumerate_pruned_terminal_sets,
    make_dataset,
    terminal_set_cost,
)
from test_elastic_net import grid_minimize_objective, standardized_problem


def verdict(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label} | {detail} | {elapsed:.1f}s of {budget:.0f}s")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget ({elapsed:.1f}s)"
    assert ok, f"criterion {num}: {label} | {detail}"


def test_criterion_01_soft_threshold_exactness():
    """1000 random (t, lam) pairs vs 1-D grid minimization at 1e-4."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(-5, 5))
        lam = float(rng.uniform(0, 5))
        lo, hi = min(0.0, t) - 0.1, max(0.0, t) + 0.1
        grid = np.arange(lo, hi, 1e-4)
        obj = (grid - t) ** 2 + lam * np.abs(grid)
        worst = max(worst, abs(soft_threshold(t, lam) - float(grid[np.argmin(obj)])))
    verdict(1, "soft-threshold vs grid", worst <= 1e-4,
            f"max |analytic - grid argmin| = {worst:.2e} (tol 1e-4)", time.time() - t0, 1.0)


def test_criterion_02_ridge_oracle():
    """100 problems: CD at alpha=0 vs (X'X + lam I)^-1 X'y within 1e-6."""
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(12, 51))
        p = int(rng.integers(1, 9))
        Xs, yc = standardized_problem(rng, n, p)
        lam = float(rng.uniform(0.01, 5.0))
        closed = ridge_closed_form(Xs, yc, lam)
        res = coordinate_descent(Xs, yc, alpha=0.0, lam=lam / n)
        worst = max(worst, float(np.abs(res.beta - closed).max()))
    verdict(2, "ridge closed-form oracle", worst <= 1e-6,
            f"max-abs coefficient error = {worst:.2e} (tol 1e-6)", time.time() - t0, 5.0)


def test_criterion_03_lasso_oracle():
    """50 problems, p <= 3: objective gap vs dense grid <= 1e-3; KKT <= 1e-6."""
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 45))
        p = int(rng.integers(1, 4))
        Xs, yc = standardized_problem(rng, n, p)
        lam = float(rng.uniform(0.005, 0.3))
        res = coordinate_descent(Xs, yc, alpha=1.0, lam=lam, tol=1e-7)
        cd_J = enet_objective(Xs, yc, res.beta, 1.0, lam)
        _, grid_J = grid_minimize_objective(Xs, yc, lam, alpha=1.0)
        worst_gap = max(worst_gap, abs(cd_J - grid_J))
        worst_kkt = max(worst_kkt, kkt_violation(Xs, yc, res.beta, 1.0, lam))
    ok = worst_gap <= 1e-3 and worst_kkt <= 1e-6
    verdict(3, "lasso dense-grid oracle", ok,
            f"max objective gap = {worst_gap:.2e} (tol 1e-3), max KKT violation = "
            f"{worst_kkt:.2e} (tol 1e-6)", time.time() - t0, 30.0)


def test_criterion_04_split_search_oracle():
    """100 random datasets (n <= 200, p <= 5): exact brute-force agreement."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    mismatches = 0
    for k in range(100):
        n = int(rng.integers(5, 201))
        p = int(rng.integers(1, 6))
        if k % 3 == 0:
            X = rng.integers(0, 5, size=(n, p)).astype(float)
        else:
            X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n)
        rule = ct.best_split(X, y)
        oracle = brute_force_best_split(X, y)
        got = None if rule is None else (rule.feature, rule.threshold)
        mismatches += got != oracle
    verdict(4, "split search vs brute force", mismatches == 0,
            f"{mismatches} mismatches in 100 datasets (exact match required)",
            time.time() - t0, 10.0)


def test_criterion_05_pruning_oracle():
    """20 depth<=4 trees x 10 alphas: minimum cost over full enumeration."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    failures = 0
    alphas = [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.2, 1.0]
    for _ in range(20):
        n = int(rng.integers(40, 180))
        X = rng.normal(size=(n, 3))
        y = ((X[:, 0] + 0.7 * X[:, 1] + rng.normal(size=n)) > 0).astype(int)
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=4, minsplit=4))
        candidates = enumerate_pruned_terminal_sets(tree)
        for alpha in alphas:
            got = cost_complexity(prune(tree, alpha), alpha)
            best = min(terminal_set_cost(tree, ts, alpha) for ts in candidates)
            failures += got != best
    verdict(5, "pruning vs subtree enumeration", failures == 0,
            f"{failures} of 200 (tree, alpha) cases off the exact minimum",
            time.time() - t0, 10.0)


def test_criterion_06_simulator_statistics():
    """Default portfolio statistics: mean zero share in 94.31% +/- 2pp over
    10 seeds; adjacent-feature correlation in 0.5 +/- 0.03.

    The zero-share clause is asserted at its documented target. The
    default coefficient vectors put the actual zero share near 43% (64%
    with the default noise), so this clause fails by construction; the
    correlation clause passes.
    """
    t0 = time.time()
    zero_shares = []
    for seed in range(10):
        port = simulate(SimConfig(n=10_000, seed=seed))
        zero_shares.append(float((port.dataset.response == 0).mean()))
    mean_zero = float(np.mean(zero_shares))
    X = gen_features(SimConfig(n=10_000, seed=0), np.random.default_rng(0))
    adj = [float(np.corrcoef(X[:, j], X[:, j + 1])[0, 1]) for j in range(10)]
    corr_ok = all(abs(r - 0.5) < 0.03 for r in adj)
    zero_ok = abs(mean_zero - 0.9431) <= 0.02
    verdict(6, "simulator portfolio statistics", zero_ok and corr_ok,
            f"mean zero share = {mean_zero:.4f} (target 0.9431 +/- 0.02), "
            f"adjacent corr range [{min(adj):.3f}, {max(adj):.3f}] (target 0.5 +/- 0.03)",
            time.time() - t0, 60.0)


def _benchmark_portfolio(seed: int) -> SimConfig:
    """Claim-sparse portfolio with aligned frequency and severity drivers.

    The default 60-feature coefficient set cannot support the banded
    dominance property: its frequency and severity signals point in
    opposite directions through the categorical block, so the zero rule
    prices the largest claims at zero no matter how the tree is tuned.
    This compact portfolio keeps the same generative machinery (correlated
    normals, integer categoricals, compound Poisson-gamma response) with
    claim pockets a depth-8 tree can actually isolate.
    """
    return SimConfig(
        n=10_000,
        p_continuous=4,
        p_categorical=4,
        rho=0.5,
        beta_poisson=np.array([-6.0, 1.2, 1.2, 0.0, 0.0, 1.2, 1.2, 0.0, 0.0]),
        beta_gamma=np.array([4.0, 0.3, 0.3, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0]),
        noise_sd=0.0,
        seed=seed,
    )


def test_criterion_07_end_to_end_dominance():
    """10 seeded train/test splits: hybrid beats the constant-mean predictor
    on test RMSE on >= 9 seeds and exceeds Gini 0.8 on >= 8 seeds."""
    t0 = time.time()
    hp = HybridHyperparams(cp=1e-4, maxdepth=8, zero_threshold=0.5,
                           severity_learner="ols")
    rmse_wins = 0
    gini_hits = 0
    ginis = []
    for seed in range(10):
        ds = simulate(_benchmark_portfolio(seed)).dataset
        perm = np.random.default_rng(seed + 10_000).permutation(ds.n)
        train, test = ds.subset(perm[:7000]), ds.subset(perm[7000:])
        model = fit(train, hp, seed=seed)
        _, _, pred = predict_batch(model, test)
        const = np.full(test.n, train.response.mean())
        rmse_wins += rmse(test.response, pred) < rmse(test.response, const)
        g = gini_index(test.response, pred)
        ginis.append(g)
        gini_hits += g > 0.8
    ok = rmse_wins >= 9 and gini_hits >= 8
    verdict(7, "end-to-end dominance", ok,
            f"RMSE wins {rmse_wins}/10 (need >= 9), Gini > 0.8 on {gini_hits}/10 "
            f"(need >= 8), Gini range [{min(ginis):.3f}, {max(ginis):.3f}]",
            time.time() - t0, 300.0)


def test_criterion_08_metric_hand_checks():
    """Worked metric examples reproduce exactly to 1e-12."""
    t0 = time.time()
    checks = [
        ("gini aligned", gini_index([1, 2, 3], [10, 20, 30]), 1.0 / 3.0),
        ("gini reversed", gini_index([1, 2, 3], [30, 20, 10]), -1.0 / 3.0),
        ("rmse sqrt2", rmse([1.0, 4.0], [1.0, 2.0]), float(np.sqrt(2.0))),
        ("mae 1", mae([1.0, 4.0], [1.0, 2.0]), 1.0),
        ("r2 identity", ct.r_squared(np.array([1.0, 2.0, 5.0]), np.array([1.0, 2.0, 5.0])), 1.0),
        ("ccc identity", ct.ccc(np.array([1.0, 2.0, 5.0]), np.array([1.0, 2.0, 5.0])), 1.0),
        ("rmse identity", rmse([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]), 0.0),
        ("mae identity", mae([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]), 0.0),
    ]
    bad = [(name, got, want) for name, got, want in checks if abs(got - want) > 1e-12]
    verdict(8, "metric hand checks", not bad,
            "all worked examples within 1e-12" if not bad else f"failed: {bad}",
            time.time() - t0, 10.0)


def test_criterion_09_hybrid_invariant_suite(tmp_path):
    """Partition totality, zero rule, piecewise affinity and serialization
    round trip over 1000 randomized rows on 5 random models."""
    t0 = time.time()
    failures = []
    for k in range(5):
        cfg = _benchmark_portfolio(200 + k)
        ds = simulate(cfg).dataset
        hp = HybridHyperparams(
            cp=1e-4,
            maxdepth=3 + k % 3,
            zero_threshold=(0.2, 0.35, 0.5)[k % 3],
            severity_learner="elastic_net" if k % 2 else "ols",
            glm_which=0.5,
            glm_lambda=1.0,
        )
        model = fit(ds, hp, seed=k)
        rows = simulate(SimConfig(**{**cfg.to_dict(), "n": 1000, "seed": 900 + k,
                                     "beta_poisson": cfg.beta_poisson,
                                     "beta_gamma": cfg.beta_gamma})).dataset
        tids, raw, clipped = predict_batch(model, rows)

        # partition totality: every row lands on exactly one known terminal
        terminals = set(model.tree.terminal_ids())
        if not set(np.unique(tids)) <= terminals:
            failures.append(f"model {k}: unknown terminal id")
        if tids.shape != (1000,):
            failures.append(f"model {k}: wrong assignment shape")

        # zero rule: terminals over the zero threshold predict exactly 0
        for s in model.terminal_summaries:
            mask = tids == s.node_id
            if s.zero_fraction > hp.zero_threshold and mask.any():
                if not (clipped[mask] == 0.0).all():
                    failures.append(f"model {k}: zero rule violated at node {s.node_id}")

        # piecewise affinity: 3-point stencils inside one terminal
        checked = 0
        feat = model.tree.feature_names.index("x1")
        from claimtree.data import feature_matrix

        X, _ = feature_matrix(rows)
        h = 0.05
        for i in range(0, 1000, 11):
            stencil = np.repeat(X[i][None, :], 3, axis=0)
            stencil[0, feat] -= h
            stencil[2, feat] += h
            sten_ids = model.tree.classify_batch(stencil)
            if len(set(sten_ids.tolist())) != 1:
                continue
            tid = int(sten_ids[0])
            nm = model.node_models[tid]
            vals = (np.zeros(3) if model.tree.nodes[tid].beta_f == 0
                    else nm.predict(stencil))
            second = vals[0] - 2.0 * vals[1] + vals[2]
            checked += 1
            if abs(second) >= 1e-9:
                failures.append(f"model {k}: second difference {second:.2e} at row {i}")
        if checked == 0:
            failures.append(f"model {k}: no affinity stencil stayed in one terminal")

        # serialization round trip: identical predictions
        path = tmp_path / f"model{k}.json"
        save(model, path)
        back = load(path)
        tids2, raw2, clipped2 = predict_batch(back, rows)
        if not (np.array_equal(tids, tids2) and np.array_equal(raw, raw2)
                and np.array_equal(clipped, clipped2)):
            failures.append(f"model {k}: reload changed predictions")

    verdict(9, "hybrid invariant suite", not failures,
            "5 models x 1000 rows, all invariants hold" if not failures
            else "; ".join(failures[:4]), time.time() - t0, 120.0)


def test_criterion_10_cli_determinism(tmp_path):
    """simulate, train and tune produce byte-identical primary outputs
    across two consecutive runs with fixed seeds."""
    t0 = time.time()
    sim_args = ["simulate", "--n", "1200", "--seed", "5"]
    train_args = ["train", "--seed", "3", "--cp", "0.001", "--maxdepth", "3",
                  "--zero-threshold", "0.4", "--severity-learner", "ols"]
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"cp": [0.001, 0.01]}), encoding="utf-8")
    tune_args = ["tune", "--grid", str(grid_file), "--folds", "3", "--seed", "2",
                 "--maxdepth", "3", "--zero-threshold", "0.4",
                 "--severity-learner", "ols"]

    outputs = {"simulate": ["portfolio.csv", "schema.json"],
               "train": ["model.json", "fit_report.json"],
               "tune": ["winner.json", "cv_table.csv"]}
    runs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        sim_out = base / "sim"
        assert cli_main(sim_args + ["--out", str(sim_out)]) == 0
        data = [
            "--data", str(sim_out / "portfolio.csv"),
            "--schema", str(sim_out / "schema.json"),
        ]
        assert cli_main(train_args + data + ["--out", str(base / "model")]) == 0
        assert cli_main(tune_args + data + ["--out", str(base / "tuned")]) == 0
        runs[run] = {
            "simulate": sim_out,
            "train": base / "model",
            "tune": base / "tuned",
        }
    diffs = []
    for command, files in outputs.items():
        for name in files:
            a = (runs["a"][command] / name).read_bytes()
            b = (runs["b"][command] / name).read_bytes()
            if a != b:
                diffs.append(f"{command}/{name}")
    verdict(10, "command determinism", not diffs,
            "simulate, train, tune byte-identical across reruns" if not diffs
            else f"differences in {diffs}", time.time() - t0, 120.0)
