"""Occurrence tree: impurities, split search, growth, pruning, routing.

The split-search and pruning tests check the implementation against
independent exhaustive enumerations (every candidate split; every pruned
subtree), against the feature-at-a-time split search and against the
round-by-round weakest-link loop, which must agree exactly. Routing is
checked against the stack router that walked the node dict.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from claimtree import cart, hybrid
from claimtree.cart import (
    SplitRule,
    Tree,
    TreeHyperparams,
    best_split,
    cost_complexity,
    cp_to_alpha,
    entropy,
    gini,
    grow,
    misclassification,
    prune,
    to_dot,
    tree_from_dict,
    tree_to_dict,
    truncate,
    variable_importance,
)
from claimtree.data import Column, Dataset, feature_matrix
from claimtree.simulate import SimConfig, simulate


def make_dataset(X, occurrence):
    """Wrap a feature matrix and 0/1 labels as a Dataset (response = label)."""
    X = np.asarray(X, dtype=float)
    cols = tuple(
        [Column(f"f{j}", "continuous") for j in range(X.shape[1])] + [Column("y", "response")]
    )
    return Dataset(cols, np.column_stack([X, np.asarray(occurrence, dtype=float)]))


def split_ids(tree):
    """Ids of the tree's split (non-terminal) nodes, ascending."""
    return sorted(nid for nid, nd in tree.nodes.items() if not nd.is_terminal)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_force_best_split(X, y, impurity="gini"):
    """Plain double loop over every feature and midpoint; same tie rules."""
    imp = {"gini": gini, "misclassification": misclassification, "entropy": entropy}[impurity]
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = y.shape[0]
    pos_total = int(y.sum())
    best_score = imp(pos_total / n)
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values[:-1], values[1:]):
            s = (a + b) / 2.0
            left = X[:, j] < s
            n_left = int(left.sum())
            n_right = n - n_left
            pos_left = int(y[left].sum())
            pos_right = pos_total - pos_left
            score = (n_left * imp(pos_left / n_left) + n_right * imp(pos_right / n_right)) / n
            if score < best_score:
                best_score = score
                best = (j, s)
    return best


def per_feature_best_split(X, y, impurity="gini"):
    """Feature-at-a-time split search, one set of numpy calls per feature.

    The loop that the block kernel replaced, kept as its bitwise reference:
    the same score expression, midpoints and tie rules. Returns
    ``(SplitRule, gain)`` or ``(None, 0.0)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = y.shape[0]
    pos_total = int(y.sum())
    parent = float(cart._impurity_vec(impurity, np.array([pos_total / n]))[0])
    best_score = parent
    best = None
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y[order]
        cut = np.nonzero(xs[1:] != xs[:-1])[0]
        if cut.size == 0:
            continue
        n_left = cut + 1
        pos_left = np.cumsum(ys)[cut]
        n_right = n - n_left
        pos_right = pos_total - pos_left
        score = (
            n_left * cart._impurity_vec(impurity, pos_left / n_left)
            + n_right * cart._impurity_vec(impurity, pos_right / n_right)
        ) / n
        k = int(np.argmin(score))
        if score[k] < best_score:
            best_score = float(score[k])
            best = SplitRule(j, float((xs[cut[k]] + xs[cut[k] + 1]) / 2.0))
    if best is None:
        return None, 0.0
    return best, parent - best_score


def enumerate_pruned_terminal_sets(tree):
    """Every subtree reachable by collapsing internal nodes, as terminal sets."""

    def rec(nid):
        node = tree.nodes[nid]
        if node.is_terminal:
            return [frozenset([nid])]
        options = [frozenset([nid])]
        for lt in rec(2 * nid):
            for rt in rec(2 * nid + 1):
                options.append(lt | rt)
        return options

    return rec(1)


def terminal_set_cost(tree, terminals, alpha):
    loss = sum(tree.nodes[t].misclassified for t in terminals) / tree.root.n_node
    return loss + alpha * len(terminals)


def weakest_link_prune(tree, alpha):
    """Textbook weakest-link loop (Breiman et al. 1984, ch. 10).

    Each round scores every internal link of the current subtree and
    collapses all links of minimal cost g, until that cost reaches alpha.
    """
    nodes = {nid: replace(nd) for nid, nd in tree.nodes.items()}
    n_root = nodes[1].n_node

    def subtree_stats(nid):
        node = nodes[nid]
        if node.is_terminal:
            return node.misclassified, 1
        ml, tl = subtree_stats(2 * nid)
        mr, tr = subtree_stats(2 * nid + 1)
        return ml + mr, tl + tr

    def collapse(nid):
        for child in (2 * nid, 2 * nid + 1):
            if child in nodes:
                collapse(child)
                del nodes[child]
        nodes[nid].split = None
        nodes[nid].gain = 0.0

    while True:
        internal = [nid for nid, nd in nodes.items() if not nd.is_terminal]
        if not internal:
            break
        gs = {}
        for nid in internal:
            m_sub, t_sub = subtree_stats(nid)
            gs[nid] = (nodes[nid].misclassified - m_sub) / (n_root * (t_sub - 1))
        g_min = min(gs.values())
        if not g_min < alpha:
            break
        for nid in [nid for nid, g in gs.items() if g == g_min]:
            if nid in nodes and not nodes[nid].is_terminal:
                collapse(nid)
    return Tree(nodes=nodes, feature_names=tree.feature_names, hyperparams=tree.hyperparams)


def reference_classify_batch(tree, X):
    """Stack router over the node dict: each visited node splits its rows
    into the two children's index arrays, and a terminal claims its rows."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(1, np.arange(X.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        if idx.size == 0:
            continue
        node = tree.nodes[nid]
        if node.is_terminal:
            out[idx] = nid
            continue
        left = X[idx, node.split.feature] < node.split.threshold
        stack.append((2 * nid, idx[left]))
        stack.append((2 * nid + 1, idx[~left]))
    return out


# ---------------------------------------------------------------------------
# impurity functions
# ---------------------------------------------------------------------------


class TestImpurities:
    def test_gini_values(self):
        assert gini(0.5) == 0.5
        assert gini(0.0) == 0.0
        assert gini(0.25) == 0.375

    def test_misclassification_values(self):
        assert misclassification(0.3) == pytest.approx(0.3)
        assert misclassification(0.0) == 0.0

    def test_entropy_values(self):
        assert entropy(0.5) == pytest.approx(np.log(2.0))
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    @pytest.mark.parametrize("fn", [gini, misclassification, entropy])
    def test_domain_errors(self, fn):
        with pytest.raises(ValueError):
            fn(-0.01)
        with pytest.raises(ValueError):
            fn(1.01)

    @pytest.mark.parametrize("fn", [gini, misclassification, entropy])
    def test_zero_iff_pure_and_max_at_half(self, fn):
        assert fn(0.0) == 0.0 and fn(1.0) == 0.0
        grid = np.linspace(0.01, 0.99, 99)
        values = np.array([fn(p) for p in grid])
        assert values.min() > 0.0
        assert fn(0.5) >= values.max()

    @pytest.mark.parametrize("fn", [gini, misclassification, entropy])
    def test_symmetry(self, fn):
        for p in (0.1, 0.25, 0.4):
            assert fn(p) == pytest.approx(fn(1.0 - p), abs=1e-15)


# ---------------------------------------------------------------------------
# split search
# ---------------------------------------------------------------------------


class TestBestSplit:
    def test_perfect_separation(self):
        """x=(1,2,3,4) with labels (0,0,1,1) splits at 2.5 with zero impurity."""
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        rule = best_split(X, y)
        assert rule.feature == 0
        assert rule.threshold == 2.5

    def test_pure_node_returns_none(self):
        X = np.array([[1.0], [2.0], [3.0]])
        assert best_split(X, np.zeros(3, dtype=int)) is None

    def test_picks_separating_feature(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(size=20)
        sep = np.concatenate([np.zeros(10), np.ones(10)]) * 4 + rng.normal(size=20) * 0.1
        y = np.concatenate([np.zeros(10, dtype=int), np.ones(10, dtype=int)])
        X = np.column_stack([noise, sep])
        rule = best_split(X, y)
        oracle = brute_force_best_split(X, y)
        assert rule.feature == 1
        assert (rule.feature, rule.threshold) == oracle

    @pytest.mark.parametrize("impurity", ["gini", "misclassification"])
    def test_matches_brute_force_exactly(self, impurity):
        """Random nodes up to 200 rows and 5 features: exact agreement."""
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(5, 201))
            p = int(rng.integers(1, 6))
            if rng.random() < 0.4:
                X = rng.integers(0, 4, size=(n, p)).astype(float)  # heavy ties
            else:
                X = rng.normal(size=(n, p))
            y = rng.integers(0, 2, size=n)
            rule = best_split(X, y, impurity=impurity)
            oracle = brute_force_best_split(X, y, impurity=impurity)
            if oracle is None:
                assert rule is None
            else:
                assert (rule.feature, rule.threshold) == oracle

    def test_entropy_agrees_with_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.normal(size=(50, 3))
            y = rng.integers(0, 2, size=50)
            rule = best_split(X, y, impurity="entropy")
            oracle = brute_force_best_split(X, y, impurity="entropy")
            assert (rule.feature, rule.threshold) == oracle

    def test_tie_breaks_to_lowest_feature_then_threshold(self):
        # identical separating columns: the lower feature index must win
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])
        y = np.array([0, 0, 1, 1])
        rule = best_split(X, y)
        assert rule.feature == 0 and rule.threshold == 2.5


    def test_fewer_than_two_rows_or_no_features_give_none(self):
        assert best_split(np.array([[1.0, 2.0]]), np.array([1])) is None
        assert best_split(np.empty((4, 0)), np.array([0, 1, 0, 1])) is None

    @pytest.mark.parametrize(
        "impurity, nan_gain, inf_rule, inf_gain",
        [
            ("gini", 0.42, (0, np.inf), 0.07714285714285718),
            ("entropy", 0.6108643020548935, (0, np.inf), 0.1328286287645633),
            ("misclassification", 0.30000000000000004, (0, 1.5), 1.1102230246251565e-16),
        ],
    )
    def test_non_finite_cells_keep_their_pinned_result(self, impurity, nan_gain, inf_rule, inf_gain):
        """Raw X with NaN and +-inf cells (a Dataset holds neither). NaN
        equals nothing, so each NaN row is its own value and the best cut
        here lies between two NaN rows, in row-id order, at a NaN threshold;
        +-inf cells tie as equal values. Pinned from the stable-sort search."""
        nan, inf = np.nan, np.inf
        X = np.array([
            [nan, inf, 1.0], [3.0, 2.0, 0.0], [nan, 1.0, 1.0], [0.5, -inf, 0.0], [nan, inf, 1.0],
            [nan, 3.0, 0.0], [2.0, -inf, 1.0], [nan, 2.0, 0.0], [1.0, inf, 1.0], [nan, 1.0, 0.0],
        ])
        y = np.array([0, 0, 0, 0, 0, 1, 0, 1, 0, 1])
        rule, gain = cart._best_split_scored(X, y, impurity)
        assert rule.feature == 0 and np.isnan(rule.threshold) and gain == nan_gain
        rule, gain = cart._best_split_scored(X[:, 1:2], y, impurity)
        assert (rule.feature, rule.threshold) == inf_rule and gain == inf_gain

    @pytest.mark.parametrize(
        "impurity, gain, reversed_gain",
        [
            ("gini", 0.2303831994645248, 0.21552376171352072),
            ("entropy", 0.2930288622514449, 0.27704354083755495),
            ("misclassification", 0.3083333333333334, 0.29166666666666663),
        ],
    )
    def test_nan_rows_keep_row_id_order(self, impurity, gain, reversed_gain):
        """72 NaN rows, the first half positive: the best cut lies between
        NaN rows, and so depends on their order, which is row-id order
        (reversing the rows changes the gain). Pinned from the stable-sort
        search; an unstable sort of this column gives other splits."""
        rng = np.random.default_rng(26)
        n = 120
        x = rng.normal(size=n)
        x[rng.random(n) < 0.6] = np.nan
        y = rng.integers(0, 2, n)
        nan_rows = np.flatnonzero(np.isnan(x))
        y[nan_rows[: nan_rows.size // 2]] = 1
        y[nan_rows[nan_rows.size // 2:]] = 0
        X = np.column_stack([x, np.round(rng.normal(size=n), 0)])
        for rows, expected in ((slice(None), gain), (slice(None, None, -1), reversed_gain)):
            rule, found = cart._best_split_scored(X[rows], y[rows], impurity)
            assert rule.feature == 0 and np.isnan(rule.threshold) and found == expected


def block_width(n):
    return max(1, cart._SPLIT_BLOCK_CELLS // n)


def tied_node(rng, n, p):
    """Heavily tied integer columns, a constant first block and rounded noise."""
    X = rng.integers(0, 6, size=(n, p)).astype(float)
    X[:, : block_width(n)] = 3.0  # a whole block with no candidate
    X[:, -1] = 7.0
    X[:, p // 2] = np.round(rng.normal(size=n), 1)
    return X


class TestBlockKernel:
    """Nodes large enough that split search scores several feature blocks."""

    SHAPES = [(2000, 60), (2700, 23), (5000, 30)]

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_large_tied_nodes_match_both_references(self, impurity):
        rng = np.random.default_rng(31)
        for n, p in self.SHAPES:
            assert block_width(n) < p  # more than one block
            for _ in range(3):
                X = tied_node(rng, n, p)
                y = (X[:, p // 2] + X[:, 1 + block_width(n)] / 3 + rng.normal(size=n) > 1.0)
                y = y.astype(int)
                rule, gain = cart._best_split_scored(X, y, impurity)
                assert (rule.feature, rule.threshold) == brute_force_best_split(X, y, impurity)
                assert (rule, gain) == per_feature_best_split(X, y, impurity)

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_identical_columns_across_a_block_boundary_keep_the_lowest(self, impurity):
        rng = np.random.default_rng(32)
        for n, p in self.SHAPES:
            width = block_width(n)
            first = 2 * width - 1  # last column of the second block
            for copy in (first + 1, p - 2):  # first column of the next block; a later one
                X = tied_node(rng, n, p)
                sep = rng.integers(0, 10, size=n).astype(float)
                X[:, first] = X[:, copy] = sep
                y = ((sep >= 5) ^ (rng.random(n) < 0.05)).astype(int)
                assert first // width != copy // width
                rule, gain = cart._best_split_scored(X, y, impurity)
                assert rule == SplitRule(first, 4.5)
                assert (rule.feature, rule.threshold) == brute_force_best_split(X, y, impurity)
                assert (rule, gain) == per_feature_best_split(X, y, impurity)


def tree_json(tree):
    """``tree_to_dict`` as JSON text, which, unlike ==, tells -0.0 from 0.0."""
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def search_kinds(ds):
    """(counted, scanned, scanned with tied values) features of ds's root search."""
    X, _ = feature_matrix(ds)
    search = cart._SplitSearch(np.ascontiguousarray(X.T))
    return search.counted.size, search.scanned.size, int(search.tied.sum())


def labelled(columns, X, rng):
    """A Dataset of the table X under ``columns`` plus a response whose
    claims follow the first two columns, with noise."""
    signal = X[:, 0] - X[:, 1] + rng.normal(size=X.shape[0])
    response = np.where(signal > np.median(signal), rng.uniform(1.0, 9.0, X.shape[0]), 0.0)
    return Dataset(tuple(columns) + (Column("y", "response"),), np.column_stack([X, response]))


def categorical_portfolio():
    rng = np.random.default_rng(21)
    n = 900
    columns = [
        Column("region", "categorical", ("a", "b", "c", "d", "e")),
        Column("age", "continuous"),
        Column("fuel", "categorical", ("petrol", "diesel")),
        Column("use", "categorical", ("private", "work", "fleet")),
    ]
    X = np.column_stack([
        rng.integers(0, 5, n), rng.normal(40, 12, n), rng.integers(0, 2, n), rng.integers(0, 3, n),
    ]).astype(float)
    return labelled(columns, X, rng)


def limit_edge_portfolio():
    rng = np.random.default_rng(22)
    n, limit = 1000, cart._COUNTED_MAX_VALUES
    X = np.column_stack([
        rng.integers(0, limit, n), rng.integers(0, limit + 1, n) * 0.5, rng.normal(size=n),
    ]).astype(float)
    return labelled([Column(f"f{j}", "continuous") for j in range(3)], X, rng)


def signed_zero_portfolio():
    # Rounding small negatives gives -0.0: both columns hold zeros of both signs.
    rng = np.random.default_rng(23)
    n = 1000
    X = np.column_stack([np.round(rng.normal(size=n), 1), np.round(rng.normal(size=n) / 8, 1)])
    assert all((np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()) for x in X.T)
    return labelled([Column("wide", "continuous"), Column("narrow", "continuous")], X, rng)


def all_counted_portfolio():
    rng = np.random.default_rng(24)
    n = 800
    X = np.column_stack([rng.integers(0, 4, n), rng.integers(-2, 3, n), rng.integers(0, 2, n)]).astype(float)
    return labelled([Column(f"f{j}", "continuous") for j in range(3)], X, rng)


class TestSplitSearchKinds:
    """Counting a feature's values, scanning its sorted rows and skipping
    the tie check where the root has no ties grow, bit for bit, the trees
    that scanning every feature with the tie check grows."""

    LIMIT = cart._COUNTED_MAX_VALUES
    PORTFOLIOS = {
        # name: (Dataset factory, (counted, scanned, scanned with ties))
        "simulated": (lambda: simulate(SimConfig(n=1200, seed=5)).dataset, (30, 30, 0)),
        "categorical": (categorical_portfolio, (7, 1, 0)),
        "limit_edges": (limit_edge_portfolio, (1, 2, 1)),
        "signed_zeros": (signed_zero_portfolio, (1, 1, 1)),
        "all_counted": (all_counted_portfolio, (3, 0, 0)),
    }

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    @pytest.mark.parametrize("portfolio", list(PORTFOLIOS))
    def test_same_tree_as_scanning_every_feature(self, monkeypatch, portfolio, impurity):
        make, kinds = self.PORTFOLIOS[portfolio]
        ds = make()
        hp = TreeHyperparams(maxdepth=8, minsplit=4, impurity=impurity)
        assert search_kinds(ds) == kinds
        tree = grow(ds, hp)
        assert len(split_ids(tree)) >= 2
        monkeypatch.setattr(cart, "_COUNTED_MAX_VALUES", 0)
        assert search_kinds(ds)[0] == 0
        assert tree_json(grow(ds, hp)) == tree_json(tree)

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_tie_between_a_counted_and_a_scanned_feature_goes_to_the_lower(self, impurity):
        """A continuous (scanned) column and its sign indicator (counted)
        split the rows alike; whichever comes first wins the tie."""
        rng = np.random.default_rng(27)
        x = rng.normal(size=300)
        y = (x > 0).astype(int)
        cut = float(x[x < 0].max() / 2 + x[x > 0].min() / 2)
        for X, expected in (
            (np.column_stack([x, x > 0]), SplitRule(0, cut)),
            (np.column_stack([x > 0, x]), SplitRule(0, 0.5)),
        ):
            assert search_kinds(make_dataset(X, y))[:2] == (1, 1)
            assert best_split(X, y, impurity) == expected

    def test_all_counted_nodes_carry_their_row_ids(self):
        X, _ = feature_matrix(all_counted_portfolio())
        search = cart._SplitSearch(np.ascontiguousarray(X.T))
        assert search.scanned.size == 0
        assert search.order.tolist() == [list(range(X.shape[0]))]

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_counted_nodes_match_the_per_feature_reference(self, impurity):
        """Every node of a tree on counted and tied scanned features, split
        and gain bitwise those of the stable-sort, one-feature-at-a-time
        search on the node's rows."""
        ds = limit_edge_portfolio()
        hp = TreeHyperparams(maxdepth=6, minsplit=4, impurity=impurity)
        tree = grow(ds, hp)
        X, _ = feature_matrix(ds)
        y = ds.occurrence
        for nid, idx in node_rows(tree, X).items():
            node = tree.nodes[nid]
            if node.split is not None:
                rule, gain = per_feature_best_split(X[idx], y[idx], impurity)
                assert (node.split, node.gain) == (rule, gain * idx.size / ds.n), f"node {nid}"

    def test_zero_after_minus_5e_324_keeps_the_stable_sorts_sign(self):
        """The threshold between -5e-324 and a zero, -5e-324/2 + zero/2, is
        that zero, sign included, so it is the sign of the zero row that a
        stable sort puts first, the lowest row id, whatever the row order."""
        x = np.array([-5e-324] * 40 + [-0.0] * 40 + [0.0] * 40 + [1.0] * 40)
        rng = np.random.default_rng(25)
        signs = set()
        for _ in range(12):
            X = x[rng.permutation(x.size)][:, None]
            rule = best_split(X, (X[:, 0] < 0).astype(int))
            first_zero = float(X[X[:, 0] == 0.0, 0][0])
            assert rule == SplitRule(0, 0.0) and repr(rule.threshold) == repr(first_zero)
            signs.add(repr(first_zero))
        assert signs == {"0.0", "-0.0"}


def node_rows(tree, X):
    """The training rows reaching each node of ``tree``, by node id."""
    out = {1: np.arange(X.shape[0])}
    for nid in sorted(tree.nodes):
        split = tree.nodes[nid].split
        if split is not None:
            left = X[out[nid], split.feature] < split.threshold
            out[2 * nid], out[2 * nid + 1] = out[nid][left], out[nid][~left]
    return out


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


class TestGrow:
    def test_maxdepth_one_is_a_stump(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        ds = make_dataset(X, y)
        tree = grow(ds, TreeHyperparams(maxdepth=1, minsplit=2))
        assert tree.depth() <= 1
        assert len(split_ids(tree)) <= 1

    def test_all_zero_responses_root_only(self):
        ds = make_dataset(np.arange(10.0)[:, None], np.zeros(10))
        tree = grow(ds)
        assert tree.terminal_ids() == [1]
        assert tree.root.beta_f == 0

    def test_training_misclassification_not_worse_than_root(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=300) * 0.5) > 0).astype(int)
        ds = make_dataset(X, y)
        tree = grow(ds, TreeHyperparams(maxdepth=5, minsplit=8))
        root_mis = tree.root.misclassified / tree.root.n_node
        assert tree.training_misclassification() <= root_mis

    def test_simulated_portfolio_beats_root_misclassification(self):
        from claimtree.simulate import SimConfig, simulate

        ds = simulate(SimConfig(n=1500, seed=9)).dataset
        tree = grow(ds, TreeHyperparams(maxdepth=6, minsplit=8))
        root_mis = tree.root.misclassified / tree.root.n_node
        assert tree.training_misclassification() <= root_mis
        assert len(tree.terminal_ids()) > 1

    def test_respects_minsplit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, 100)
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=10, minsplit=25))
        for nid in split_ids(tree):
            assert tree.nodes[nid].n_node >= 25

    def test_maxdepth_capped_at_30(self):
        assert TreeHyperparams(maxdepth=30).maxdepth == 30
        for bad in (0, 31):
            with pytest.raises(ValueError, match=r"maxdepth must lie in \[1, 30\]"):
                TreeHyperparams(maxdepth=bad)

    def test_empty_dataset_errors(self):
        ds = make_dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            grow(ds)

    def test_growth_deterministic(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 3))
        y = rng.integers(0, 2, 120)
        ds = make_dataset(X, y)
        t1 = grow(ds, TreeHyperparams(maxdepth=4))
        t2 = grow(ds, TreeHyperparams(maxdepth=4))
        assert tree_to_dict(t1) == tree_to_dict(t2)

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_matches_per_feature_reference_node_for_node(self, impurity):
        """Split, threshold and gain of every node are bitwise those of the
        feature-at-a-time search run on the rows that reach the node."""
        ds = simulate(SimConfig(n=2000, seed=3)).dataset
        hp = TreeHyperparams(maxdepth=6, minsplit=8, impurity=impurity)
        tree = grow(ds, hp)
        X, _ = feature_matrix(ds)
        y = ds.occurrence
        seen = []

        def check(nid, idx):
            node = tree.nodes[nid]
            seen.append(nid)
            rule, gain = None, 0.0
            splittable = node.depth < hp.maxdepth and idx.size >= hp.minsplit
            if splittable and 0 < y[idx].sum() < idx.size:
                rule, gain = per_feature_best_split(X[idx], y[idx], impurity)
            assert node.split == rule, f"node {nid}"
            expected_gain = gain * idx.size / ds.n if rule is not None else 0.0
            assert node.gain == expected_gain, f"node {nid}"
            if rule is not None:
                left = X[idx, rule.feature] < rule.threshold
                check(2 * nid, idx[left])
                check(2 * nid + 1, idx[~left])

        check(1, np.arange(ds.n))
        assert sorted(seen) == sorted(tree.nodes)
        assert len(split_ids(tree)) > 10

    def test_node_counts_add_up(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, 200)
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=4))
        for nid in split_ids(tree):
            nd = tree.nodes[nid]
            assert nd.n_node == tree.nodes[2 * nid].n_node + tree.nodes[2 * nid + 1].n_node
            assert nd.n_positive == (
                tree.nodes[2 * nid].n_positive + tree.nodes[2 * nid + 1].n_positive
            )


def tree_digest(tree):
    return hashlib.sha256(json.dumps(tree_to_dict(tree), sort_keys=True).encode()).hexdigest()


class TestGrowEdgeCases:
    """Degenerate inputs, pinned to the trees that a per-node sort grows."""

    def response_only(self):
        return Dataset((Column("y", "response"),), np.array([[0.0], [2.0], [0.0], [5.0], [1.0]]))

    def test_no_feature_columns_give_a_root_only_tree(self):
        tree = grow(self.response_only(), TreeHyperparams(minsplit=2))
        assert tree_to_dict(tree) == {
            "feature_names": [],
            "hyperparams": {"cp": 0.0, "maxdepth": 8, "minsplit": 2, "impurity": "gini"},
            "root": {"id": 1, "n": 5, "n_positive": 3, "beta_f": 1},
        }

    def test_single_row(self):
        tree = grow(make_dataset([[1.0]], [3.0]), TreeHyperparams(minsplit=2))
        assert tree_to_dict(tree)["root"] == {"id": 1, "n": 1, "n_positive": 1, "beta_f": 1}

    def test_all_constant_features(self):
        X = np.tile([1.0, 2.0], (6, 1))
        tree = grow(make_dataset(X, [3, 3, 3, 0, 0, 0]), TreeHyperparams(minsplit=2))
        assert tree_to_dict(tree)["root"] == {"id": 1, "n": 6, "n_positive": 3, "beta_f": 0}

    def test_minsplit_two_splits_down_to_tied_rows(self):
        X = np.array([1, 2, 2, 3, 3, 3, 4, 4, 5, 6], dtype=float)[:, None]
        y = [0, 1, 0, 1, 1, 0, 0, 1, 1, 0]
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=30, minsplit=2))
        got = [
            (nd.id, nd.n_node, nd.n_positive, nd.split and nd.split.threshold, nd.gain)
            for nd in tree.nodes.values()
        ]
        assert got == [
            (1, 10, 5, 1.5, 0.055555555555555525),
            (2, 1, 0, None, 0.0),
            (3, 9, 5, 5.5, 0.06944444444444439),
            (6, 8, 5, 4.5, 0.03214285714285716),
            (12, 7, 4, 2.5, 0.0028571428571428524),
            (24, 2, 1, None, 0.0),
            (25, 5, 3, 3.5, 0.006666666666666654),
            (50, 3, 2, None, 0.0),
            (51, 2, 1, None, 0.0),
            (13, 1, 1, None, 0.0),
            (7, 1, 0, None, 0.0),
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [
        [1.0, float(np.nextafter(1.0, 2.0))],  # the midpoint rounds down to 1.0
        [1.5e308, 1.7e308],  # their sum overflows
    ])
    def test_threshold_lies_above_the_lower_value(self, x):
        tree = grow(make_dataset(np.array(x)[:, None], [0, 1]), TreeHyperparams(maxdepth=4, minsplit=2))
        root = tree.nodes[1]
        assert [nd.id for nd in tree.nodes.values()] == [1, 2, 3]
        assert x[0] < root.split.threshold <= x[1]
        assert (tree.nodes[2].n_node, tree.nodes[3].n_node) == (1, 1)
        assert json.loads(json.dumps(tree_to_dict(tree), allow_nan=False)) == tree_to_dict(tree)

    def test_minsplit_two_deep_tree_is_pinned(self):
        ds = simulate(SimConfig(n=400, seed=5)).dataset
        tree = grow(ds, TreeHyperparams(maxdepth=30, minsplit=2, impurity="entropy"))
        assert (len(tree.nodes), tree.depth()) == (113, 12)
        assert tree_digest(tree) == (
            "4c419f034d0d5a33ae711306e14d9c2b20101aeb0ab69950eb918f05e6c2519b"
        )

    def test_hybrid_fit_on_a_response_only_schema(self):
        ds = self.response_only()
        model = hybrid.fit(ds, hybrid.HybridHyperparams(severity_learner="ols"))
        assert model.tree.terminal_ids() == [1]
        assert model.tree.feature_names == []
        assert model.node_models[1].kind == "zero"
        assert model.zero_fractions == {1: 0.4}
        terminal_of, raw, clipped = hybrid.predict_batch(model, ds)
        np.testing.assert_array_equal(terminal_of, np.ones(5, dtype=np.int64))
        np.testing.assert_array_equal(clipped, np.zeros(5))


class TestGrowInvariances:
    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_truncated_deep_tree_equals_shallow_tree(self, impurity):
        """Split choice never depends on maxdepth: the depth-D tree cut at d
        is the depth-d tree, node for node and in the same order."""
        deepest = 10
        for seed in (1, 2, 3):
            ds = simulate(SimConfig(n=1500, seed=seed)).dataset
            hp = TreeHyperparams(maxdepth=deepest, minsplit=8, impurity=impurity)
            deep = grow(ds, hp)
            assert deep.depth() == deepest
            for depth in range(1, deepest):
                shallow = grow(ds, replace(hp, maxdepth=depth))
                cut = truncate(deep, replace(hp, maxdepth=depth))
                assert list(cut.nodes) == list(shallow.nodes), f"seed {seed}, depth {depth}"
                assert cut == shallow, f"seed {seed}, depth {depth}"

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_truncated_small_minsplit_tree_equals_large_minsplit_tree(self, impurity):
        """Split choice never depends on minsplit either: the minsplit-4 tree
        cut to minsplit m is the minsplit-m tree, node for node and in order."""
        for seed in (1, 2):
            ds = simulate(SimConfig(n=1500, seed=seed)).dataset
            hp = TreeHyperparams(maxdepth=10, minsplit=4, impurity=impurity)
            small = grow(ds, hp)
            for minsplit in (5, 8, 20, 60, 200, 1500, 1501):
                large = grow(ds, replace(hp, minsplit=minsplit))
                cut = truncate(small, replace(hp, minsplit=minsplit))
                assert list(cut.nodes) == list(large.nodes), f"seed {seed}, minsplit {minsplit}"
                assert cut == large, f"seed {seed}, minsplit {minsplit}"

    def test_truncate_carries_the_requested_settings_and_copies_nodes(self):
        ds = simulate(SimConfig(n=600, seed=4)).dataset
        deep = grow(ds, TreeHyperparams(maxdepth=6, minsplit=4))
        hp = TreeHyperparams(cp=0.01, maxdepth=6, minsplit=4)
        cut = truncate(deep, hp)
        assert cut.hyperparams == hp and cut.nodes == deep.nodes
        cut.nodes[1].split = None
        assert deep.nodes[1].split is not None

    @pytest.mark.parametrize("wanted", [
        TreeHyperparams(maxdepth=7, minsplit=8),
        TreeHyperparams(maxdepth=6, minsplit=7),
        TreeHyperparams(maxdepth=6, minsplit=8, impurity="entropy"),
    ])
    def test_truncate_rejects_settings_the_tree_cannot_give(self, wanted):
        ds = simulate(SimConfig(n=300, seed=4)).dataset
        tree = grow(ds, TreeHyperparams(maxdepth=6, minsplit=8))
        with pytest.raises(ValueError, match="cannot be truncated"):
            truncate(tree, wanted)

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "misclassification"])
    def test_row_order_does_not_change_the_tree(self, impurity):
        for seed in (1, 2, 3):
            ds = simulate(SimConfig(n=1200, seed=seed)).dataset
            perm = np.random.default_rng(seed).permutation(ds.n)
            shuffled = Dataset(ds.columns, ds.values[perm])
            hp = TreeHyperparams(maxdepth=10, minsplit=4, impurity=impurity)
            assert tree_digest(grow(shuffled, hp)) == tree_digest(grow(ds, hp)), f"seed {seed}"


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def random_tree(rng, n=120, p=3, maxdepth=4):
    X = rng.normal(size=(n, p))
    logit = X[:, 0] + 0.8 * X[:, 1 % p] + rng.normal(size=n)
    y = (logit > 0).astype(int)
    return grow(make_dataset(X, y), TreeHyperparams(maxdepth=maxdepth, minsplit=4))


class TestPrune:
    def test_alpha_zero_identity(self):
        tree = random_tree(np.random.default_rng(0))
        pruned = prune(tree, 0.0)
        assert tree_to_dict(pruned) == tree_to_dict(tree)

    def test_huge_alpha_gives_root(self):
        tree = random_tree(np.random.default_rng(1))
        pruned = prune(tree, 1.0)  # >= total root loss, penalty dominates
        assert pruned.terminal_ids() == [1]

    def test_negative_alpha_rejected(self):
        tree = random_tree(np.random.default_rng(2))
        with pytest.raises(ValueError):
            prune(tree, -0.1)

    def test_matches_subtree_enumeration(self):
        """prune() attains the exact minimum cost over all pruned subtrees."""
        rng = np.random.default_rng(2024)
        for trial in range(12):
            tree = random_tree(rng, n=int(rng.integers(40, 160)))
            n_root = tree.root.n_node
            candidates = enumerate_pruned_terminal_sets(tree)
            for alpha in [0.0, 1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0]:
                pruned = prune(tree, alpha)
                got = cost_complexity(pruned, alpha)
                best = min(terminal_set_cost(tree, ts, alpha) for ts in candidates)
                assert got == best, f"trial {trial}, alpha {alpha}"

    def test_matches_weakest_link_loop_exactly(self):
        """Same node ids, dict order and node fields as the round-by-round loop."""
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(20, 501))
            p = int(rng.integers(1, 5))
            if trial % 2:
                X = rng.integers(0, 5, size=(n, p)).astype(float)
            else:
                X = rng.normal(size=(n, p))
            y = (X[:, 0] + rng.normal(size=n) > 0.5).astype(int)
            depth, minsplit = int(rng.integers(1, 12)), int(rng.integers(2, 9))
            tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=depth, minsplit=minsplit))
            leaves = len(tree.terminal_ids())
            alphas = [0.0, 1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0]
            alphas += [k / (n * L) for k in (1, 2, 3) for L in (1, 2, 3, max(leaves - 1, 1))]
            alphas += [cp_to_alpha(tree, cp) for cp in (1e-4, 1e-3, 0.01, 0.03, 0.1, 0.5)]
            for alpha in alphas:
                got = prune(tree, alpha)
                want = weakest_link_prune(tree, alpha)
                assert list(got.nodes) == list(want.nodes), f"trial {trial}, alpha {alpha}"
                assert got.nodes == want.nodes, f"trial {trial}, alpha {alpha}"

    def test_leaves_the_input_tree_unchanged(self):
        tree = random_tree(np.random.default_rng(5))
        before = tree_to_dict(tree)
        pruned = prune(tree, 0.02)
        assert len(pruned.nodes) < len(tree.nodes)
        assert tree_to_dict(tree) == before
        assert all(pruned.nodes[nid] is not tree.nodes[nid] for nid in pruned.nodes)

    def test_nesting_in_alpha(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            tree = random_tree(rng)
            alphas = [0.0, 0.002, 0.01, 0.05, 0.2]
            terminal_sets = [set(prune(tree, a).terminal_ids()) for a in alphas]
            for small, large in zip(terminal_sets[:-1], terminal_sets[1:]):
                # larger alpha -> coarser partition: each terminal of the
                # smaller tree is an ancestor-or-equal of some terminal kept before
                assert len(large) <= len(small)

            def covers(coarse, fine):
                ancestors = set()
                for t in fine:
                    node = t
                    while node >= 1:
                        ancestors.add(node)
                        node //= 2
                return coarse <= ancestors

            for small, large in zip(terminal_sets[:-1], terminal_sets[1:]):
                assert covers(large, small)


# ---------------------------------------------------------------------------
# routing and reporting
# ---------------------------------------------------------------------------


class TestClassify:
    def test_root_only(self):
        ds = make_dataset(np.arange(6.0)[:, None], [1, 1, 1, 1, 0, 0])
        tree = grow(ds, TreeHyperparams(maxdepth=1, minsplit=100))
        nid = tree.classify(np.array([3.0]))
        assert nid == 1 and tree.nodes[nid].beta_f == 1

    def test_stump_routing(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree = grow(make_dataset(X, [0, 0, 1, 1]), TreeHyperparams(maxdepth=1, minsplit=2))
        nid = tree.classify(np.array([1.0]))
        assert nid == 2 and tree.nodes[nid].beta_f == 0
        nid = tree.classify(np.array([3.7]))
        assert nid == 3 and tree.nodes[nid].beta_f == 1

    def test_partition_of_random_rows(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0.2).astype(int)
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=4))
        fresh = rng.normal(size=(1000, 3))
        assigned = tree.classify_batch(fresh)
        assert assigned.shape == (1000,)
        terminals = set(tree.terminal_ids())
        assert set(np.unique(assigned)) <= terminals
        singles = np.array([tree.classify(row) for row in fresh])
        np.testing.assert_array_equal(assigned, singles)

    def test_matches_reference_router_on_a_portfolio(self):
        ds = simulate(SimConfig(n=3000, seed=7)).dataset
        tree = grow(ds, TreeHyperparams(maxdepth=12))
        X = feature_matrix(simulate(SimConfig(n=2000, seed=8)).dataset)[0]
        X[::7, ::3] = np.nan
        X[1::7, ::2] = np.inf
        X[2::7, 1::2] = -np.inf
        want = reference_classify_batch(tree, X)
        assert len(set(want.tolist())) > 20
        # feature_matrix's F order, C order and strided views route alike
        wide = np.column_stack([X, X])
        for batch in (X, np.ascontiguousarray(X), wide[:, :X.shape[1]], wide[:, X.shape[1]:]):
            np.testing.assert_array_equal(tree.classify_batch(batch), want)
        np.testing.assert_array_equal(tree.classify_batch(X[::-3]), want[::-3])
        assert [tree.classify(row) for row in X[:300]] == want[:300].tolist()

    def test_nan_goes_right(self):
        tree = random_tree(np.random.default_rng(3), maxdepth=6)
        nid = 1
        while not tree.nodes[nid].is_terminal:
            nid = 2 * nid + 1
        nan_rows = np.full((2, 3), np.nan)
        np.testing.assert_array_equal(tree.classify_batch(nan_rows), [nid, nid])
        assert tree.classify(nan_rows[0]) == nid

    def test_routing_table_is_not_a_tree_field(self):
        tree = random_tree(np.random.default_rng(4), maxdepth=6)
        X = np.random.default_rng(5).normal(size=(200, 3))
        tree.classify_batch(X)  # builds the table
        assert tree == replace(tree) and "routing" not in tree_to_dict(tree)
        cut = truncate(tree, replace(tree.hyperparams, maxdepth=2))
        assert cut.depth() == 2
        np.testing.assert_array_equal(cut.classify_batch(X), reference_classify_batch(cut, X))

    def test_terminals_take_the_first_routing_positions(self):
        tree = random_tree(np.random.default_rng(7), maxdepth=6)
        table, terminals = tree.routing, tree.terminal_ids()
        assert len(terminals) > 2
        assert table.node_id[:len(terminals)].tolist() == terminals
        assert sorted(table.node_id.tolist()) == sorted(tree.nodes)
        assert table.node_id[table.root] == 1
        X = np.random.default_rng(8).normal(size=(500, 3))
        slots = tree.terminal_slots(X)
        assert slots.max() < len(terminals)
        np.testing.assert_array_equal(np.asarray(terminals)[slots], tree.classify_batch(X))

    def test_root_only_tree_has_one_slot(self):
        tree = grow(make_dataset(np.arange(4.0)[:, None], [1, 1, 1, 1]))
        assert tree.routing.root == 0 and tree.routing.node_id.tolist() == [1]
        np.testing.assert_array_equal(tree.terminal_slots(np.zeros((3, 1))), [0, 0, 0])

    def test_empty_batch(self):
        tree = random_tree(np.random.default_rng(6))
        out = tree.classify_batch(np.empty((0, 3)))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_wrong_width_errors(self):
        tree = grow(make_dataset(np.arange(4.0)[:, None], [0, 0, 1, 1]))
        with pytest.raises(ValueError, match="feature"):
            tree.classify(np.array([1.0, 2.0]))

    def test_batch_wrong_width_errors(self):
        ds = simulate(SimConfig(n=1000, seed=7)).dataset
        tree = grow(ds, TreeHyperparams(maxdepth=3))
        X, names = feature_matrix(ds)
        assert tree.classify_batch(X).shape == (ds.n,)
        expected = f"expected {len(names)} feature values"
        with pytest.raises(ValueError, match=expected):
            tree.classify_batch(np.column_stack([X, np.zeros((ds.n, 5))]))  # extra columns
        with pytest.raises(ValueError, match=expected):
            tree.classify_batch(X[:, :3])
        with pytest.raises(ValueError, match=expected):
            tree.classify_batch(X[0])
        with pytest.raises(ValueError, match=expected):
            tree.terminal_slots(X[:, :3])


class TestTreeFromDict:
    @pytest.mark.parametrize("key, value, problem", [
        ("gain", "abc", "node 1 gain must be a finite number, got 'abc'"),
        ("gain", float("nan"), "node 1 gain must be a finite number, got nan"),
        ("gain", float("inf"), "node 1 gain must be a finite number, got inf"),
        ("n_positive", 10**6, r"node 1 n_positive 1000000 lies outside \[0, 600\]"),
        ("n_positive", -1, r"node 1 n_positive -1 lies outside \[0, 600\]"),
    ], ids=["gain string", "gain nan", "gain inf", "n_positive above n", "n_positive negative"])
    def test_unusable_node_is_named(self, key, value, problem):
        stored = tree_to_dict(grow(simulate(SimConfig(n=600, seed=4)).dataset, TreeHyperparams(maxdepth=2)))
        assert "split" in stored["root"]
        stored["root"][key] = value
        with pytest.raises(ValueError, match=problem):
            tree_from_dict(stored)


class TestVariableImportance:
    def test_stump_gives_100_to_split_feature(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([rng.normal(size=40), np.repeat([0.0, 4.0], 20)])
        y = np.repeat([0, 1], 20)
        tree = grow(make_dataset(X, y), TreeHyperparams(maxdepth=1, minsplit=2))
        imp = variable_importance(tree)
        assert imp["f1"] == 100.0
        assert imp["f0"] == 0.0

    def test_unsplit_tree_all_zero(self):
        ds = make_dataset(np.arange(5.0)[:, None], np.zeros(5))
        imp = variable_importance(grow(ds))
        assert set(imp.values()) == {0.0}

    def test_max_is_100(self):
        tree = random_tree(np.random.default_rng(21))
        imp = variable_importance(tree)
        assert max(imp.values()) == pytest.approx(100.0)


class TestDotExport:
    def test_dot_structure(self):
        tree = random_tree(np.random.default_rng(3))
        dot = to_dot(tree)
        assert dot.startswith("digraph")
        assert dot.count("{") == dot.count("}")
        for nid in tree.nodes:
            assert f"  {nid} [label=" in dot
        n_edges = dot.count("->")
        assert n_edges == 2 * len(split_ids(tree))
