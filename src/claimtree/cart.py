"""Binary classification tree for claim occurrence.

Recursive binary splitting on the weighted-impurity criterion, cost-complexity
pruning on misclassification loss in one bottom-up pass, routing through
one flat node table, variable importance and DOT export. Node ids follow
the heap convention: root is 1, the children of node m are 2m and 2m+1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, Encoding, feature_matrix, require_int, require_real


def _impurity_vec(name: str, p: np.ndarray) -> np.ndarray:
    # Each formula is written once, element-wise: the split search scores
    # candidates with it and the scalar functions below wrap it.
    if name == "gini":
        return 2.0 * p * (1.0 - p)
    if name == "misclassification":
        return 1.0 - np.maximum(p, 1.0 - p)
    if name == "entropy":
        left = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        q = 1.0 - p
        right = np.where(q > 0.0, -q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        return left + right
    raise ValueError(f"unknown impurity {name!r}")


def _impurity(name: str, p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"proportion outside [0, 1]: {p}")
    return float(_impurity_vec(name, np.float64(p)))


def gini(p: float) -> float:
    """Gini impurity 2p(1-p) of a binary node with positive share p."""
    return _impurity("gini", p)


def misclassification(p: float) -> float:
    """Misclassification rate 1 - max(p, 1-p)."""
    return _impurity("misclassification", p)


def entropy(p: float) -> float:
    """Binary cross-entropy -p ln p - (1-p) ln(1-p), with 0 ln 0 = 0."""
    return _impurity("entropy", p)


IMPURITIES = {"gini": gini, "misclassification": misclassification, "entropy": entropy}

# Deepest tree allowed, as in rpart: heap node ids then stay below 2**31.
MAX_DEPTH = 30

# Split search scores a block of about this many (row, feature) cells per
# set of numpy calls: on small nodes one call then covers many features,
# and each temporary stays near 64 KB (one column on nodes above 8192 rows)
# instead of growing with the node's full width.
_SPLIT_BLOCK_CELLS = 2**13

# A feature with at most this many distinct values at the root is searched
# from per-value counts, not by scanning its sorted rows (see _SplitSearch).
# Measured on the seed-7 portfolio with its 30 four-valued columns redrawn
# with K values, default tree: counting grows it as fast as scanning at
# K = 16 on 800 rows (8.3 ms both) and faster on 10k rows (67 vs 88 ms),
# but at K = 64 it is 20% slower on 800 rows, where small nodes dominate.
_COUNTED_MAX_VALUES = 16


@dataclass(frozen=True)
class SplitRule:
    """Axis-aligned split: rows with feature < threshold go left."""

    feature: int
    threshold: float


@dataclass
class TreeNode:
    id: int
    n_node: int
    n_positive: int
    split: SplitRule | None = None
    gain: float = 0.0  # weighted impurity decrease, weights relative to root

    @property
    def depth(self) -> int:
        """Edges from the root, read off the heap id: node m lies at depth floor(log2 m)."""
        return self.id.bit_length() - 1

    @property
    def is_terminal(self) -> bool:
        return self.split is None

    @property
    def beta_f(self) -> int:
        """Majority class: 1 iff strictly more than half the rows are positive."""
        return int(self.n_positive * 2 > self.n_node)

    @property
    def misclassified(self) -> int:
        return min(self.n_positive, self.n_node - self.n_positive)


@dataclass(frozen=True)
class TreeHyperparams:
    cp: float = 0.0
    maxdepth: int = 8
    minsplit: int = 8
    impurity: str = "gini"

    def __post_init__(self):
        require_int(maxdepth=self.maxdepth, minsplit=self.minsplit)
        require_real(cp=self.cp)
        if self.cp < 0:
            raise ValueError("cp must be >= 0")
        if not 1 <= self.maxdepth <= MAX_DEPTH:
            raise ValueError(f"maxdepth must lie in [1, {MAX_DEPTH}]")
        if self.minsplit < 2:
            raise ValueError("minsplit must be >= 2")
        if self.impurity not in IMPURITIES:
            raise ValueError(f"unknown impurity {self.impurity!r}")


@dataclass
class Tree:
    """Fitted occurrence tree. Immutable after growth; prune returns a copy."""

    nodes: dict[int, TreeNode]
    feature_names: list[str]
    hyperparams: TreeHyperparams

    @property
    def root(self) -> TreeNode:
        return self.nodes[1]

    def terminal_ids(self) -> list[int]:
        return sorted(nid for nid, nd in self.nodes.items() if nd.is_terminal)

    def depth(self) -> int:
        return max(nd.depth for nd in self.nodes.values())

    @cached_property
    def routing(self) -> RoutingTable:
        """The flat routing table, built on first use: a tree is not changed
        after growth (prune and truncate return new trees)."""
        return RoutingTable(self)

    def classify(self, x: np.ndarray) -> int:
        """Route one feature row to its terminal; returns the terminal's node id."""
        return self.routing.node_id_list[self.terminal_slot(x)]

    def terminal_slot(self, x: np.ndarray) -> int:
        """The index in ``terminal_ids()`` of the terminal one encoded
        feature row reaches, by a walk down the routing table's prebuilt
        ``walk`` record. A NaN value goes right. Raises ValueError unless
        ``x`` holds one value per feature."""
        x = np.asarray(x, dtype=float)
        shape, k, feature, threshold, left, right = self.routing.walk
        if x.shape != shape:
            raise ValueError(f"expected {shape[0]} feature values, got {x.shape}")
        cells = memoryview(x)  # reads each cell as a Python float, cheaper than x[f]
        while (f := feature[k]) >= 0:
            k = left[k] if cells[f] < threshold[k] else right[k]
        return k

    def terminal_slots(self, X: np.ndarray) -> np.ndarray:
        """For every row of the encoded feature matrix X, the index of its
        terminal in ``terminal_ids()``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values per row, got shape {X.shape}"
            )
        return self.routing.route(X, self.routing.encoded)

    def dataset_slots(self, ds: Dataset) -> np.ndarray:
        """For every row of ``ds``, the index of its terminal in
        ``terminal_ids()``, read off the Dataset's own table: the slots
        ``terminal_slots(feature_matrix(ds)[0])`` gives, with no encoded
        matrix built. Raises ValueError unless ``ds`` encodes to the tree's
        feature names."""
        return self.routing.route(ds.values, self.routing.tests(ds.encoding))

    def classify_batch(self, X: np.ndarray) -> np.ndarray:
        """Terminal node id for every row of X."""
        return self.routing.node_id.take(self.terminal_slots(X))

    def training_misclassification(self) -> float:
        """Share of training rows misclassified by the terminal majority votes."""
        total = sum(self.nodes[t].misclassified for t in self.terminal_ids())
        return total / self.root.n_node


class RoutingTable:
    """A tree flattened for routing: one entry per node, by compact position.

    Positions 0..T-1 hold the T terminals in ``Tree.terminal_ids()`` order
    and the internal nodes follow in heap-id order, so the table's size is
    the node count whatever the heap ids (which reach 2**31 at
    ``MAX_DEPTH``), and the position a row reaches is its terminal slot.
    ``root`` is the root's position, where every walk starts. Per position
    the table holds the split feature (-1 at a terminal), the threshold,
    both children and the heap id. The single-row walk reads one prebuilt
    record, ``walk``: the row shape it accepts, ``root`` and the feature,
    threshold, left and right child of every position as plain lists.

    A batch is routed by one walk (:meth:`route`) over a table of values
    and a test per position, ``(source, lo, hi)``: a row at k reads its
    value v in column ``source[k]`` and goes left iff ``v < lo[k]`` or
    ``v > hi[k]``; ``depth`` such steps take every row to its terminal.
    ``hi`` is None when every entry of it would be +inf, and the walk then
    makes the one test ``v < lo[k]``. On the encoded matrix (``encoded``)
    each feature is its own source and a split at t is ``(t, +inf)``, so
    the test is always one-sided and a NaN compares False and goes right.
    On a Dataset's table (:meth:`tests`) a split reads its feature's source
    column, and one on the indicator of category level l compares the
    category index itself; only such a split at t > 0 makes the tests
    two-sided. The walk tracks each row's entry ``2k``: the
    tests hold every position's value at both its entries, and ``child``
    holds the entry of the left child at ``2k + 1`` and of the right one at
    ``2k`` (a terminal's are its own), so a row moves to
    ``child[2k + go_left]``.
    """

    def __init__(self, tree: Tree):
        ids = tree.terminal_ids() + sorted(nid for nid, nd in tree.nodes.items() if not nd.is_terminal)
        at = {nid: k for k, nid in enumerate(ids)}
        splits = [tree.nodes[nid].split for nid in ids]
        feature = [-1 if s is None else s.feature for s in splits]
        threshold = [0.0 if s is None else s.threshold for s in splits]
        left = [k if s is None else at[2 * nid] for k, (nid, s) in enumerate(zip(ids, splits))]
        right = [k if s is None else at[2 * nid + 1] for k, (nid, s) in enumerate(zip(ids, splits))]
        self.feature_names = tree.feature_names
        self.node_id_list = ids
        self.root = at[1]
        self.walk = ((len(tree.feature_names),), self.root, feature, threshold, left, right)
        self.depth = max(ids).bit_length() - 1
        self.child = 2 * np.column_stack([right, left]).astype(np.intp).ravel()
        self.node_id = np.array(ids, dtype=np.int64)
        self.encoded = (
            np.repeat(np.array(feature, dtype=np.intp), 2), np.repeat(np.array(threshold, dtype=float), 2), None,
        )
        self._tests: dict[Encoding, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}

    def tests(self, encoding: Encoding) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The ``(source, lo, hi)`` tests, per entry, on the table of a
        Dataset whose schema's :class:`~claimtree.data.Encoding` is
        ``encoding``, built once per Encoding object.

        A continuous split at t is ``(t, +inf)``. A Dataset's categorical
        cell is an exact category index, so a split at t on the indicator
        of level l, which sends a row left iff its indicator is below t, is
        ``(l, l)`` (left unless the cell is l) for ``0 < t <= 1``,
        ``(+inf, -inf)`` (always left) for ``t > 1`` and ``(-inf, +inf)``
        (always right) for ``t <= 0``; ``hi`` is None when all of it is
        +inf, so a tree without an indicator split at t > 0 is routed with
        one comparison per level. Raises ValueError unless the encoding's
        names are the tree's feature names.
        """
        if (found := self._tests.get(encoding)) is not None:
            return found
        if list(encoding.names) != self.feature_names:
            raise ValueError(
                f"dataset features do not match the tree's "
                f"(expected {self.feature_names}, got {list(encoding.names)})"
            )
        # entry -1 stands for a terminal's feature -1: source -1, level 0
        feature, t, _ = self.encoded  # per entry, as the tests built here
        source = np.append(encoding.source, -1).take(feature)
        level = np.append(encoding.level, 0).take(feature)
        indicator = level > 0
        lo = np.where(indicator, np.where(t > 1.0, np.inf, np.where(t > 0.0, level, -np.inf)), t)
        hi = np.where(indicator, np.where(t > 1.0, -np.inf, np.where(t > 0.0, level, np.inf)), np.inf)
        found = self._tests[encoding] = (source, lo, None if (hi == np.inf).all() else hi)
        return found

    def route(self, values: np.ndarray, tests) -> np.ndarray:
        """Slot of the terminal that each row of the 2-D float ``values``
        reaches under the per-entry ``(source, lo, hi)`` tests; a ``hi`` of
        None stands for +inf at every entry."""
        source, lo, hi = tests
        n, p = values.shape
        # Cell (r, j) is flat[r * row_step + j * col_step]. For an F- or
        # C-ordered table (a Dataset's, or feature_matrix's F order) the
        # ravel is a view, so only a table in neither order is copied. A
        # terminal's source -1 reads some valid cell, and both its children
        # are itself.
        if values.flags.f_contiguous:
            flat, row_step, col_step = values.ravel(order="F"), 1, n
        else:
            flat, row_step, col_step = values.ravel(), p, 1
        source = source * col_step
        rows = np.arange(n, dtype=np.intp) * row_step
        entry = np.full(n, 2 * self.root, dtype=np.intp)
        for _ in range(self.depth):
            cell = source.take(entry)
            cell += rows
            v = flat.take(cell)
            go_left = v < lo.take(entry)
            if hi is not None:
                go_left |= v > hi.take(entry)
            entry += go_left
            entry = self.child.take(entry)
        return entry >> 1


def best_split(X: np.ndarray, y: np.ndarray, impurity: str = "gini") -> SplitRule | None:
    """Exhaustive best split of one node's rows.

    Scores every feature at every midpoint between consecutive distinct
    values by the weighted child impurity, with the search that
    :func:`grow` runs at each node (see :class:`_SplitSearch`). Ties go to
    the lowest feature index, then the lowest threshold. Returns None when
    no candidate strictly reduces the node impurity.
    """
    rule, _ = _best_split_scored(X, y, impurity)
    return rule


def _best_split_scored(X, y, impurity):
    # One node on its own: prepare its columns, then score as grow does.
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2 or X.shape[1] == 0:
        return None, 0.0
    search = _SplitSearch(np.ascontiguousarray(X.T))
    return search.score(search.order, np.asarray(y), impurity)


def _midpoint(a: float, b: float) -> float:
    """The threshold between consecutive distinct values a < b.

    It must satisfy a < t <= b so that rows go both ways: a/2 + b/2 cannot
    overflow and, for normal floats, has the bits of (a + b)/2; it rounds
    down to a when a and b are adjacent floats, and then b is taken.
    """
    mid = a / 2.0 + b / 2.0
    return float(mid if mid > a else b)


def _child_score(impurity, n_left, pos_left, n, pos_total):
    """Weighted child impurity of cuts sending ``n_left`` rows, ``pos_left``
    of them positive, left out of a node of ``n`` rows and ``pos_total``
    positives: one expression for every way of searching a feature."""
    n_right = n - n_left
    pos_right = pos_total - pos_left
    return (
        n_left * _impurity_vec(impurity, pos_left / n_left)
        + n_right * _impurity_vec(impurity, pos_right / n_right)
    ) / n


def _order_matters(xs: np.ndarray) -> bool:
    """Whether the order of a sorted column's tied rows can change a split.

    A node's candidates and counts depend only on which values are equal,
    and so do a split's bits, with two exceptions. NaN equals nothing, so
    every NaN row is its own value and the order of the NaN rows moves the
    cuts between them. And zeros of both signs are equal, but the midpoint
    of -5e-324 (the negative float nearest zero) and the zero after it is
    that zero, sign included; every other midpoint next to a zero drops
    the zero's sign.
    """
    if xs[-1] != xs[-1]:  # NaN, which every sort puts last
        return True
    zero = xs.searchsorted(0.0)
    return 0 < zero < xs.size and xs[zero] == 0.0 and xs[zero - 1] == -5e-324


class _SplitSearch:
    """Every feature of one root's rows prepared once for split search.

    A node's candidate splits on a feature are the midpoints between its
    consecutive distinct values, scored from the rows and positives at or
    below each value, so its best split depends only on which values are
    equal, never on the order of tied rows. Each feature is therefore
    sorted once, at the root, with numpy's default sort, which is not
    stable but several times faster than the stable one; only a column
    where the order of ties can matter (:func:`_order_matters`, never a
    Dataset's) is sorted stably, so its ties keep row-id order. Then:

    * a feature with at most ``_COUNTED_MAX_VALUES`` distinct values is
      *counted*: each row gets its value's code, and a node scores the
      feature from a ``np.bincount`` of its rows' (value, label) cells;
    * every other feature is *scanned*: a node holds its row ids sorted by
      the feature and scores the cut after every position but those
      between equal values. A feature with no tied values at the root has
      none at any node and skips that check.

    ``order`` is the root's ``(len(scanned), N)`` array of sorted row ids,
    in ``scanned`` order; a node carries its own such array, the rows of
    its parent's filtered by one mask. With no scanned feature, ``order``
    is the single row of row ids, so a node's rows are always its
    ``order[0]``. Every result has the bits the stable-sort search over
    every feature gave, tie rules included.
    """

    def __init__(self, XT: np.ndarray):
        self.XT = XT
        p, N = XT.shape
        # Scanned features' sorted row ids fill a (p, N) buffer from the
        # top, the array sorting every feature would fill, and counted
        # features' value indices (below _COUNTED_MAX_VALUES <= 256) fill a
        # byte buffer the same way. Rows left unwritten are never touched.
        order, value = np.empty((p, N), dtype=np.intp), np.empty((p, N), dtype=np.uint8)
        scanned, tied, counted, levels = [], [], [], []
        for j in range(p):
            rows = XT[j].argsort()
            xs = XT[j].take(rows)
            new = xs[1:] != xs[:-1]  # where the sorted values change
            n_values = 1 + int(np.count_nonzero(new))
            if _order_matters(xs):
                rows = XT[j].argsort(kind="stable")
            elif n_values <= _COUNTED_MAX_VALUES:
                code = value[len(counted)]  # index of each row's value, 0 at the smallest
                code[rows[0]] = 0
                code[rows[1:]] = np.cumsum(new)
                levels.append(np.concatenate((xs[:1], xs[1:][new])))
                counted.append(j)
                continue
            order[len(scanned)] = rows
            scanned.append(j)
            tied.append(n_values < N)
        self.scanned = np.array(scanned, dtype=np.intp)
        self.tied = np.array(tied, dtype=bool)
        self.counted = np.array(counted, dtype=np.intp)
        # Counted feature i's values, ascending, padded to the widest, and
        # its codes 2 * (i * width + value index), the first of its two
        # (value, label) cells, in the smallest unsigned dtype that holds
        # them all: no number of features can overflow it.
        width = max((v.size for v in levels), default=0)
        self.levels = np.zeros((len(counted), width))
        for i, values in enumerate(levels):
            self.levels[i, :values.size] = values
        dtype = np.min_scalar_type(2 * width * len(counted))
        self.codes = value[:len(counted)].astype(dtype)
        self.codes += (width * np.arange(len(counted), dtype=dtype))[:, None]
        self.codes <<= 1
        # The root's order; grow hands it to the root node and drops it here.
        self.order = order[:len(scanned)] if scanned else np.arange(N, dtype=np.intp)[None, :]

    def score(self, order, y, impurity):
        """Best split of the node whose rows, sorted by each scanned
        feature, are ``order``, with labels ``y`` indexed by row id.

        Returns ``(SplitRule, impurity decrease)``, or ``(None, 0.0)`` when
        no candidate strictly reduces the node impurity.
        """
        n = order.shape[1]
        rows = order[0]
        y_rows = y.take(rows)
        pos_total = int(y_rows.sum())
        parent = float(_impurity_vec(impurity, np.array([pos_total / n]))[0])
        # The best (score, feature, threshold) so far: comparing (score,
        # feature) pairs keeps ties on the lowest feature across blocks and
        # both kinds of search, and a first argmin within a block keeps
        # them on the lowest feature, then the lowest threshold.
        best = (parent, -1, 0.0)
        # Each block of features is scored in one set of numpy calls.
        width = max(1, _SPLIT_BLOCK_CELLS // n)
        m = self.levels.shape[1]
        for i0 in range(0, self.counted.size, width):
            # Cell 2 * (i * m + v) + label counts the block's feature i
            # rows at value index v with that label. The cut after v sends
            # the rows at or below v left; it is a candidate iff rows lie at
            # v and above v.
            cells = np.add(self.codes[i0:i0 + width].take(rows, axis=1), y_rows)
            counts = np.bincount(cells.ravel(), minlength=2 * m * (i0 + cells.shape[0]))
            counts = counts[2 * m * i0:].reshape(-1, m, 2)
            pos_at = counts[:, :, 1]
            n_at = counts[:, :, 0] + pos_at
            n_left = n_at.cumsum(axis=1)[:, :-1]
            cut = np.flatnonzero((n_at[:, :-1] > 0) & (n_left < n))
            if cut.size == 0:
                continue
            pos_left = pos_at[:, :-1].cumsum(axis=1)
            score = _child_score(impurity, n_left.take(cut), pos_left.take(cut), n, pos_total)
            k = int(np.argmin(score))
            f, v = divmod(int(cut[k]), m - 1)
            if (score[k], self.counted[i0 + f]) < best[:2]:
                w = v + 1 + int(np.argmax(n_at[f, v + 1:] > 0))  # the next value present
                a, b = self.levels[i0 + f, v], self.levels[i0 + f, w]
                best = (float(score[k]), int(self.counted[i0 + f]), _midpoint(a, b))
        # Candidate k of a scanned feature cuts its sorted rows after
        # position k: k + 1 rows go left. Positions between equal values
        # are set to inf.
        n_left = np.arange(1, n)
        N = self.XT.shape[1]
        for j0 in range(0, self.scanned.size, width):
            ids = order[j0:j0 + width]
            features = self.scanned[j0:j0 + ids.shape[0]]
            score = _child_score(impurity, n_left, np.cumsum(y[ids], axis=1)[:, :-1], n, pos_total)
            if self.tied[j0:j0 + ids.shape[0]].any():
                # flat positions j * N + row of the block's sorted values in XT
                xs = self.XT.take(ids + (features * N)[:, None])
                score[xs[:, 1:] == xs[:, :-1]] = np.inf
            f, k = divmod(int(np.argmin(score)), n - 1)
            if (score[f, k], features[f]) < best[:2]:
                a, b = self.XT[features[f], ids[f, k]], self.XT[features[f], ids[f, k + 1]]
                best = (float(score[f, k]), int(features[f]), _midpoint(a, b))
        score, feature, threshold = best
        if feature < 0:
            return None, 0.0
        return SplitRule(feature, threshold), parent - score


def _searchable(hp: TreeHyperparams, depth: int, n: int, n_positive: int) -> bool:
    """Whether a node at ``depth`` with ``n`` rows, ``n_positive`` of them claims, is searched for a split."""
    return depth < hp.maxdepth and n >= hp.minsplit and 0 < n_positive < n


def grow(ds: Dataset, hyperparams: TreeHyperparams | None = None) -> Tree:
    """Grow a fully developed occurrence tree by recursive binary splitting.

    Stops at maxdepth, below minsplit rows, on pure nodes, or when no split
    reduces impurity. ``cp`` is not applied here; see :func:`prune`.

    Each feature is prepared once per tree, at the root, by
    :class:`_SplitSearch`: a feature with few distinct values gets a value
    code per row and is scored from counts; every other one is sorted, and
    a node holds its row ids sorted by each such feature. A split filters
    them into its children by one mask, which keeps each child's rows in
    sorted order. Tied rows keep the root sort's order, which cannot change
    a tree: a node's candidates and counts depend only on which values are
    equal.
    """
    if hyperparams is None:
        hyperparams = TreeHyperparams()
    if ds.n == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    X, names = feature_matrix(ds)
    XT = np.ascontiguousarray(X.T)
    del X
    y = ds.occurrence
    root_n = ds.n
    nodes: dict[int, TreeNode] = {}

    # Depth-first in pre-order. A node that cannot be split carries no
    # order, and a parent's order is dropped when its first child is popped:
    # the pending right siblings on the stack hold disjoint rows, so the
    # live orders below the root total at most one root order.
    pos_root = int(y.sum())
    search = order = None
    if _searchable(hyperparams, 0, root_n, pos_root):
        search = _SplitSearch(XT)
        order, search.order = search.order, None
    stack = [(1, 0, root_n, pos_root, order)]
    while stack:
        nid, depth, n, n_positive, order = stack.pop()
        node = TreeNode(id=nid, n_node=n, n_positive=n_positive)
        nodes[nid] = node
        if order is None:
            continue
        rule, gain = search.score(order, y, hyperparams.impurity)
        if rule is None:
            continue
        node.split = rule
        node.gain = gain * n / root_n
        f = rule.feature
        left_rows = order[0].compress(XT[f].take(order[0]) < rule.threshold)
        n_left, pos_left = left_rows.size, int(y[left_rows].sum())
        n_right, pos_right = n - n_left, n_positive - pos_left
        left_ok = _searchable(hyperparams, depth + 1, n_left, pos_left)
        right_ok = _searchable(hyperparams, depth + 1, n_right, pos_right)
        left = right = None
        if left_ok or right_ok:
            go_left = (XT[f].take(order) < rule.threshold).ravel()
            if left_ok:
                left = order.compress(go_left).reshape(-1, n_left)
            if right_ok:
                right = order.compress(~go_left).reshape(-1, n_right)
        stack.append((2 * nid + 1, depth + 1, n_right, pos_right, right))
        stack.append((2 * nid, depth + 1, n_left, pos_left, left))
    return Tree(nodes=nodes, feature_names=names, hyperparams=hyperparams)


def truncate(tree: Tree, hyperparams: TreeHyperparams) -> Tree:
    """The tree that ``grow(ds, hyperparams)`` gives, cut from ``tree``.

    ``tree`` must have been grown on the same rows of ``ds`` with the same
    impurity, a maxdepth at least as large and a minsplit at least as
    small. Split choice never depends on maxdepth or minsplit: they only
    decide which nodes are searched. So a kept node becomes terminal when
    the stop rule (:func:`_searchable`) under ``hyperparams`` does not let
    it be searched, and its descendants are dropped. Nodes
    are copied and kept in pre-order; the result carries ``hyperparams``,
    cp included. Raises ValueError when ``tree`` cannot produce them.
    """
    if not covers(tree.hyperparams, hyperparams):
        raise ValueError(
            f"a tree grown with {tree.hyperparams} cannot be truncated to {hyperparams}"
        )
    nodes: dict[int, TreeNode] = {}
    for nid, nd in tree.nodes.items():  # pre-order: a parent comes before its children
        parent = nodes.get(nid // 2)
        if nid > 1 and (parent is None or parent.is_terminal):
            continue
        if _searchable(hyperparams, nd.depth, nd.n_node, nd.n_positive):
            nodes[nid] = TreeNode(nid, nd.n_node, nd.n_positive, nd.split, nd.gain)
        else:
            nodes[nid] = TreeNode(nid, nd.n_node, nd.n_positive)
    return Tree(nodes=nodes, feature_names=tree.feature_names, hyperparams=hyperparams)


def covers(grown: TreeHyperparams, wanted: TreeHyperparams) -> bool:
    """Whether a tree grown with ``grown`` can be truncated to ``wanted``."""
    return (
        grown.impurity == wanted.impurity
        and grown.maxdepth >= wanted.maxdepth
        and grown.minsplit <= wanted.minsplit
    )


def prune(tree: Tree, alpha: float) -> Tree:
    """Cost-complexity pruning in one bottom-up pass.

    Returns the subtree that weakest-link pruning reaches: the largest one
    minimizing total misclassification loss plus ``alpha`` per terminal.
    Children are pruned first; a node's link cost g is then taken on its
    already-pruned subtree and the link is cut when g is strictly below
    alpha, so alpha = 0 returns the tree unchanged and the returned subtrees
    are nested in alpha. Nodes are copied and kept in pre-order.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n_root = tree.root.n_node
    kept: list[TreeNode] = []

    def visit(nid: int) -> tuple[int, int]:
        # (misclassified count over the pruned subtree's terminals, their number)
        nd = tree.nodes[nid]
        node = TreeNode(nid, nd.n_node, nd.n_positive, nd.split, nd.gain)
        at = len(kept)
        kept.append(node)
        if node.is_terminal:
            return node.misclassified, 1
        ml, tl = visit(2 * nid)
        mr, tr = visit(2 * nid + 1)
        m_sub, t_sub = ml + mr, tl + tr
        # link cost g = (R(node) - R(subtree)) / (|subtree| - 1), losses over n_root
        if (node.misclassified - m_sub) / (n_root * (t_sub - 1)) < alpha:
            del kept[at + 1:]
            node.split, node.gain = None, 0.0
            return node.misclassified, 1
        return m_sub, t_sub

    visit(1)
    nodes = {nd.id: nd for nd in kept}
    return Tree(nodes=nodes, feature_names=tree.feature_names, hyperparams=tree.hyperparams)


def cost_complexity(tree: Tree, alpha: float) -> float:
    """Total terminal misclassification loss plus alpha per terminal."""
    return tree.training_misclassification() + alpha * len(tree.terminal_ids())


def cp_to_alpha(tree: Tree, cp: float) -> float:
    """Map the scale-free cp to the absolute penalty: alpha = cp * root loss."""
    root = tree.root
    return cp * (root.misclassified / root.n_node)


def variable_importance(tree: Tree) -> dict[str, float]:
    """Per-feature sum of split impurity decreases, rescaled so max is 100."""
    raw = {name: 0.0 for name in tree.feature_names}
    for nd in tree.nodes.values():
        if nd.split is not None:
            raw[tree.feature_names[nd.split.feature]] += nd.gain
    top = max(raw.values(), default=0.0)
    if top <= 0.0:
        return raw
    return {name: 100.0 * v / top for name, v in raw.items()}


def to_dot(tree: Tree) -> str:
    """Render the tree as Graphviz DOT text."""
    lines = ['digraph "occurrence_tree" {', "  node [shape=box, fontname=Helvetica];"]
    for nid in sorted(tree.nodes):
        nd = tree.nodes[nid]
        frac = nd.n_positive / nd.n_node if nd.n_node else 0.0
        label = f"#{nid}\\nn={nd.n_node} pos={frac:.3f}"
        if nd.split is not None:
            label += f"\\n{tree.feature_names[nd.split.feature]} < {nd.split.threshold:g}"
        else:
            label += f"\\nclass={nd.beta_f}"
        lines.append(f'  {nid} [label="{label}"];')
    for nid in sorted(tree.nodes):
        nd = tree.nodes[nid]
        if nd.split is not None:
            lines.append(f'  {nid} -> {2 * nid} [label="yes"];')
            lines.append(f'  {nid} -> {2 * nid + 1} [label="no"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_dict(tree: Tree) -> dict:
    def node_dict(nid: int) -> dict:
        nd = tree.nodes[nid]
        out = {
            "id": nd.id,
            "n": nd.n_node,
            "n_positive": nd.n_positive,
            "beta_f": nd.beta_f,
        }
        if nd.split is not None:
            out["split"] = {
                "feature": nd.split.feature,
                "threshold": nd.split.threshold,
            }
            out["gain"] = nd.gain
            out["left"] = node_dict(2 * nid)
            out["right"] = node_dict(2 * nid + 1)
        return out

    return {
        "feature_names": list(tree.feature_names),
        "hyperparams": asdict(tree.hyperparams),
        "root": node_dict(1),
    }


def tree_from_dict(d: dict) -> Tree:
    """Rebuild a tree written by :func:`tree_to_dict`.

    Each child's id is derived from its parent's (root 1, children 2m and
    2m+1) and a stored id that differs is rejected, as are counts that
    are not ints with ``0 <= n_positive <= n``, a split on a feature
    outside ``feature_names`` or at a threshold that is not a finite
    number, and a gain that is not a finite number. Raises ValueError
    naming the first bad node.
    """
    hp = TreeHyperparams(**d["hyperparams"])
    names = list(d["feature_names"])
    nodes: dict[int, TreeNode] = {}

    def build(entry: dict, nid: int) -> None:
        if entry["id"] != nid:
            raise ValueError(f"node id {entry['id']!r} where node {nid} belongs")
        if nid >= 2 ** (MAX_DEPTH + 1):  # routing keeps node ids in int64
            raise ValueError(f"node {nid} lies deeper than {MAX_DEPTH}")
        n, n_positive = entry["n"], entry["n_positive"]
        require_int(**{f"node {nid} n": n, f"node {nid} n_positive": n_positive})
        if not 0 <= n_positive <= n:
            raise ValueError(f"node {nid} n_positive {n_positive} lies outside [0, {n}]")
        node = TreeNode(id=nid, n_node=n, n_positive=n_positive)
        nodes[nid] = node  # before the children: pre-order, as grow and prune insert
        if "split" in entry:
            feature, threshold = entry["split"]["feature"], entry["split"]["threshold"]
            require_int(**{f"node {nid} split feature": feature})
            require_real(**{f"node {nid} split threshold": threshold})
            if not 0 <= feature < len(names):
                raise ValueError(f"node {nid} splits on feature {feature}, not one of the {len(names)}")
            node.split = SplitRule(feature, threshold)
            node.gain = entry.get("gain", 0.0)
            require_real(**{f"node {nid} gain": node.gain})
            build(entry["left"], 2 * nid)
            build(entry["right"], 2 * nid + 1)

    build(d["root"], 1)
    return Tree(nodes=nodes, feature_names=names, hyperparams=hp)
