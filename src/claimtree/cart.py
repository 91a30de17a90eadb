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

from .data import Dataset, feature_matrix, require_int, require_real


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
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values, got {x.shape}"
            )
        t = self.routing
        feature, threshold, left, right = t.feature_list, t.threshold_list, t.left_list, t.right_list
        k = t.root
        while (f := feature[k]) >= 0:
            k = left[k] if x[f] < threshold[k] else right[k]
        return t.node_id_list[k]

    def terminal_slots(self, X: np.ndarray) -> np.ndarray:
        """For every row of X, the index of its terminal in ``terminal_ids()``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values per row, got shape {X.shape}"
            )
        return self.routing.route(X)

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
    both children and the heap id. The children sit in ``child`` at
    ``2k + 1`` (left) and ``2k`` (right), and a terminal's are itself, so a
    row at k moves to ``child[2k + (x[feature[k]] < threshold[k])]``;
    ``depth`` such steps take every row to its terminal. A NaN compares
    False and goes right. The single-row walk reads the same columns as
    plain lists.
    """

    def __init__(self, tree: Tree):
        ids = tree.terminal_ids() + sorted(nid for nid, nd in tree.nodes.items() if not nd.is_terminal)
        at = {nid: k for k, nid in enumerate(ids)}
        splits = [tree.nodes[nid].split for nid in ids]
        feature = [-1 if s is None else s.feature for s in splits]
        threshold = [0.0 if s is None else s.threshold for s in splits]
        left = [k if s is None else at[2 * nid] for k, (nid, s) in enumerate(zip(ids, splits))]
        right = [k if s is None else at[2 * nid + 1] for k, (nid, s) in enumerate(zip(ids, splits))]
        self.feature_list, self.threshold_list = feature, threshold
        self.left_list, self.right_list = left, right
        self.node_id_list = ids
        self.root = at[1]
        self.depth = max(ids).bit_length() - 1
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.child = np.column_stack([right, left]).astype(np.intp).ravel()
        self.node_id = np.array(ids, dtype=np.int64)

    def route(self, X: np.ndarray) -> np.ndarray:
        """Slot of the terminal that each row of the 2-D float X reaches."""
        n, p = X.shape
        # Cell (r, j) of X is flat[r * row_step + j * col_step]. For an F- or
        # C-ordered X (feature_matrix gives F order) the ravel is a view, so
        # only a batch in neither order is copied. A terminal's feature -1
        # reads some valid cell, and both its children are itself.
        if X.flags.f_contiguous:
            flat, row_step, col_step = X.ravel(order="F"), 1, n
        else:
            flat, row_step, col_step = X.ravel(), p, 1
        rows = np.arange(n, dtype=np.intp) * row_step
        k = np.full(n, self.root, dtype=np.intp)
        for _ in range(self.depth):
            cell = self.feature.take(k)
            cell *= col_step
            cell += rows
            go_left = flat.take(cell) < self.threshold.take(k)
            k = self.child.take(2 * k + go_left)
        return k


def best_split(X: np.ndarray, y: np.ndarray, impurity: str = "gini") -> SplitRule | None:
    """Exhaustive best split of one node's rows.

    Scans every feature and every midpoint between consecutive distinct
    sorted values, scoring each candidate by the weighted child impurity.
    Ties go to the lowest feature index, then the lowest threshold.
    Returns None when no candidate strictly reduces the node impurity.
    """
    rule, _ = _best_split_scored(X, y, impurity)
    return rule


def _best_split_scored(X, y, impurity):
    # One node on its own: sort its columns, then score as grow does.
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    return _score_sorted(XT, _presort(XT), np.asarray(y), impurity)


def _presort(XT: np.ndarray) -> np.ndarray:
    """Row ids of each row of the feature-major XT in ascending value order.

    A stable sort, so tied values keep row-id order. Filled one feature at
    a time, so no full-width index temporary exists beside the result.
    """
    order = np.empty(XT.shape, dtype=np.intp)
    for j in range(XT.shape[0]):
        order[j] = np.argsort(XT[j], kind="stable")
    return order


def _score_sorted(XT, order, y, impurity):
    """Best split of the node whose rows, sorted by feature j, are order[j].

    XT is the feature-major matrix and y the labels, both indexed by the row
    ids in ``order``. Returns ``(SplitRule, impurity decrease)``, or
    ``(None, 0.0)`` when no candidate strictly reduces the node impurity.
    """
    p, n = order.shape
    if n < 2 or p == 0:
        return None, 0.0
    pos_total = int(y[order[0]].sum())
    parent = float(_impurity_vec(impurity, np.array([pos_total / n]))[0])
    best_score = parent
    best = None
    # Candidate k of a feature cuts its sorted values after position k:
    # k + 1 rows go left. Each block of features is scored in one set of
    # numpy calls, laid out feature-major as (features, n - 1), with
    # positions between equal values set to inf. The first argmin and the
    # strict comparison across blocks keep ties on the lowest feature, then
    # the lowest threshold.
    n_left = np.arange(1, n)
    n_right = n - n_left
    width = max(1, _SPLIT_BLOCK_CELLS // n)
    for j0 in range(0, p, width):
        rows = order[j0:j0 + width]
        # flat positions j * N + row of the block's sorted values in XT
        xs = XT.take(rows + (np.arange(j0, j0 + rows.shape[0]) * XT.shape[1])[:, None])
        pos_left = np.cumsum(y[rows], axis=1)[:, :-1]
        pos_right = pos_total - pos_left
        score = (
            n_left * _impurity_vec(impurity, pos_left / n_left)
            + n_right * _impurity_vec(impurity, pos_right / n_right)
        ) / n
        score[xs[:, 1:] == xs[:, :-1]] = np.inf
        f, k = divmod(int(np.argmin(score)), n - 1)
        if score[f, k] < best_score:
            best_score = float(score[f, k])
            # The threshold t must satisfy a < t <= b so that rows go both
            # ways: a/2 + b/2 cannot overflow and, for normal floats, has
            # the bits of (a + b)/2; it rounds down to a when a and b are
            # adjacent floats, and then b is taken.
            a, b = xs[f, k], xs[f, k + 1]
            mid = a / 2.0 + b / 2.0
            best = SplitRule(j0 + f, float(mid if mid > a else b))
    if best is None:
        return None, 0.0
    return best, parent - best_score


def grow(ds: Dataset, hyperparams: TreeHyperparams | None = None) -> Tree:
    """Grow a fully developed occurrence tree by recursive binary splitting.

    Stops at maxdepth, below minsplit rows, on pure nodes, or when no split
    reduces impurity. ``cp`` is not applied here; see :func:`prune`.

    Each feature is sorted once per tree, at the root. A node holds its row
    ids sorted by every feature, and a split filters them into its children
    by one mask, which keeps each child's rows in sorted order with ties in
    row-id order: the order a stable sort of the child's own rows gives.
    """
    if hyperparams is None:
        hyperparams = TreeHyperparams()
    if ds.n == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    X, names = feature_matrix(ds)
    XT = np.ascontiguousarray(X.T)
    del X
    p = XT.shape[0]
    y = ds.occurrence
    root_n = ds.n
    nodes: dict[int, TreeNode] = {}

    def searchable(depth: int, n: int, n_positive: int) -> bool:
        return (
            depth < hyperparams.maxdepth and n >= hyperparams.minsplit and 0 < n_positive < n
        )

    # Depth-first in pre-order. A node that cannot be split carries no
    # order, and a parent's order is dropped when its first child is popped:
    # the pending right siblings on the stack hold disjoint rows, so the
    # live orders total at most one (p, N) array.
    pos_root = int(y.sum())
    stack = [(1, 0, root_n, pos_root, _presort(XT) if searchable(0, root_n, pos_root) else None)]
    while stack:
        nid, depth, n, n_positive, order = stack.pop()
        node = TreeNode(id=nid, n_node=n, n_positive=n_positive)
        nodes[nid] = node
        if order is None:
            continue
        rule, gain = _score_sorted(XT, order, y, hyperparams.impurity)
        if rule is None:
            continue
        node.split = rule
        node.gain = gain * n / root_n
        f = rule.feature
        left_rows = order[f].compress(XT[f].take(order[f]) < rule.threshold)
        n_left, pos_left = left_rows.size, int(y[left_rows].sum())
        n_right, pos_right = n - n_left, n_positive - pos_left
        left_ok = searchable(depth + 1, n_left, pos_left)
        right_ok = searchable(depth + 1, n_right, pos_right)
        left = right = None
        if left_ok or right_ok:
            go_left = (XT[f].take(order) < rule.threshold).ravel()
            if left_ok:
                left = order.compress(go_left).reshape(p, n_left)
            if right_ok:
                right = order.compress(~go_left).reshape(p, n_right)
        stack.append((2 * nid + 1, depth + 1, n_right, pos_right, right))
        stack.append((2 * nid, depth + 1, n_left, pos_left, left))
    return Tree(nodes=nodes, feature_names=names, hyperparams=hyperparams)


def truncate(tree: Tree, hyperparams: TreeHyperparams) -> Tree:
    """The tree that ``grow(ds, hyperparams)`` gives, cut from ``tree``.

    ``tree`` must have been grown on the same rows of ``ds`` with the same
    impurity, a maxdepth at least as large and a minsplit at least as
    small. Split choice never depends on maxdepth or minsplit: they only
    decide which nodes are searched. So a kept node becomes terminal when
    its depth reaches ``hyperparams.maxdepth`` or it holds fewer than
    ``hyperparams.minsplit`` rows, and its descendants are dropped. Nodes
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
        if nd.depth >= hyperparams.maxdepth or nd.n_node < hyperparams.minsplit:
            nodes[nid] = TreeNode(nid, nd.n_node, nd.n_positive)
        else:
            nodes[nid] = TreeNode(nid, nd.n_node, nd.n_positive, nd.split, nd.gain)
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
    2m+1) and a stored id that differs is rejected, as is a split on a
    feature outside ``feature_names`` or at a threshold that is not a
    finite number. Raises ValueError naming the first bad node.
    """
    hp = TreeHyperparams(**d["hyperparams"])
    names = list(d["feature_names"])
    nodes: dict[int, TreeNode] = {}

    def build(entry: dict, nid: int) -> None:
        if entry["id"] != nid:
            raise ValueError(f"node id {entry['id']!r} where node {nid} belongs")
        if nid >= 2 ** (MAX_DEPTH + 1):  # routing keeps node ids in int64
            raise ValueError(f"node {nid} lies deeper than {MAX_DEPTH}")
        require_int(**{f"node {nid} n": entry["n"], f"node {nid} n_positive": entry["n_positive"]})
        node = TreeNode(id=nid, n_node=entry["n"], n_positive=entry["n_positive"])
        nodes[nid] = node  # before the children: pre-order, as grow and prune insert
        if "split" in entry:
            feature, threshold = entry["split"]["feature"], entry["split"]["threshold"]
            require_int(**{f"node {nid} split feature": feature})
            require_real(**{f"node {nid} split threshold": threshold})
            if not 0 <= feature < len(names):
                raise ValueError(f"node {nid} splits on feature {feature}, not one of the {len(names)}")
            node.split = SplitRule(feature, threshold)
            node.gain = entry.get("gain", 0.0)
            build(entry["left"], 2 * nid)
            build(entry["right"], 2 * nid + 1)

    build(d["root"], 1)
    return Tree(nodes=nodes, feature_names=names, hyperparams=hp)
