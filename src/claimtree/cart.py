"""Binary classification tree for claim occurrence.

Recursive binary splitting on the weighted-impurity criterion, cost-complexity
pruning on misclassification loss in one bottom-up pass, routing, variable
importance and DOT export. Node ids follow the heap convention: root is 1,
the children of node m are 2m and 2m+1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset, feature_matrix


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


@dataclass(frozen=True)
class SplitRule:
    """Axis-aligned split: rows with feature < threshold go left."""

    feature: int
    threshold: float


@dataclass
class TreeNode:
    id: int
    depth: int
    n_node: int
    n_positive: int
    split: SplitRule | None = None
    gain: float = 0.0  # weighted impurity decrease, weights relative to root

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


def require_int(settings, *names) -> None:
    """Raise ValueError unless each named field is an int (a bool is not)."""
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TreeHyperparams:
    cp: float = 0.0
    maxdepth: int = 8
    minsplit: int = 8
    impurity: str = "gini"

    def __post_init__(self):
        require_int(self, "maxdepth", "minsplit")
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

    def internal_ids(self) -> list[int]:
        return sorted(nid for nid, nd in self.nodes.items() if not nd.is_terminal)

    def depth(self) -> int:
        return max(nd.depth for nd in self.nodes.values())

    def classify(self, x: np.ndarray) -> tuple[int, int]:
        """Route one feature row to its terminal; returns (node id, beta_f)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.feature_names),):
            raise ValueError(
                f"expected {len(self.feature_names)} feature values, got {x.shape}"
            )
        node = self.root
        while not node.is_terminal:
            child = 2 * node.id if x[node.split.feature] < node.split.threshold else 2 * node.id + 1
            node = self.nodes[child]
        return node.id, node.beta_f

    def classify_batch(self, X: np.ndarray) -> np.ndarray:
        """Terminal node id for every row of X."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(1, np.arange(X.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            if idx.size == 0:
                continue
            node = self.nodes[nid]
            if node.is_terminal:
                out[idx] = nid
                continue
            left = X[idx, node.split.feature] < node.split.threshold
            stack.append((2 * nid, idx[left]))
            stack.append((2 * nid + 1, idx[~left]))
        return out

    def training_misclassification(self) -> float:
        """Share of training rows misclassified by the terminal majority votes."""
        total = sum(self.nodes[t].misclassified for t in self.terminal_ids())
        return total / self.root.n_node


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
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = y.shape[0]
    pos_total = int(y.sum())
    parent = float(_impurity_vec(impurity, np.array([pos_total / n]))[0])
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
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        score = (
            n_left * _impurity_vec(impurity, p_left)
            + n_right * _impurity_vec(impurity, p_right)
        ) / n
        k = int(np.argmin(score))
        if score[k] < best_score:
            best_score = float(score[k])
            best = SplitRule(j, float((xs[cut[k]] + xs[cut[k] + 1]) / 2.0))
    if best is None:
        return None, 0.0
    return best, parent - best_score


def grow(ds: Dataset, hyperparams: TreeHyperparams | None = None) -> Tree:
    """Grow a fully developed occurrence tree by recursive binary splitting.

    Stops at maxdepth, below minsplit rows, on pure nodes, or when no split
    reduces impurity. ``cp`` is not applied here; see :func:`prune`.
    """
    if hyperparams is None:
        hyperparams = TreeHyperparams()
    if ds.n == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    X, names = feature_matrix(ds)
    y = ds.occurrence
    root_n = ds.n
    nodes: dict[int, TreeNode] = {}

    def build(nid: int, depth: int, idx: np.ndarray) -> None:
        yk = y[idx]
        node = TreeNode(id=nid, depth=depth, n_node=idx.size, n_positive=int(yk.sum()))
        nodes[nid] = node
        if depth >= hyperparams.maxdepth or idx.size < hyperparams.minsplit:
            return
        if node.n_positive in (0, node.n_node):
            return
        rule, gain = _best_split_scored(X[idx], yk, hyperparams.impurity)
        if rule is None:
            return
        node.split = rule
        node.gain = gain * idx.size / root_n
        left = X[idx, rule.feature] < rule.threshold
        build(2 * nid, depth + 1, idx[left])
        build(2 * nid + 1, depth + 1, idx[~left])

    build(1, 0, np.arange(root_n))
    return Tree(nodes=nodes, feature_names=names, hyperparams=hyperparams)


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
        node = replace(tree.nodes[nid])
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
    return replace(tree, nodes={nd.id: nd for nd in kept})


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


def to_dot(tree: Tree, title: str = "occurrence_tree") -> str:
    """Render the tree as Graphviz DOT text."""
    lines = [f'digraph "{title}" {{', "  node [shape=box, fontname=Helvetica];"]
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
    hp = TreeHyperparams(**d["hyperparams"])
    nodes: dict[int, TreeNode] = {}

    def build(entry: dict, depth: int) -> None:
        nid = entry["id"]
        node = TreeNode(
            id=nid,
            depth=depth,
            n_node=entry["n"],
            n_positive=entry["n_positive"],
        )
        nodes[nid] = node  # before the children: pre-order, as grow and prune insert
        if "split" in entry:
            node.split = SplitRule(entry["split"]["feature"], entry["split"]["threshold"])
            node.gain = entry.get("gain", 0.0)
            build(entry["left"], depth + 1)
            build(entry["right"], depth + 1)

    build(d["root"], 0)
    return Tree(nodes=nodes, feature_names=list(d["feature_names"]), hyperparams=hp)
