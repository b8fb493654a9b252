"""CART regression trees, grown in batches.

The building block for the Random Forest and gradient boosting regressors.
:func:`_grow_trees` advances a batch of trees together.  Each step takes
the next pre-order node of every tree that draws a feature subset per node
(so each tree's random draws come in recursive order) and the whole open
frontier of every tree that draws none.  The step's nodes are scored in one
padded ``(nodes x features x rows)`` pass of stable argsorts and prefix
sums.  Only a node's own sum, sum of squares and mean are taken per node,
over its rows in original order, so every tree is bit-for-bit the one a
recursive, node-at-a-time grower builds.

A fitted tree is flat ``feature_/threshold_/left_/right_/value_`` arrays.
A leaf has ``feature_ == -1`` and both children pointing at itself, so
:func:`_descend` moves all rows of all trees one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_consistent_length, check_positive_int
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import DataQualityError, InvalidParameterError

__all__ = ["DecisionTreeRegressor"]

#: Bound on ``nodes x features x rows`` of one padded scoring pass; a
#: step with more cells is scored in several passes.
_MAX_BATCH_CELLS = 1 << 18


@dataclass
class _Node:
    """A node of the recursive tree layout, kept so that older pickles load."""

    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


def _check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Coerce ``X, y`` to 2-D and 1-D float arrays of one non-empty sample set."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    check_consistent_length(X, y)
    if len(y) == 0:
        raise InvalidParameterError("Cannot fit a tree on empty data.")
    if not np.isfinite(y).all():
        raise DataQualityError("The regression target contains NaN or infinite values.")
    return X, y


def _check_predict_data(estimator, X) -> np.ndarray:
    """Coerce ``X`` to 2-D and check it has the fitted number of features."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[1] != estimator.n_features_in_:
        raise DataQualityError(
            f"X has {X.shape[1]} features, but {type(estimator).__name__} was "
            f"fitted with {estimator.n_features_in_}."
        )
    return X


def _may_split(size, depth, spread, limits):
    """Whether a node (or an array of nodes) is open for a split search."""
    max_depth, min_samples_split, min_samples_leaf = limits
    return (
        (depth < max_depth)
        & (size >= min_samples_split)
        & (size >= 2 * min_samples_leaf)
        & (spread != 0.0)
    )


def _as_arrays(nodes: list[list], depth: int) -> dict:
    """Fitted attributes of a tree from its ``[feature, threshold, left, right, value]`` rows."""
    feature, threshold, left, right, value = zip(*nodes)
    return {
        "feature_": np.array(feature, dtype=np.intp),
        "threshold_": np.array(threshold, dtype=float),
        "left_": np.array(left, dtype=np.intp),
        "right_": np.array(right, dtype=np.intp),
        "value_": np.array(value, dtype=float),
        "depth_": depth,
        "n_nodes_": len(nodes),
    }


class _Build:
    """One tree under construction: its node rows and its open nodes.

    An open node is ``(node, rows, values, total, depth)``: its id, its
    rows of ``X``, their targets in original order and the targets' sum.
    """

    __slots__ = ("nodes", "depth", "open", "rng")

    def __init__(self, rng):
        self.nodes: list[list] = []
        self.depth = 0
        self.open: list[tuple] = []
        self.rng = rng

    def add(self, values: np.ndarray, depth: int):
        """Append a leaf predicting the mean of ``values``; return its id and their sum."""
        total = values.sum()
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, node, node, float(total / len(values))])
        self.depth = max(self.depth, depth)
        return node, total


def _split_nodes(X_pad, y_pad, chunk, features, limits) -> None:
    """Search and apply the best split of every open node of ``chunk`` in one pass.

    ``chunk`` pairs each open node with its tree; ``features`` holds the
    ``(nodes, k)`` candidate features of each, in draw order.  Rows are
    padded with the index of ``X_pad``'s all-NaN last row (``y_pad``'s
    trailing 0), which sorts after every real value and never forms a
    valid split position.  Children that may split again join their
    tree's open list, left child on top.
    """
    entries = [entry for _, entry in chunk]
    nodes, n_drawn = features.shape
    lengths = np.array([len(entry[1]) for entry in entries])
    width = int(lengths.max())
    real = np.arange(width) < lengths[:, None]
    index = np.full((nodes, width), len(X_pad) - 1)
    index[real] = np.concatenate([entry[1] for entry in entries])
    totals = np.array([entry[3] for entry in entries])
    squares = [float(np.dot(entry[2], entry[2])) for entry in entries]
    parents = np.array([sq - entry[3] ** 2 / len(entry[1]) for sq, entry in zip(squares, entries)])
    squares = np.array(squares)

    x = X_pad[index[:, None, :], features[:, :, None]]
    y = y_pad[index]
    rows = np.arange(nodes)
    # Equal values are bit-identical but for the sign of zero, which moves
    # no split and no midpoint, so a plain sort gives the sorted values.
    x_sorted = np.sort(x, axis=2)
    y_sorted = y[rows[:, None, None], x.argsort(axis=2, kind="stable")]

    # Candidate split after sorted position i (left = first i + 1 rows).
    left_counts = np.arange(1, width)
    right_counts = lengths[:, None, None] - left_counts
    left_sums = y_sorted.cumsum(axis=2)[:, :, :-1]
    left_squares = (y_sorted**2).cumsum(axis=2)[:, :, :-1]
    right_sums = totals[:, None, None] - left_sums
    right_squares = squares[:, None, None] - left_squares
    left_sse = left_squares - left_sums**2 / left_counts
    right_sse = right_squares - right_sums**2 / right_counts
    gains = parents[:, None, None] - (left_sse + right_sse)
    # A split is only valid between distinct feature values and when both
    # children satisfy the minimum leaf size.
    valid = (
        (x_sorted[:, :, 1:] > x_sorted[:, :, :-1])
        & (left_counts >= limits[2])
        & (right_counts >= limits[2])
    )
    gains = np.where(valid, gains, -np.inf)
    positions = gains.argmax(axis=2)
    # A NaN best gain counts as -inf; ties go to the first feature drawn.
    best = np.fmax(gains.max(axis=2), -np.inf)
    chosen = best.argmax(axis=1)
    position = positions[rows, chosen]
    thresholds = (x_sorted[rows, chosen, position] + x_sorted[rows, chosen, position + 1]) / 2.0
    goes_left = x[rows, chosen] <= thresholds[:, None]
    n_left = goes_left.sum(axis=1)
    # A midpoint that rounds onto one of its two values sends every row one
    # way; such a node stays a leaf.
    splits = (best.max(axis=1) > 1e-12) & (n_left > 0) & (n_left < lengths)

    # Row masks, sizes and target spreads of the left and right children.
    sides = np.array([goes_left, real & ~goes_left])
    sizes = np.array([n_left, lengths - n_left])
    spreads = np.where(sides, y, -np.inf).max(axis=2) - np.where(sides, y, np.inf).min(axis=2)
    depths = np.array([entry[4] for entry in entries]) + 1
    may_split = _may_split(sizes, depths, spreads, limits).T.tolist()
    # Each row's left rows, then its right rows, each in original order.
    part = (~goes_left).argsort(axis=1, kind="stable")
    part_index = index[rows[:, None], part]
    part_y = y[rows[:, None], part]

    features = features[rows, chosen].tolist()
    thresholds = thresholds.tolist()
    sizes = sizes.T.tolist()
    for i in np.flatnonzero(splits).tolist():
        build, (node, _, _, _, depth) = chunk[i]
        (cut, n_right), opens = sizes[i], may_split[i]
        children = []
        for start, stop, side in ((0, cut, 0), (cut, cut + n_right, 1)):
            values = part_y[i, start:stop]
            child, total = build.add(values, depth + 1)
            if opens[side]:
                children.append((child, part_index[i, start:stop], values, total, depth + 1))
        build.nodes[node][:4] = [features[i], thresholds[i], child - 1, child]
        # Right below left on the stack: a drawing tree's next node is the
        # left child, as in recursive pre-order.
        build.open.extend(reversed(children))


def _grow_trees(X, y, samples, rngs, n_drawn, limits) -> list[dict]:
    """Grow one tree per row-index array of ``samples``, all in lockstep.

    Tree ``t`` is fitted on ``X[samples[t]], y[samples[t]]``, gathered
    through the index map rather than copied, and draws its ``n_drawn``
    candidate features per node from ``rngs[t]``.  With ``n_drawn`` equal
    to the number of features no tree draws and each step takes whole
    frontiers.  Returns each tree's fitted attributes.
    """
    n_features = X.shape[1]
    draws = n_drawn < n_features
    X_pad = np.vstack([X, np.full((1, n_features), np.nan)])
    y_pad = np.append(y, 0.0)
    builds = [_Build(rng) for rng in rngs]
    for build, rows in zip(builds, samples):
        values = y[rows]
        node, total = build.add(values, 0)
        if _may_split(len(rows), 0, values.max() - values.min(), limits):
            build.open.append((node, rows, values, total, 0))

    with np.errstate(all="ignore"):
        while True:
            step: list[tuple[_Build, tuple]] = []
            for build in builds:
                if draws and build.open:
                    step.append((build, build.open.pop()))
                elif build.open:
                    step.extend((build, entry) for entry in build.open)
                    build.open = []
            if not step:
                break
            width = max(len(entry[1]) for _, entry in step)
            per_pass = max(1, _MAX_BATCH_CELLS // (n_drawn * width))
            for start in range(0, len(step), per_pass):
                chunk = step[start : start + per_pass]
                if draws:
                    features = np.array(
                        [build.rng.choice(n_features, n_drawn, replace=False) for build, _ in chunk]
                    )
                else:
                    features = np.repeat(np.arange(n_features)[None, :], len(chunk), axis=0)
                _split_nodes(X_pad, y_pad, chunk, features, limits)
    return [_as_arrays(build.nodes, build.depth) for build in builds]


def _descend(trees, X: np.ndarray) -> np.ndarray:
    """Leaf values of every row of ``X`` in every tree, shape ``(trees, rows)``."""
    sizes = [tree.n_nodes_ for tree in trees]
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, sizes)
    feature = np.concatenate([tree.feature_ for tree in trees])
    threshold = np.concatenate([tree.threshold_ for tree in trees])
    left = np.concatenate([tree.left_ for tree in trees]) + shift
    right = np.concatenate([tree.right_ for tree in trees]) + shift
    node = np.repeat(offsets, len(X))
    rows = np.tile(np.arange(len(X)), len(trees))
    for _ in range(max(tree.depth_ for tree in trees)):
        node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
    return np.concatenate([tree.value_ for tree in trees])[node].reshape(len(trees), len(X))


def _flatten(root: _Node) -> dict:
    """Fitted attributes of a recursive ``_Node`` graph (breadth-first ids)."""
    queue, nodes, depth = [(root, 0)], [], 0
    for node, level in queue:
        depth = max(depth, level)
        if node.left is None:
            nodes.append([-1, node.threshold, len(nodes), len(nodes), node.prediction])
        else:
            nodes.append([node.feature, node.threshold, len(queue), len(queue) + 1, node.prediction])
            queue += [(node.left, level + 1), (node.right, level + 1)]
    return _as_arrays(nodes, depth)


class DecisionTreeRegressor(BaseRegressor):
    """Regression tree minimising squared error.

    Parameters follow the scikit-learn conventions; ``max_features`` accepts
    an int, a float fraction, ``"sqrt"``, ``"log2"`` or ``None`` (all
    features) and is re-drawn at every node, which is what random forests
    need for decorrelated trees.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _resolve_max_features(self, n_features: int) -> int:
        max_features = self.max_features
        if max_features is None:
            return n_features
        if isinstance(max_features, str):
            if max_features == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if max_features == "log2":
                return max(1, int(np.log2(n_features)))
            raise InvalidParameterError(
                f"Unknown max_features value {max_features!r}; expected 'sqrt' or 'log2'."
            )
        if isinstance(max_features, float) and not isinstance(max_features, bool):
            if not 0.0 < max_features <= 1.0:
                raise InvalidParameterError("Float max_features must be in (0, 1].")
            return max(1, int(round(max_features * n_features)))
        value = int(max_features)
        if value < 1:
            raise InvalidParameterError("max_features must be >= 1.")
        return min(value, n_features)

    def _grow(self, X: np.ndarray, y: np.ndarray, samples, seeds) -> list[dict]:
        """Fitted attributes of this tree on each ``samples`` row-index array, seeded by ``seeds``."""
        limits = (
            np.inf if self.max_depth is None else check_positive_int(self.max_depth, "max_depth"),
            check_positive_int(self.min_samples_split, "min_samples_split", minimum=2),
            check_positive_int(self.min_samples_leaf, "min_samples_leaf"),
        )
        rngs = [np.random.default_rng(seed) for seed in seeds]
        grown = _grow_trees(X, y, samples, rngs, self._resolve_max_features(X.shape[1]), limits)
        return [dict(attributes, n_features_in_=X.shape[1]) for attributes in grown]

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = _check_training_data(X, y)
        (attributes,) = self._grow(X, y, [np.arange(len(y))], [self.random_state])
        self.__dict__.update(attributes)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("value_",))
        return _descend([self], _check_predict_data(self, X))[0]

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        check_is_fitted(self, ("value_",))
        return self.depth_

    def __setstate__(self, state: dict) -> None:
        # Trees pickled by the recursive grower hold a ``root_`` graph of
        # ``_Node``s (and the grower's spent generator); load them flat.
        root = state.pop("root_", None)
        if root is not None:
            state.pop("_rng", None)
            state.pop("_max_features_resolved", None)
            state.update(_flatten(root))
        self.__dict__.update(state)
