"""Random forest regressor: bagged CART trees with feature sub-sampling."""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int
from ..core.base import BaseRegressor, check_is_fitted
from .tree import DecisionTreeRegressor, _check_predict_data, _check_training_data, _descend

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(BaseRegressor):
    """Bootstrap-aggregated regression trees.

    Defaults are sized for the window-regression workloads in the pipeline
    inventory (hundreds to a few thousand windows with tens of features) so a
    full T-Daub evaluation finishes in seconds rather than minutes.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        check_positive_int(self.n_estimators, "n_estimators")
        X, y = _check_training_data(X, y)

        # Each tree's seed, then its bootstrap, tree after tree: this stream
        # fixes every tree's randomness.
        rng = np.random.default_rng(self.random_state)
        n_samples = len(y)
        seeds, samples = [], []
        for _ in range(int(self.n_estimators)):
            seeds.append(int(rng.integers(0, 2**31 - 1)))
            samples.append(
                rng.integers(0, n_samples, size=n_samples)
                if self.bootstrap
                else np.arange(n_samples)
            )

        self.estimators_: list[DecisionTreeRegressor] = []
        grown = self._tree(None)._grow(X, y, samples, seeds)
        for seed, attributes in zip(seeds, grown):
            self.estimators_.append(self._tree(seed))
            self.estimators_[-1].__dict__.update(attributes)

        self.oob_mae_ = float("nan")
        if self.bootstrap:
            out_of_bag = np.ones((len(samples), n_samples), dtype=bool)
            out_of_bag[np.arange(len(samples))[:, None], samples] = False
            oob_sums = np.zeros(n_samples)
            for unseen, predictions in zip(out_of_bag, _descend(self.estimators_, X)):
                oob_sums[unseen] += predictions[unseen]
            oob_counts = out_of_bag.sum(axis=0)
            covered = oob_counts > 0
            if covered.any():
                residuals = y[covered] - oob_sums[covered] / oob_counts[covered]
                self.oob_mae_ = float(np.mean(np.abs(residuals)))
        self.n_features_in_ = X.shape[1]
        return self

    def _tree(self, seed: int | None) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("estimators_",))
        X = _check_predict_data(self, X)
        predictions = np.zeros(len(X))
        for tree_predictions in _descend(self.estimators_, X):
            predictions += tree_predictions
        return predictions / len(self.estimators_)
