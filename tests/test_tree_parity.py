"""Byte parity of the CART learners and of the rankings built on them.

The digests below are SHA-256 over the exact bytes of ``predict`` (plus
node counts, depths, OOB error and boosting train scores) recorded with
the recursive, one-node-at-a-time grower this package used to have.  The
batched grower must reproduce them bit for bit: a different growth order
is one more execution history that has to certify the same outcome.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import zlib

import numpy as np
import pytest

from repro.core.autoai_ts import AutoAITS
from repro.data import load_univariate_dataset
from repro.ml import DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor
from repro.ml import tree as tree_module
from repro.ml.tree import _Node

SIZES = (1, 2, 3, 7, 20, 80)
WIDTHS = (1, 3, 5)
KINDS = ("smooth", "ties", "constant")

TREE_CONFIGS = (
    {},
    {"max_features": "sqrt", "random_state": 1},
    {"max_features": "log2", "random_state": 2, "max_depth": 3},
    {"max_features": 0.5, "random_state": 3, "min_samples_leaf": 2},
    {"max_features": 3, "random_state": 4},
    {"max_depth": 1},
    {"max_depth": 2, "min_samples_leaf": 3},
    {"min_samples_split": 6},
    {"min_samples_leaf": 4, "max_features": "sqrt", "random_state": 5},
)
FOREST_CONFIGS = (
    {"n_estimators": 5, "random_state": 0},
    {"n_estimators": 4, "bootstrap": False, "max_features": None, "max_depth": 3},
    {"n_estimators": 6, "max_features": 0.5, "min_samples_leaf": 2, "random_state": 9},
    {"n_estimators": 3, "max_features": 3, "max_depth": None, "random_state": 4},
)
BOOST_CONFIGS = (
    {"n_estimators": 12, "random_state": 0},
    {"n_estimators": 10, "subsample": 0.6, "loss": "huber", "max_depth": 2, "random_state": 3},
    {"n_estimators": 30, "n_iter_no_change": 3, "min_samples_leaf": 2},
)


def _problem(n: int, p: int, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training ``X, y`` and query rows (the training rows plus fresh ones)."""
    rng = np.random.default_rng(1000 * n + 10 * p + KINDS.index(kind))
    if kind == "smooth":
        X = rng.normal(size=(n, p))
        y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, -1] + 0.1 * rng.normal(size=n)
        fresh = rng.normal(size=(9, p))
    elif kind == "ties":
        X = rng.integers(0, 4, size=(n, p)).astype(float)
        y = rng.integers(0, 3, size=n).astype(float)
        fresh = rng.integers(-1, 5, size=(9, p)).astype(float)
    else:
        # A constant feature, a duplicated one and, on odd sizes, a constant target.
        X = rng.normal(size=(n, p))
        X[:, 0] = 2.5
        if p > 1:
            X[:, -1] = X[:, 1]
        y = np.full(n, 1.25) if n % 2 else rng.normal(size=n)
        fresh = rng.normal(size=(9, p))
    return X, y, np.vstack([X, fresh, X + 1e-9])


def _sha(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(np.asarray(chunk, dtype=float).tobytes())
    return digest.hexdigest()


def _family_chunks(family: str, kind: str):
    for n in SIZES:
        for p in WIDTHS:
            X, y, query = _problem(n, p, kind)
            if family == "tree":
                for config in TREE_CONFIGS:
                    model = DecisionTreeRegressor(**config).fit(X, y)
                    yield model.predict(query)
                    yield [model.n_nodes_, model.depth]
            elif family == "forest":
                for config in FOREST_CONFIGS:
                    model = RandomForestRegressor(**config).fit(X, y)
                    yield model.predict(query)
                    yield [model.oob_mae_]
            else:
                for config in BOOST_CONFIGS:
                    if n < 2 and "subsample" in config:
                        continue  # a subsample of two rows cannot be drawn from one
                    model = GradientBoostingRegressor(**config).fit(X, y)
                    yield model.predict(query)
                    yield [model.n_estimators_, *model.train_scores_]


def family_digests() -> dict[str, str]:
    return {
        f"{family}/{kind}": _sha(_family_chunks(family, kind))
        for family in ("tree", "forest", "boost")
        for kind in KINDS
    }


def autoai_outcome(name: str) -> tuple[list[str], str]:
    series = load_univariate_dataset(name, max_length=64)
    model = AutoAITS(prediction_horizon=12, executor="serial").fit(series.reshape(-1, 1))
    forecast = model.predict()
    return list(model.ranked_pipelines_), _sha([forecast, [model.holdout_report_.smape]])


GOLDEN_DIGESTS: dict[str, str] = {
    "tree/smooth": "ebb7aa4ca50747ec23152689a4ba5cb6117e3fb1d023ea162d28b317cd814f94",
    "tree/ties": "587535cb0996793e4c44497aaac6eada843168128fd95ab1b38cf2251c333d3a",
    "tree/constant": "d8edb6b02ade97ccf973089317221a9bf6f8dc6095fb2bfa3ccab6a02f5cfae7",
    "forest/smooth": "abe99c25c53bade31e66fab125368e010206874b49c0aeb032f2ac905afd32f3",
    "forest/ties": "6e869aa0599e847d34732168b331b00cd6bd3534c75b08f1564f26cf3248e1b8",
    "forest/constant": "be946fc608eeede3ce87509a0bf4b53b9c2271a267f2d18de8d2921b623a10bb",
    "boost/smooth": "9f81c4c83972be4bcd3c15e65a316957322874308825fa26d0025f268c9145b0",
    "boost/ties": "fe5a273ae4b9048216e8ec3e25c13c45248c0c2b9cfb639f8d75262832b4a3d4",
    "boost/constant": "65d1cfa7e1de5d90bd384b7b585ed96d026901e4a3c523d8564715d674e8721e",
}

GOLDEN_AUTOAI: dict[str, tuple[list[str], str]] = {
    "ausbeer": (
        [
            "LocalizedFlattenAutoEnsembler",
            "FlattenAutoEnsembler, log",
            "WindowSVR",
            "DifferenceFlattenAutoEnsembler, log",
            "MT2RForecaster",
            "WindowRandomForest",
            "HW_Multiplicative",
            "HW_Additive",
            "bats",
            "Arima",
        ],
        "63d58175002f2fd5222617eea46a52fff138950c2cd9b818a776d14fe0a5c733",
    ),
    "qgas": (
        [
            "MT2RForecaster",
            "WindowRandomForest",
            "FlattenAutoEnsembler, log",
            "LocalizedFlattenAutoEnsembler",
            "WindowSVR",
            "Arima",
            "DifferenceFlattenAutoEnsembler, log",
            "HW_Multiplicative",
            "bats",
            "HW_Additive",
        ],
        "2564f82b1fa3102d920599ec39dedc3218cecb536d2c4ecd2540b70168b642e9",
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_learner_predictions_match_recorded_digests(key):
    family, kind = key.split("/")
    assert _sha(_family_chunks(family, kind)) == GOLDEN_DIGESTS[key]


@pytest.mark.parametrize("key", ["tree/ties", "forest/smooth", "boost/constant"])
def test_steps_split_into_many_scoring_passes_match_recorded_digests(key, monkeypatch):
    monkeypatch.setattr(tree_module, "_MAX_BATCH_CELLS", 40)
    family, kind = key.split("/")
    assert _sha(_family_chunks(family, kind)) == GOLDEN_DIGESTS[key]


@pytest.mark.parametrize("name", sorted(GOLDEN_AUTOAI))
def test_autoai_ranking_and_forecast_match_recorded(name):
    ranking, forecast_digest = autoai_outcome(name)
    expected_ranking, expected_digest = GOLDEN_AUTOAI[name]
    assert ranking == expected_ranking
    assert forecast_digest == expected_digest


# Models pickled by the recursive grower (pickle protocol 4, zlib, base64),
# with the SHA-256 of their predictions on ``_pickle_query()``.
OLD_PICKLES: dict[str, tuple[str, str]] = {
    "tree": (
        "eNqNUk1ME0EUbmkrBYqpgsQARuEimFgTIZoYEogUm7DSGCBGvUy2u9PO6v45O2uohigqCjgX"
        "wxD1CBcjHuSiBy8k6IUY1CjoRSN68GAUTvgTQ3C2K1iwGmaT2X3zvve9781+F/xDU35PZtFi"
        "DE1sRDQ1QjCEjG6JQkmxFEPv5GE7TGFoWQZmg6y2h3WzGlqgiV1AhiZBTPDRTZqiA0vUTBVa"
        "wDJVhTAhj4azT1UoJpngpSGnMAlFYnNKFqchLOqyoQGLiATy2A+wnmK0VLc1Mx1xkxFgKtIp"
        "lcsKA5CCOsQiMTCQSEYRKqKlACQU8neKlqyhkVL76hkNHGmO8fcg62XtmWmKV1WvAGjAVcUh"
        "aOtA+OF45cjw5XP2k91v5Zk7d8upT9ElNhBe9H58NHqxfX/7YGXwcfJdgU0LkWgBW9FJ3V4m"
        "eGjQ+YQpiHlg0/JVmtZ0rgDATHcBW3cnBh0Qyh3wtA11CTqzbqOhNUet1SOffPGrfJKagXD1"
        "WNXEsfe1XfXnpxd+7lis5s3L3HZAMjCMaLZKFBFjMc1oCGAoGbpFsC0R57ICGSSj+brsQga5"
        "3l7W7E2wDL3gFfy9DO2kAZmkTac3zbPrWX+fm/VRbwOLx+OtS3xlNsFDWKK/OfzhxPzrsFB1"
        "qW+z52h3cXSK8WPBX8v3Kyzh/AO6UV/xBOCmcdxTBrKdwrVahnoGyk4qgA2DAIY8NADihgz/"
        "2LLQxFBWJMKNy2KNw9fE1PUfkzT/N4vjvwKCOBUyVJnFmpbd71dhkjDU5LKg5tj483w5LZbt"
        "QVHBi1pijd9dIDqUhWkcOzj/7OlsOcd4OKYpmAszsyE4oRUGUTRzIRzm8SzD4nwOJYUIi9sJ"
        "1JbdfHKy6n5R3decRaiNw9cWfK54MRo4fnjdBY3TJxtetrDhZen+XNK/CCU3bs7V/5t0NeVQ"
        "9Gznt6I3y5ShHJTjc/d6FmZv1a2X8tWBB7uWbm//31jOQ4M60LkNLO6bIjsR+QX8n9zG",
        "ed496b1d5d63faf46c593f331dee3c3ecb81dc6ef3b04a86a36b5494bc36c8f4",
    ),
    "forest": (
        "eNqtU1tsVEUYPtvdZXfLQrdsWypSYxqgNCYbEMRwSys1rNljF2ytPhiYnMvsmaPnxjlzSBuj"
        "gYflshkTQ6eGhGi0GB9UImosLygG7YMPFPdFjA/KmqBoqWiiQEyMzuxuy/YC4cGT7Dk7M///"
        "/d//zfcfCI2MLRLKD2lwoePaKdNI5WwXepiS5j7JUm1zZ3nZBzX28WyXDtPOg/QlupbELcAO"
        "dFPCtutRsY7ETGkQqNDBiK8aTd0CnmQ6BvSA5xg65ruJ2l0DSjkqBkicJ+aghH1Wg5KQt89l"
        "9WOybWMPu5JDj5C4WyYDPCxhSEWBLL5dG9A9jM6SmQawCyGj/zhUdE+3rafZcj59tEisQxH2"
        "i4oBFEP1KJ5JPVYySAi4lkZJk+WbzlCqUjUFHF15wWCgCQA0aEGX1wUKLuOhZtIEgKzj+Uck"
        "OQdG0TZtpCS8uyfNvsM0T/vKUi6ZlT0TQMKVdjnd9kKj/9ery94OP3stf+nJga1XXrsqkKBu"
        "KbSQ0Nonvvy7uCV96voPVz/bWrJ9Uo8kD/i6hTc8zAWO8r9Qgy7NFDsG1/lkxSxec6rfD4Az"
        "NAh8q9I16IdQ7Yf7fGgpkPfbQeJztjLto78Gs4dZN2vLKrL7aalUAAqzT8r0DaxLrisNURIH"
        "LlRsi12sr2CuUbgcSUnEUishw+x+87QnINMyohgQQ3mK1pOwioccXo7U+Rvp0SOV0yAJbKPZ"
        "bDbzL3vKL1HAVD7akzgbXa1tObRnvHR24vj64xeOUbYthjrZ+xCVufRkqTVjO8B8yQ3aAmrN"
        "yLh6trEfqlzFsMsMCShqIGGQtVV4exTqHRequoKZ22i664vnXmk+2TZMIlUUbtcYRgwK2YZK"
        "093LqjMXMmAOU5SpOrI33fVt61PBpd0xlGWm3JXujlYC0e7amK+Lb54oWCaqdMzCBGE6LMs4"
        "6hrCNOvLaKA26cqqfN3kT5EFk9AAC5+TcG48cOMtc3Pb3ZicG3vmw39G4tKdQWdDFkt/FE6P"
        "fn43Dr5MohawmLhsqsUIQ2i847ie2f5OL2pCy9F9aGV1kNCD06OD2qtDc+PUZHI89PPUyQ9G"
        "c/Ef9/4poFWFRLFlx/j3L7/76NRHfYGGscUv+mg1g11TCIubLl4QfNSJHqq1NK8kCmgd2sCN"
        "iR6pteV2ZrTne957IEl/v0beGOlItp6w5hkN7WTM06zEE7V6vP/6+fObg73TEocWkvib0qc3"
        "862fVGO6bi1kiNM7rl+cuLziXq9hSvvut+Tyg/dsha5L3sr+/VFhmmfLQhx+OXDsq7Ztk/+r"
        "FdBe7gBIorYts6mEgM3W5C718uHIx1xQX079BxAWmYs=",
        "e244aa73bb91a4237785f21ebd48e42575da95c5d9ea4f233a702f63f370958a",
    ),
    "boost": (
        "eNqNVWtoHFUU3jS7JM1DEzeNtkUKEUuidrVtqNoGV01la7YuNY9CjeF2Hnf3js7e2d65U5Ji"
        "S4ukSdsLPnKFbfFRtfSHoOaHCMJi+0MFRdPY/lBUsItQ2qAoWKWKVM+d2SSbpIZc2NmZe79z"
        "zne+c87MwfArpCrkL9HIcI45sawd0x3H5RbNSLEywTTTwpQ/WtrqxhmGXddhcky2HZL7Zauo"
        "owjDWVbjDnNlcpmot7HGKIAR0ziWifhHx9U6IZZntUFk4hwnCtaQtShytWzOxi4Ck7RMVojl"
        "rqcHe2D3W4lZ2HZcV4p6d4+nMWwizBgQELXE0zEDhzbXytANFFkc9qmDDKLRDJYpEd2r2Zap"
        "ccuhKM00Q92UEatjGjWdLHK5IpwEHxa1OMpBMMvHIgC/eUzLvPTX56J2NlskB0CA+hnhOMNY"
        "ihVbsWG5YNULjwsFI1WQfGN58m7OtjhIQqpBgTolUhpr3AM7mSI3d8UeKdoijJgqSBP1srmh"
        "WMA3hnKW8SxIJRoQymCKmWKFDO5HI6tFE0I65LHgSETnuTEym9qliOzoTMD/mByW3X5p6+dY"
        "zwBEJBBKJdN6tPH53wvFC/3yjt7s8S8+23bflZCotKghjzZkWiY++fvrzYl3f/3x8sdbio4n"
        "aojmIs+ifOMGJXO1usUZzODBE6vmkJoXejVCuaFB5NEgZdSDsdmD93iYGlglu07Uzdvqanlr"
        "qjI1Aqm0+hJCvOYgAjIchmNZz+aWxpg2JEUdYthwqMuZZ3AlUMRHSlFFzQAyBhSHZWeFLn2P"
        "yYpkeFiS+0XE5EM5FU4s89rlkdHgtFJUdMhUKtX1Lyz/kgxxqR/pbChU35nZfHjg02JhIr8+"
        "/9XLEraT4Ta4Hpa60l3cRGfKj6BJ1Kg0o/KmAK6uY+/FpjqKMMfhSJKoiKCUY+LZuayZbV+Z"
        "KAz3+UtUlbz4w8YJuCKObcrEw+GZYcNpLsmOUrP2JM6cf2DydE8fIb3JCtKXiF8LgGRnGSb+"
        "2tV/creKSdLrJwuwUGgalgKOVoZwmfJ00l/u+Jf20bMHBqduaET6AT7PID7LJAToacpzmfy8"
        "YeDQmon8/zudy+HYqRev7jo3uBgHTxfVFF4nJkgvk1XgYcXsJJPbgrklK9WoXvpj5EmyitxO"
        "1pCW0hCRtdNjQ1pLA5MvdPU03bKue9/b/PHx515/L0Tugil6/8NefG7c2HV9f8E5/cyXIY/c"
        "DWneA5NB7iXry7tZRYGjTeRB1ZNkS3lHdkKPOdei0bH80+MvtH3zwU+7Ox5a0GNkO5B+An6p"
        "Mik6DpYSD+p8Q3XPTKb79AMbty7aCyf+bDaL188utQJT24r7au3zS++CgMNji3bBld0jT716"
        "cudSOYxevPz9VPbbxbuAmKr4WNRzpqm3t3qLBJ+ARPyHd964eOEkScS/i1inai4JQJV/FtUU"
        "K9E9PfYfd6flqQ==",
        "e6db3eb9e0d99c60d93ec034c860df36c01ed0086831fe96f73f62acda270f3d",
    ),
}


def _pickle_query() -> np.ndarray:
    X = np.arange(24.0).reshape(12, 2) % 7.0
    return np.vstack([X, X + 0.5])


@pytest.mark.parametrize("name", sorted(OLD_PICKLES))
def test_models_pickled_by_the_recursive_grower_predict_the_same_bytes(name):
    blob, expected = OLD_PICKLES[name]
    model = pickle.loads(zlib.decompress(base64.b64decode(blob)))
    trees = [model] if name == "tree" else model.estimators_
    assert all(not hasattr(tree, "root_") and tree.n_nodes_ == len(tree.value_) for tree in trees)
    assert _sha([model.predict(_pickle_query())]) == expected


def _recursive_state(tree: DecisionTreeRegressor) -> dict:
    """The ``__dict__`` the recursive grower left on a fitted tree."""

    def node(i: int) -> _Node:
        if tree.feature_[i] < 0:
            return _Node(prediction=float(tree.value_[i]))
        return _Node(
            float(tree.value_[i]),
            int(tree.feature_[i]),
            float(tree.threshold_[i]),
            node(int(tree.left_[i])),
            node(int(tree.right_[i])),
        )

    return {
        **tree.get_params(),
        "_rng": np.random.default_rng(tree.random_state),
        "n_features_in_": tree.n_features_in_,
        "_max_features_resolved": tree.n_features_in_,
        "root_": node(0),
        "n_nodes_": tree.n_nodes_,
    }


@pytest.mark.parametrize("kind", KINDS)
def test_a_tree_in_the_recursive_layout_loads_flat(kind):
    X, y, query = _problem(80, 3, kind)
    tree = DecisionTreeRegressor(max_features="sqrt", random_state=0).fit(X, y)
    old = DecisionTreeRegressor.__new__(DecisionTreeRegressor)
    old.__dict__.update(_recursive_state(tree))
    loaded = pickle.loads(pickle.dumps(old))
    assert not hasattr(loaded, "root_")
    assert (loaded.n_nodes_, loaded.depth) == (tree.n_nodes_, tree.depth)
    assert loaded.predict(query).tobytes() == tree.predict(query).tobytes()
