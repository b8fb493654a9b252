"""Span tracing of the library's layers, wrapped from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the public entry point of each layer (a class method or a module
function) with a wrapper that records one span per call — name, start,
end and the index of the enclosing span — and restores the originals on
:meth:`Tracer.uninstall`.  Spans stay in memory; :meth:`Tracer.layer_metrics`
turns them into the per-layer metrics at the end of the run.

A span's *self* time is its duration minus the durations of its direct
children, so summed self times partition the traced wall time without
double counting.  The benchmark runs serially in one thread, so one call
stack describes every open span.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from collections import defaultdict

from repro.anomaly.watch import ResidualDriftWatcher
from repro.benchmarking.manifest import RunManifest
from repro.benchmarking.runner import BenchmarkRunner
from repro.core import autoai_ts as autoai_module
from repro.core.autoai_ts import AutoAITS
from repro.core.base import BaseForecaster
from repro.core.lookback import LookbackDiscovery
from repro.core.pipeline import ForecastingPipeline
from repro.core.registry import PAPER_PIPELINE_NAMES
from repro.core.tdaub import TDaub
from repro.exec.cache import EvaluationCache
from repro.forecasters.arima import AutoARIMAForecaster
from repro.forecasters.bats import BATSForecaster
from repro.forecasters.holtwinters import HoltWintersForecaster
from repro.hybrid.auto_ensembler import FlattenAutoEnsembler
from repro.hybrid.mt2r import MT2RForecaster
from repro.hybrid.window_regressor import WindowRegressor
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import RidgeRegression, StreamingRidge
from repro.ml.svr import SVR
from repro.ml.tree import DecisionTreeRegressor
from repro.store.digest import append_base_stats, digest_memo_stats
from repro.store.localfs import LocalFSBackend
from repro.stream.buffer import ArrivalBuffer
from repro.stream.engine import StreamingEngine

#: ``(owner, attribute, span name)`` of every wrapped entry point.  The
#: owner is a class (the method is replaced on it, so subclasses that
#: inherit it are traced too) or a module (for module-level functions the
#: caller looked up by name).
ENTRY_POINTS = (
    (BenchmarkRunner, "run", "benchmarking.run"),
    (RunManifest, "flush", "benchmarking.manifest_flush"),
    (AutoAITS, "fit", "core.autoai_fit"),
    (autoai_module, "check_data_quality", "core.quality"),
    (autoai_module, "clean_data", "core.quality"),
    (LookbackDiscovery, "discover", "core.lookback"),
    (TDaub, "fit", "core.tdaub"),
    (ForecastingPipeline, "fit", "pipeline.fit"),
    (ForecastingPipeline, "predict", "pipeline.predict"),
    (DecisionTreeRegressor, "fit", "ml.tree_fit"),
    (DecisionTreeRegressor, "predict", "ml.tree_predict"),
    (RandomForestRegressor, "fit", "ml.forest_fit"),
    (GradientBoostingRegressor, "fit", "ml.boost_fit"),
    (SVR, "fit", "ml.svr_fit"),
    (RidgeRegression, "fit", "ml.ridge_fit"),
    (StreamingRidge, "fit", "ml.ridge_fit"),
    (HoltWintersForecaster, "fit", "forecasters.hw_fit"),
    (BATSForecaster, "fit", "forecasters.bats_fit"),
    (AutoARIMAForecaster, "fit", "forecasters.arima_fit"),
    (MT2RForecaster, "fit", "hybrid.mt2r_fit"),
    (FlattenAutoEnsembler, "fit", "hybrid.ensembler_fit"),
    (WindowRegressor, "fit", "hybrid.window_fit"),
    (EvaluationCache, "get", "exec.cache_get"),
    (EvaluationCache, "put", "exec.cache_put"),
    (LocalFSBackend, "get", "store.get"),
    (LocalFSBackend, "put", "store.put"),
    (StreamingEngine, "append", "stream.append"),
    (StreamingEngine, "rerank", "stream.rerank"),
    (ArrivalBuffer, "append", "stream.buffer_append"),
    (BaseForecaster, "update", "stream.update_fallback"),
    (ResidualDriftWatcher, "observe", "anomaly.observe"),
)

#: Span name of the benchmark's own operation boundary (the trace root).
ROOT = "bench.op"

#: Spans reported by their own (self) time under the same metric name.
_SELF_TIMED = (
    "core.tdaub",
    "ml.tree_fit",
    "ml.tree_predict",
    "ml.forest_fit",
    "ml.boost_fit",
    "ml.svr_fit",
    "ml.ridge_fit",
    "forecasters.hw_fit",
    "forecasters.bats_fit",
    "forecasters.arima_fit",
    "hybrid.mt2r_fit",
    "hybrid.ensembler_fit",
    "hybrid.window_fit",
    "exec.cache_get",
    "exec.cache_put",
    "store.get",
    "store.put",
    "stream.buffer_append",
    "anomaly.observe",
    "benchmarking.manifest_flush",
)

#: Spans reported inclusive of their children (stage and wrapper times).
_INCLUSIVE = (
    "core.quality",
    "core.lookback",
    "pipeline.fit",
    "pipeline.predict",
    "stream.append",
    "stream.rerank",
)

#: Call counts reported as ``<span>_n``.
_COUNTED = (
    "ml.tree_fit",
    "ml.tree_predict",
    "pipeline.fit",
    "exec.cache_get",
    "store.get",
    "store.put",
    "benchmarking.manifest_flush",
)


#: Per-layer metrics the workloads measure themselves (0 where one does not).
WORKLOAD_METRICS = (
    "trace.overhead_s",
    "trace.overhead_ratio",
    "benchmarking.warm_cell_s",
    "stream.append_p50_ms",
    "stream.append_p90_ms",
)


def metric_name(pipeline_name: str) -> str:
    """Map a pipeline name into ``[A-Za-z0-9_.-]`` (``"A, log"`` -> ``"A_log"``)."""
    return re.sub(r"_+", "_", re.sub(r"[^A-Za-z0-9_.-]", "_", pipeline_name)).strip("_")


def _native_update_classes() -> list[type]:
    """Forecaster classes that override ``update`` with a real incremental path."""
    found, pending = [], [BaseForecaster]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if "update" in sub.__dict__:
                found.append(sub)
    return sorted(set(found), key=lambda cls: cls.__qualname__)


class Tracer:
    """In-memory span recorder over the library's public entry points."""

    def __init__(self):
        # Each span is [name, start, end, parent index].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._digest_base: tuple[dict, dict] | None = None

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def op(self, operation):
        """Run ``operation()`` traced, as a root span, and return its result.

        The entry points are wrapped only for the duration of the call, so
        the workload's untraced operations run the library's own code.
        ``operation`` must look its methods up when called (a lambda), not
        hold methods bound before the wrappers were installed.
        """
        self.install()
        record = self._open(ROOT)
        try:
            return operation()
        finally:
            self._close(record)
            self.uninstall()

    def _wrap(self, original, name: str, after=None, label=None):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name if label is None else label(args[0]))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(record)
                if after is not None:
                    after(args[0], None, True)
                raise
            tracer._close(record)
            if after is not None:
                after(args[0], result, False)
            return result

        traced.__wrapped__ = original
        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point; call :meth:`uninstall` to restore them."""
        if self._patched:
            return self
        if self._digest_base is None:
            self._digest_base = (append_base_stats(), digest_memo_stats())
        hooks = {
            "core.autoai_fit": self._after_autoai_fit,
            "core.tdaub": self._after_tdaub_fit,
            "stream.rerank": self._after_rerank,
            "stream.update_fallback": self._after_update("fallback"),
            "stream.update_native": self._after_update("native"),
        }
        labels = {"pipeline.fit": lambda pipeline: "pipeline.fit:" + pipeline.name}
        targets = [*ENTRY_POINTS]
        targets += [(cls, "update", "stream.update_native") for cls in _native_update_classes()]
        for owner, attribute, name in targets:
            original = (
                owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            )
            wrapper = self._wrap(original, name, hooks.get(name), labels.get(name))
            setattr(owner, attribute, wrapper)
            self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- counters read from outside after each call ------------------------------
    def _after_autoai_fit(self, model, result, raised) -> None:
        if raised or not hasattr(model, "tdaub_"):
            return
        # AutoAITS keeps the T-Daub-trained model when the final refit raised.
        tdaub_model = getattr(model.tdaub_, "best_pipeline_", None)
        if tdaub_model is not None and model.best_pipeline_ is tdaub_model:
            self.counters["core.final_refit_fallback_n"] += 1

    def _after_tdaub_fit(self, tdaub, result, raised) -> None:
        if raised:
            return
        for _, score, _ in tdaub.result_.ranking_table():
            if not math.isfinite(score):
                self.counters["core.pipelines_failed"] += 1
        ranked = tdaub.ranked_names_
        if ranked and getattr(tdaub, "best_pipeline_name_", ranked[0]) != ranked[0]:
            # T-Daub deployed a lower-ranked pipeline: the winner's fit raised.
            self.counters["core.tdaub_winner_skip_n"] += 1
        stats = tdaub.cache_stats_
        if stats is not None:
            self.counters["exec.cache_hits"] += stats.hits
            self.counters["exec.cache_misses"] += stats.misses
            self.counters["exec.cache_disk_hits"] += stats.disk_hits
            self.counters["exec.cache_prefix_hits"] += stats.prefix_hits

    def _after_rerank(self, engine, result, raised) -> None:
        if not raised:
            self.counters["stream.warm_hits"] += engine.ranker_.warm_hits_
            self.counters["stream.prefix_refits"] += engine.ranker_.prefix_refits_

    def _after_update(self, kind: str):
        def after(model, result, raised) -> None:
            # Only updates called by the engine on its deployed model count.
            parent = self.spans[self._stack[-1]][0] if self._stack else ""
            if parent == "stream.append":
                self.counters[f"stream.update_{kind}_n"] += 1
                if raised:
                    self.counters["stream.update_raised_n"] += 1

        return after

    # -- reduction ---------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: self/inclusive seconds, call counts, counters."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        final_fit = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            base = name.split(":", 1)[0]
            for key in {name, base}:
                inclusive[key] += duration
                own[key] += duration - children[index]
                calls[key] += 1
            if base == "pipeline.fit" and parent >= 0 and self.spans[parent][0] == "core.autoai_fit":
                # The only pipeline fit AutoAITS makes itself is the final refit.
                final_fit += duration

        metrics: dict[str, float] = dict.fromkeys(WORKLOAD_METRICS, 0.0)
        for name in _SELF_TIMED:
            metrics[name + "_s"] = own[name]
        for name in _INCLUSIVE:
            metrics[name + "_s"] = inclusive[name]
        for name in _COUNTED:
            metrics[name + "_n"] = float(calls[name])
        metrics["core.final_fit_s"] = final_fit
        for pipeline in PAPER_PIPELINE_NAMES:
            metrics[f"pipeline.{metric_name(pipeline)}.fit_s"] = inclusive["pipeline.fit:" + pipeline]

        counters = self.counters
        for key in (
            "core.pipelines_failed",
            "core.final_refit_fallback_n",
            "core.tdaub_winner_skip_n",
            "exec.cache_disk_hits",
            "exec.cache_prefix_hits",
            "stream.update_native_n",
            "stream.update_fallback_n",
            "stream.update_raised_n",
            "stream.warm_hits",
            "stream.prefix_refits",
        ):
            metrics[key] = float(counters[key])
        lookups = counters["exec.cache_hits"] + counters["exec.cache_misses"]
        metrics["exec.cache_hit_ratio"] = counters["exec.cache_hits"] / lookups if lookups else 0.0
        updates = counters["stream.update_native_n"] + counters["stream.update_fallback_n"]
        metrics["stream.fallback_ratio"] = (
            counters["stream.update_fallback_n"] / updates if updates else 0.0
        )

        append_now, memo_now = append_base_stats(), digest_memo_stats()
        append_then, memo_then = self._digest_base or (append_now, memo_now)
        metrics["store.append_prefix_hits"] = float(append_now["prefix_hits"] - append_then["prefix_hits"])
        metrics["store.append_full_rehashes"] = float(
            append_now["full_rehashes"] - append_then["full_rehashes"]
        )
        metrics["store.digest_memo_hits"] = float(memo_now["hits"] - memo_then["hits"])
        metrics["store.digest_memo_misses"] = float(memo_now["misses"] - memo_then["misses"])

        wall = inclusive[ROOT]
        metrics["trace.wall_s"] = wall
        metrics["trace.spans"] = float(len(self.spans))
        # Share of the traced wall time the self-timed layer metrics above
        # account for (orchestration wrappers and inclusive stages excluded).
        metrics["trace.coverage"] = sum(own[name] for name in _SELF_TIMED) / wall if wall else 0.0
        cost = self.span_cost()
        metrics["trace.span_cost_us"] = 1e6 * cost
        # Recording cost alone, which host drift cannot blur.
        metrics["trace.overhead_est_ratio"] = len(self.spans) * cost / wall if wall else 0.0
        return metrics

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one traced call adds over an untraced one (median of 5 trials)."""

        def plain(value):
            return value

        scratch = Tracer()
        traced = scratch._wrap(plain, "calibration")
        trials = []
        for _ in range(5):
            t0 = time.perf_counter()
            for index in range(calls):
                plain(index)
            t1 = time.perf_counter()
            for index in range(calls):
                traced(index)
            t2 = time.perf_counter()
            scratch.spans.clear()
            trials.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(trials)
