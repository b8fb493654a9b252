"""The benchmark's workloads, driven through the library's public API only.

Each workload is a function ``(seed, seconds, tracer[, workdir]) -> Outcome``.
Its inputs are surrogate series from :mod:`repro.data` whose
``seed_offset`` is derived from the seed (see :func:`draws`); everything
else is fixed here, so one seed always produces the same inputs.

Every workload times one kind of *operation* that ranks the whole paper
inventory from cold — the part of the system whose cost sums over all ten
pipelines and so does not hinge on which pipeline happens to win for one
noise draw.  The warm paths each workload also drives (store reads, appends,
re-ranks) cost mostly the winner's refit, a 1000x spread between
pipelines; they are checked on every run and timed in the traced run.

An end-to-end run is a closed loop with one caller: it runs the operation
on one new input after another, cycling through the series of the family,
while another operation of the mean length so far still ends within
``seconds``, and ``op_s`` is the mean over all of them.  One input's cost
depends on which pipeline wins it (a cold ``uni_fit`` fit took 0.75-5.9 s
on 64 rows), so a run averages over as many inputs as its window holds;
the mean also averages the host's drift within the window.  Before the
window the first input runs once untimed: a warm-up (lazy imports and
first-call caches cost the first operation of a process up to 2x) that
also carries the workload's warm-path checks.  The window's operation on
the same input must give the same result.

``tracer`` is ``None`` for the end-to-end run.  The traced run performs a
fixed amount of traced work, so span counts repeat exactly for a seed, plus
untraced twins of traced operations, from which the tracing overhead is
taken.  An operation fails when it raises or fails its check.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.benchmarking import BenchmarkRunner, autoai_toolkit_factories
from repro.core.autoai_ts import AutoAITS
from repro.core.quality import check_data_quality
from repro.core.registry import PipelineRegistry
from repro.data import load_univariate_dataset
from repro.metrics.errors import smape
from repro.stream import StreamingEngine

#: The paper's forecast horizon, as in the FAST benchmark profile.
HORIZON = 12

#: The four quarterly surrogates of Table 4.  One signal family: look-back
#: discovery settles on 4 for most of their noise draws, where the FAST
#: profile's mixed series swing between windows of 2 and 24 from one seed
#: to the next and with them the cost of a fit by 5x.
FAMILY = ("ausbeer", "qauselec", "qgas", "qcement")

#: Cap on a fitted series' length (the FAST profile caps at 300 rows, where
#: one cold fit takes 7-28 s).  At 64 rows (51 for T-Daub after the 20%
#: holdout) a cold fit takes about a second and T-Daub still runs its fixed
#: allocation rounds (48 and 51 rows) and scoring over all ten pipelines;
#: at 80 rows a fit took 2-3x as long.
MAX_LENGTH = 64
#: Noise draws per series built for one ``uni_fit`` run: 128 inputs, more
#: than one run's window uses.
UNI_DRAWS_PER_SERIES = 32
#: Operations every end-to-end run makes, whatever ``--seconds`` says.
MIN_OPS = 8
#: Operations of the traced run (a fixed amount of work).
TRACED_OPS = 2


def draws(seed: int, per_series: int) -> list[tuple[str, int]]:
    """``(data set, seed_offset)`` pairs of one run.

    ``repro.data`` seeds a series with ``1000 + index + seed_offset``, so
    neighbouring data sets of one family with neighbouring offsets are the
    same draw.  Offsets ``8 * (per_series * seed + k)`` keep every draw of
    a run, and of any two runs with different seeds, distinct.
    """
    return [
        (name, 8 * (per_series * seed + k)) for k in range(per_series) for name in FAMILY
    ]


def load(draw: tuple[str, int], max_length: int | None = MAX_LENGTH) -> np.ndarray:
    name, offset = draw
    return load_univariate_dataset(name, max_length=max_length, seed_offset=offset).reshape(-1, 1)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    warmup_s: float
    ops: list[float] = field(default_factory=list)
    smape: float = float("nan")
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def op_s(self) -> float:
        return statistics.fmean(self.ops) if self.ops else float("nan")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.checks.append(message)


def _overhead(outcome: Outcome, traced: float, untraced: float) -> None:
    outcome.layers["trace.overhead_s"] = traced - untraced
    outcome.layers["trace.overhead_ratio"] = (traced - untraced) / untraced if untraced else 0.0


def _closed_loop(count: int, seconds: float, operation) -> list[float]:
    """Run ``operation(index)`` on inputs ``0, 1, ...`` of ``count``, one after another.

    A run makes at least ``MIN_OPS`` operations and then another while one
    of the mean length so far still ends within ``seconds`` and inputs
    last.  ``operation`` returns the seconds it timed, or ``None`` to end
    the run.
    """
    ops: list[float] = []
    started = time.perf_counter()
    while len(ops) < count and (
        len(ops) < MIN_OPS or time.perf_counter() - started + statistics.fmean(ops) <= seconds
    ):
        elapsed = operation(len(ops))
        if elapsed is None:
            break
        ops.append(elapsed)
    return ops


def _timed(operation, tracer):
    """Run ``operation()`` (traced when ``tracer`` is given); return (result, seconds)."""
    started = time.perf_counter()
    result = tracer.op(operation) if tracer is not None else operation()
    return result, time.perf_counter() - started


# -- uni_fit -------------------------------------------------------------------


def uni_fit(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    """Cold zero-conf AutoAI-TS fits, and one benchmark-matrix cell re-run warm.

    The operation is the paper's core path with no store: zero-conf
    ``AutoAITS.fit`` of the paper inventory on a new draw (quality check,
    look-back discovery, T-Daub on the first 80%, the winner's holdout
    score and final refit); ``smape`` is its ``holdout_report_.smape``.
    The window's fit of the first draw must give the warm-up's holdout
    SMAPE, winner and ranking.

    Before the window, besides the untimed warm-up fit of the first draw,
    ``BenchmarkRunner`` runs ``autoai_toolkit_factories(cache_dir=...)``
    on that draw once cold, against a run manifest and an empty LocalFS
    evaluation store, and once more with ``resume=False``.  The re-run must
    be warm — every T-Daub cell a store read — and its result, winner and
    ranking must equal the cold cell's.  A warm cell costs mostly the
    winner's two final fits, so it is timed in the traced run only.
    """
    started = time.perf_counter()
    run_draws = draws(seed, UNI_DRAWS_PER_SERIES)
    inputs = [load(draw) for draw in run_draws]
    models: list[AutoAITS] = []
    runner = BenchmarkRunner(
        horizon=HORIZON, executor="serial", manifest_path=str(workdir / "manifest.json")
    )
    outcome = Outcome(warmup_s=time.perf_counter() - started)
    first: dict[int, tuple] = {}
    cell_result: list[tuple] = []
    warm_times: list[float] = []

    def fit(index: int, traced_by) -> float | None:
        outcome.attempted += 1
        model = AutoAITS(prediction_horizon=HORIZON, executor="serial")
        try:
            _, elapsed = _timed(lambda: model.fit(inputs[index]), traced_by)
        except Exception as exc:  # noqa: BLE001 - a raising fit is a failed operation
            outcome.fail(f"draw {index}: fit raised {exc!r}")
            return None
        value = (model.holdout_report_.smape, model.best_pipeline_name_, tuple(model.ranked_pipelines_))
        if not np.isfinite(value[0]):
            outcome.fail(f"draw {index}: holdout SMAPE {value[0]}")
            return None
        if first.setdefault(index, value) != value:
            outcome.fail(f"draw {index}: a cold re-fit gave {value}, the first {first[index]}")
            return None
        return elapsed

    def cell(traced_by) -> tuple[tuple, float] | None:
        outcome.attempted += 1
        models.clear()
        make = autoai_toolkit_factories(executor="serial", cache_dir=str(workdir / "store"))

        def capturing(horizon: int) -> AutoAITS:
            model = make["AutoAI-TS"](horizon)
            models.append(model)
            return model

        name, offset = run_draws[0]
        dataset = {f"{name}@{offset}": inputs[0]}
        try:
            results, elapsed = _timed(
                lambda: runner.run(dataset, {"AutoAI-TS": capturing}, resume=False), traced_by
            )
        except Exception as exc:  # noqa: BLE001 - a raising cell is a failed operation
            outcome.fail(f"cell: {exc!r}")
            return None
        (run,) = results.runs
        if run.failed or not np.isfinite(run.smape):
            outcome.fail(f"cell failed: {run.error}")
            return None
        if not (workdir / "manifest.json").is_file():
            outcome.fail("cell: no run manifest was written")
            return None
        model = models[0]
        return (run.smape, model.best_pipeline_name_, tuple(model.ranked_pipelines_)), elapsed

    def warm(traced_by) -> float | None:
        result = cell(traced_by)
        if result is None:
            return None
        tdaub = models[0].tdaub_
        # In-task failures are cached in memory only, by design; every
        # other T-Daub cell must come from the store.
        failed_cells = sum(
            len(evaluation.scores) for evaluation in tdaub.evaluations_.values() if evaluation.failed
        )
        stats = tdaub.cache_stats_
        if result[0] != cell_result[0] or stats.misses > failed_cells or stats.disk_hits == 0:
            outcome.fail(
                f"warm cell {result[0]} vs cold {cell_result[0]}, "
                f"{stats.misses} misses, {stats.disk_hits} disk hits"
            )
            return None
        return result[1]

    # The warm-up fit of the first draw (the traced run's operations are
    # the first two fits), then the matrix cell, cold and warm.  The
    # traced run re-runs the warm cell untraced, for the tracing overhead.
    for index in range(TRACED_OPS if tracer is not None else 1):
        elapsed = fit(index, tracer)
        if elapsed is not None and tracer is not None:
            outcome.ops.append(elapsed)
    cold = cell(tracer) if not outcome.failed else None
    if cold is not None:
        cell_result.append(cold[0])
        elapsed = warm(tracer)
        if elapsed is not None:
            warm_times.append(elapsed)
    if tracer is not None:
        untraced = warm(None) if warm_times else None
        if untraced is not None:
            _overhead(outcome, warm_times[0], untraced)
            outcome.layers["benchmarking.warm_cell_s"] = warm_times[0]
    elif not outcome.failed:
        outcome.ops = _closed_loop(len(inputs), seconds, lambda index: fit(index, None))

    scores = [first[index][0] for index in sorted(first)]
    outcome.smape = statistics.fmean(scores) if scores else float("nan")
    outcome.details = {
        "draws": run_draws[: len(scores)],
        "fit_s": [round(t, 4) for t in outcome.ops],
        "warm_cell_s": [round(t, 4) for t in warm_times],
        "smape": [round(value, 4) for value in scores],
        "winners": [first[index][1] for index in sorted(first)],
    }
    return outcome


# -- stream_rerank -------------------------------------------------------------

#: Rows a stream starts from, and the single-row arrivals of the first stream.
STREAM_START = 96
ARRIVALS = 8
#: Look-back window of the streamed pipelines: the quarterly period.  The
#: engine takes its pipelines ready-made; discovery on 96 rows picks 9-32
#: for one draw in five, which triples the cost of a start.
STREAM_LOOKBACK = 4
#: Noise draws per series built for one ``stream_rerank`` run: 48 inputs.
STREAM_DRAWS_PER_SERIES = 12


def stream_rerank(seed: int, seconds: float, tracer) -> Outcome:
    """Closed loop, one caller: cold starts, then single-row appends and a warm re-rank.

    The operation is a cold ``StreamingEngine.start`` on the first
    ``STREAM_START`` rows of a draw, with the paper inventory, and
    ``smape`` scores the started winner's ``HORIZON``-step forecast against
    the rows that follow.  Before the window the first draw starts once
    untimed, as a warm-up; the window's start on it must deploy the same
    winner with the same accuracy.  The warm-up stream takes ``ARRIVALS``
    rows one ``append`` at a time (drift re-ranks off, so an append is the
    arrival path alone: buffer, watcher, the winner's ``update``) and one
    forced warm ``rerank``,
    which must serve the unchanged-prefix cells from the memory-tier cache
    (``warm_hits_ > 0``) and re-fit none of them (``prefix_refits_ == 0``).
    Appends and the re-rank cost mostly the winner's refit, so they are
    timed in the traced run only.
    """
    started = time.perf_counter()
    run_draws = draws(seed, STREAM_DRAWS_PER_SERIES)
    series = [load(draw, max_length=None) for draw in run_draws]
    outcome = Outcome(warmup_s=time.perf_counter() - started)
    first: dict[int, tuple[float, str]] = {}
    appends: list[float] = []
    reranks: list[float] = []

    def start(index: int, traced_by) -> tuple[StreamingEngine, float] | None:
        values = series[index]
        history = values[:STREAM_START]
        allow_log = check_data_quality(history).allow_log_transforms
        pipelines = PipelineRegistry().create_all(
            lookback=STREAM_LOOKBACK, horizon=HORIZON, allow_log=allow_log
        )
        engine = StreamingEngine(
            pipelines, horizon=HORIZON, rerank_on_drift=False, tdaub_params={"executor": "serial"}
        )
        outcome.attempted += 1
        try:
            _, elapsed = _timed(lambda: engine.start(history), traced_by)
            forecast = np.asarray(engine.predict(HORIZON), dtype=float).ravel()
        except Exception as exc:  # noqa: BLE001 - a raising start is a failed operation
            outcome.fail(f"draw {index}: start raised {exc!r}")
            return None
        if forecast.shape != (HORIZON,) or not np.all(np.isfinite(forecast)):
            outcome.fail(f"draw {index}: forecast {forecast.tolist()} is not finite")
            return None
        value = (smape(values[STREAM_START : STREAM_START + HORIZON, 0], forecast), engine.winner_name_)
        if first.setdefault(index, value) != value:
            outcome.fail(f"draw {index}: a cold re-run deployed {value}, the first {first[index]}")
            return None
        return engine, elapsed

    def arrivals(engine: StreamingEngine, values: np.ndarray) -> None:
        traced_times, untraced_times = [], []
        for position in range(STREAM_START, STREAM_START + ARRIVALS):
            outcome.attempted += 1
            row = values[position : position + 1]
            # In the traced run every other arrival is untraced: the pairs
            # give the tracing overhead of the arrival path.
            traced_by = tracer if position % 2 == 0 else None
            try:
                report, elapsed = _timed(lambda: engine.append(row), traced_by)
            except Exception as exc:  # noqa: BLE001 - a raising append is a failed operation
                outcome.fail(f"append at row {position} raised {exc!r}")
                continue
            if report.total_rows != position + 1 or report.n_new != 1 or report.reranked:
                outcome.fail(f"append at row {position} reported {report}")
                continue
            appends.append(elapsed)
            (traced_times if traced_by is not None else untraced_times).append(elapsed)
        if tracer is not None and traced_times and untraced_times:
            _overhead(outcome, statistics.median(traced_times), statistics.median(untraced_times))

        outcome.attempted += 1
        try:
            _, elapsed = _timed(lambda: engine.rerank(), tracer)
        except Exception as exc:  # noqa: BLE001 - a raising re-rank is a failed operation
            outcome.fail(f"rerank raised {exc!r}")
            return
        ranker = engine.ranker_
        if ranker.prefix_refits_ != 0 or ranker.warm_hits_ <= 0:
            outcome.fail(
                f"rerank with prefix_refits_={ranker.prefix_refits_}, "
                f"warm_hits_={ranker.warm_hits_}"
            )
            return
        reranks.append(elapsed)

    def operation(index: int) -> float | None:
        result = start(index, None)
        return None if result is None else result[1]

    # The traced run's fixed work, or the end-to-end run's untimed warm-up:
    # one start, its appends and re-rank.
    result = start(0, tracer)
    if result is not None:
        arrivals(result[0], series[0])
    if tracer is not None:
        outcome.ops = [result[1]] if result is not None else []
    elif not outcome.failed:
        outcome.ops = _closed_loop(len(series), seconds, operation)

    scores = [first[index][0] for index in sorted(first)]
    outcome.smape = statistics.fmean(scores) if scores else float("nan")
    if tracer is not None and appends:
        outcome.layers["stream.append_p50_ms"] = 1000.0 * float(np.percentile(appends, 50))
        outcome.layers["stream.append_p90_ms"] = 1000.0 * float(np.percentile(appends, 90))
    outcome.details = {
        "draws": run_draws[: len(outcome.ops)],
        "start_s": [round(t, 4) for t in outcome.ops],
        "append_ms": [round(1000.0 * t, 3) for t in appends],
        "rerank_s": [round(t, 4) for t in reranks],
        "smape": [round(value, 4) for value in scores],
        "winners": [first[index][1] for index in sorted(first)],
    }
    return outcome


def run_workload(name: str, seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    """Run one workload by name; ``workdir`` is an empty scratch directory."""
    if name == "uni_fit":
        return uni_fit(seed, seconds, tracer, workdir)
    if name == "stream_rerank":
        return stream_rerank(seed, seconds, tracer)
    raise KeyError(name)
