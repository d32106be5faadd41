"""The measured process: one workload, one seed, one run.

``run.py`` starts this script in a fresh process after ``prepare.py``
has built the inputs, so the peak RSS reported here is this process's
own.  Usage::

    PYTHONPATH=src python3 perfbench/measure.py --workload serve \\
        --seed 3 --seconds 20 --trace 0 --inputs '<prepare.py manifest>'

The last line of stdout is the result object ``run.py`` forwards.
With ``--trace 0`` every timed value comes from code running without
wrappers; with ``--trace 1`` every other op runs traced and the
per-layer metrics, the tracing overhead and the unattributed share of
op time are reported instead.

Every timed value is reported in reference-host time: a fixed probe
(``host_probe_ms``) runs between ops throughout the run, and each
sample is scaled by ``REFERENCE_PROBE_MS`` over the probes taken just
before and just after it, to the power of its ``HOST_SENSITIVITY``
(see :class:`HostClock`).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: training on 2 threads spreads twice as much
# between runs for ~10% less wall time on a 2-vCPU host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from repro import api  # noqa: E402
from repro.api import pipeline as api_pipeline  # noqa: E402
from repro.autodiff import Tape  # noqa: E402
from repro.core import TrainConfig, VRDAG, VRDAGConfig, VRDAGTrainer  # noqa: E402
from repro.eval.harness import VRDAGGenerator  # noqa: E402
from repro.generation import ShardedStructureDecoder  # noqa: E402
from repro.graph import DynamicAttributedGraph  # noqa: E402
from repro.graph import io as graph_io  # noqa: E402
from repro.graph.live import LiveStoreBuilder  # noqa: E402
from repro.graph.store import (  # noqa: E402
    TemporalEdgeStore,
    track_dense_materializations,
)
from repro.nn import Adam  # noqa: E402
from repro.nn.optim import Optimizer  # noqa: E402
from repro.workloads import (  # noqa: E402
    GraphQueryEngine,
    LiveQueryService,
    Query,
    QueryKind,
    QueryRequest,
    QueryService,
    run_queries_batched,
)
from repro.workloads.generator import _run_query  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

#: end-to-end metrics, printed with ``--trace 0`` (name -> unit)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "freshness_p50_ms": "ms",
    "final_loss": "nats",
    "fidelity_err": "mmd",
}

KERNELS = (
    "batch_degrees", "batch_neighbors", "batch_has_edge",
    "batch_edge_window_counts", "batch_attribute_range_counts",
    "batch_two_hop", "batch_temporal_reach", "triangle_count",
    "degree_topk",
)

#: per-layer metrics, printed with ``--trace 1`` (name -> unit); a
#: layer a workload does not run reports 0
PER_LAYER = {
    "core.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_records": "count",
    "nn.optimizer_ms": "ms",
    "core.calibrate_ms": "ms",
    "graph.dense_materializations": "count",
    "api.load_artifact_ms": "ms",
    "generation.decode_ms": "ms",
    "core.rollout_ms": "ms",
    "metrics.structure_ms": "ms",
    "api.pipeline_overhead_ms": "ms",
    "generation.edges_per_request": "count",
    "graph.io.load_ms": "ms",
    **{f"workloads.engine.{k}_us": "us" for k in KERNELS},
    "workloads.dispatch_us_per_query": "us",
    "workloads.cache.hit_rate": "ratio",
    "workloads.cache.misses": "count",
    "workloads.cache.invalidations": "count",
    "workloads.cache.resident_bytes": "B",
    "graph.live.extend_us_per_event": "us",
    "graph.live.seal_ms": "ms",
    "workloads.live.refresh_ms": "ms",
    "workloads.live.stale_refreshes": "count",
    "schedule.lateness_ms": "ms",
    "reliability.failed": "count",
    "reliability.shed": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "host.probe_before_ms": "ms",
    "host.probe_after_ms": "ms",
}

#: reported for a quality metric on a workload it does not describe
#: (``fidelity_err`` on fit, both quality metrics on serve and live):
#: every workload prints every end-to-end metric, and 1.0 never moves
NOT_APPLICABLE = 1.0
#: fits per run whose final losses are reported (fixed seeds, so the
#: mean is deterministic per workload seed)
FIT_QUALITY_FITS = 6
#: generate requests whose fidelity is reported (fixed seeds)
FIDELITY_REQUESTS = 16
#: latency samples a run takes at least, so that p90 has ten beyond it
MIN_LATENCY_SAMPLES = 100
#: what one host probe takes on the reference host, the unit every
#: timed value is scaled to (about the fast speed of a 2-vCPU Xeon VM)
REFERENCE_PROBE_MS = 1.5
#: how a timed sample follows the probe across host speeds: sample
#: time ~ probe time ** sensitivity, per workload and kind of sample
#: (``op``: epochs, requests, batches and busy time).  Measured over
#: six runs per workload in which the probe's run median ranged
#: 1.1-1.9 ms: the exponent, in steps of 0.1, that left the least
#: run-to-run spread.  Dense NumPy work (training, generation, archive
#: loads) slows less than interpreted code (query dispatch).
HOST_SENSITIVITY = {
    "fit": {"op": 0.7, "setup": 1.0, "fresh": 0.7},
    "generate": {"op": 0.8, "setup": 0.8, "fresh": 0.8},
    # serve's freshness is a cold archive load plus one request
    "serve": {"op": 1.0, "setup": 0.6, "fresh": 0.6},
    "live": {"op": 1.0, "setup": 0.6, "fresh": 1.0},
}
#: serve: seconds between host probes (fit and generate probe between
#: every epoch or request, live once per sealed timestep)
PROBE_EVERY_S = 0.1
#: set-up samples spread evenly over a run's window
SETUP_POINTS = 8
#: live: one timestep of events falls due every interval
LIVE_INTERVAL_S = 0.1
#: set-ups timed back to back before each fit and at the start of each
#: live replay cycle: they take milliseconds, so one sample is mostly
#: timer and cache noise
SETUP_REPEATS = 5
#: serve: one request in this many is kept for the oracle; prime, so
#: the kept requests cycle through the whole 32-request pool
SERVE_SAMPLE_EVERY = 61


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1000, 300)
_PROBE_VALUES = np.random.default_rng(1).standard_normal(300)
#: 16 MB, well past the per-core caches
_PROBE_TABLE = np.random.default_rng(2).standard_normal(1 << 21)
_PROBE_GATHER = np.random.default_rng(3).integers(0, 1 << 21, 40_000)


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


def host_probe_ms() -> float:
    """Fixed loop, independent of the program; the best of three, in ms.

    About 1.5 ms per run on the reference host.  Its three parts are
    the kinds of work the workloads do, and each slows in a host slow
    phase about as much as they do: interpreted arithmetic and dict
    stores; dispatch-like churn of small NumPy calls, small objects and
    sorts; and a memory-bound random gather.  (A part of dense NumPy
    kernels was tried and dropped: it slows far less than the
    workloads.)
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc, table = 0, {}
        for i in range(2000):
            acc += i * i
            table[i & 255] = acc
        for k in range(20):
            keys = np.unique(_PROBE_KEYS[k:k + 200])
            found = np.searchsorted(keys, _PROBE_KEYS[:50])
            mask = _PROBE_VALUES[_PROBE_KEYS[:100] % 300] > 0.1
            acc += int(np.concatenate([keys[:10], found[:10]]).sum())
            acc += int(mask.sum())
            items = [_ProbeItem(i, k) for i in range(30)]
            index = {item.key: item for item in items}
            acc += sum(index[i].value for i in range(0, 30, 3))
            acc += sorted(items, key=lambda item: -item.key)[0].key
        acc += int(_PROBE_TABLE[_PROBE_GATHER].sum())
        best = min(best, perf_counter() - t0)
    return 1e3 * best


class HostClock:
    """Host probes taken between ops, to scale samples to the reference host.

    The host's speed changes by up to 2x, in stretches of 0.2 s to
    several minutes, so whole runs can be fast or slow.  A timed sample
    scaled by ``REFERENCE_PROBE_MS`` over the mean of the probes just
    before and just after it, to the power of the sample's sensitivity,
    measures the program, not the phase the host was in.  Probes run
    between ops and set-ups, never inside one.
    """

    def __init__(self, every_s: float = 0.0) -> None:
        self.every_s = every_s
        self.at: List[float] = []  # when each probe ended
        self.ms: List[float] = []
        self._next = 0.0

    def probe(self) -> None:
        ms = host_probe_ms()
        now = perf_counter()
        self.at.append(now)
        self.ms.append(ms)
        self._next = now + self.every_s

    def tick(self) -> None:
        """Probe if ``every_s`` has passed since the last probe."""
        if perf_counter() >= self._next:
            self.probe()

    def scale(self, end: float, seconds: float, sensitivity: float) -> float:
        """``seconds`` ending at ``end``, in reference-host seconds."""
        before = bisect.bisect_right(self.at, end - seconds) - 1
        after = bisect.bisect_left(self.at, end)
        near = [self.ms[k] for k in (before, after) if 0 <= k < len(self.ms)]
        return seconds * (REFERENCE_PROBE_MS / np.mean(near)) ** sensitivity

    def run_factor(self, sensitivity: float) -> float:
        """The scale factor at the run's median probe, for layer times."""
        return (REFERENCE_PROBE_MS / np.median(self.ms)) ** sensitivity


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """The measured window and its evenly spaced set-up points."""

    def __init__(self, seconds: float, points: int = SETUP_POINTS):
        self.start = perf_counter()
        self.end = self.start + seconds
        self._step = seconds / points
        self._next = self.start

    def open(self) -> bool:
        return perf_counter() < self.end

    def setup_due(self) -> bool:
        if perf_counter() >= self._next:
            self._next += self._step
            return True
        return False


class Tally:
    """Op counts, timed samples and the traced/untraced split of one run.

    Timed samples are ``(end, duration)`` pairs, scaled to the reference
    host by ``clock`` with the ``sensitivity`` of their kind when the
    run is summed up.
    """

    def __init__(self, clock: HostClock,
                 sensitivity: Dict[str, float]) -> None:
        self.clock = clock
        self.sensitivity = sensitivity
        self.attempted = 0
        self.failed = 0
        self.latency: List[Tuple[float, float]] = []
        self.setup: List[Tuple[float, float]] = []
        self.fresh: List[Tuple[float, float]] = []
        #: busy time: ``(end, duration, units, traced)``; units are what
        #: ops_per_s counts (epochs, requests, queries), and ``traced``
        #: is None for work outside the traced/untraced comparison
        self.work: List[Tuple[float, float, int, Optional[bool]]] = []
        self.traced_top_s = 0.0  # attributed time of traced ops

    def add_work(self, end: float, seconds: float, units: int,
                 traced: Optional[bool]) -> None:
        self.work.append((end, seconds, units, traced))

    def traced_units(self) -> int:
        return sum(w[2] for w in self.work if w[3] is True)

    def scaled(self, samples, kind: str = "op") -> np.ndarray:
        s = self.sensitivity[kind]
        return np.array([self.clock.scale(end, dt, s) for end, dt in samples])

    def trace_summary(self) -> Dict[str, float]:
        rate, wall = {}, {}
        for side in (True, False):
            mine = [w for w in self.work if w[3] is side]
            units = sum(w[2] for w in mine)
            scaled = self.scaled([w[:2] for w in mine]).sum() if mine else 0.0
            rate[side] = units / scaled if units and scaled else 0.0
            wall[side] = sum(w[1] for w in mine)
        overhead = 0.0
        if rate[True] and rate[False]:
            overhead = 100.0 * (rate[False] / rate[True] - 1.0)
        tw = wall[True]
        unattributed = 100.0 * (tw - self.traced_top_s) / tw if tw else 0.0
        return {
            "trace.overhead_pct": overhead,
            "trace.unattributed_pct": unattributed,
        }

    def end_to_end(self) -> Dict[str, float]:
        ok = self.attempted - self.failed
        latency = self.scaled(self.latency)
        units = sum(w[2] for w in self.work)
        return {
            "setup_s": float(np.median(self.scaled(self.setup, "setup"))),
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": ok / self.attempted,
            "ops_per_s": units / self.scaled([w[:2] for w in self.work]).sum(),
            "latency_p50_ms": 1e3 * float(np.percentile(latency, 50)),
            "latency_p90_ms": 1e3 * float(np.percentile(latency, 90)),
            "freshness_p50_ms":
                1e3 * float(np.median(self.scaled(self.fresh, "fresh"))),
        }


class traced_op:
    """Install ``tracer`` for one op when ``on``.

    With a ``tally``, the op's attributed (outermost-span) time is
    added to ``tally.traced_top_s``.
    """

    def __init__(self, tracer, on: bool, tally: Optional[Tally] = None):
        self.tracer, self.on, self.tally = tracer, on, tally

    def __enter__(self):
        if self.on:
            self.tracer.install()
            self._top = self.tracer.top_s
        return self

    def __exit__(self, *exc):
        if self.on:
            if self.tally is not None:
                self.tally.traced_top_s += self.tracer.top_s - self._top
            self.tracer.remove()


def load_tracer() -> Tracer:
    """Tracer for set-up: the input loads, kept apart from op spans."""
    loads = Tracer()
    loads.add(graph_io, "load", "graph.io.load")
    loads.add(api, "load_artifact", "api.load_artifact")
    return loads


def load_layers(loads: Tracer) -> Dict[str, float]:
    return {
        "graph.io.load_ms": loads.mean_ms(
            "graph.io.load", loads.calls["graph.io.load"]),
        "api.load_artifact_ms": loads.mean_ms(
            "api.load_artifact", loads.calls["api.load_artifact"]),
    }


# ----------------------------------------------------------------------
# fit: fresh VRDAG fits at the harness defaults
# ----------------------------------------------------------------------
def run_fit(inputs, seed, seconds, tracer, loads, plant):
    if tracer is not None:
        tracer.add(VRDAG, "sequence_loss", "core.forward")
        tracer.add(Tape, "backward", "autodiff.backward",
                   after=_count_tape_records)
        tracer.add(Adam, "step", "nn.optimizer")
        tracer.add(Optimizer, "clip_grad_norm", "nn.optimizer")
        for attr in ("calibrate", "attribute_residual_cov",
                     "set_attribute_noise", "set_noise_autocorrelation",
                     "estimate_attribute_autocorrelation", "generate",
                     "set_output_calibration"):
            # post-fit calibration: noise fits plus one rollout
            tracer.add(VRDAG, attr, "core.calibrate")
    defaults = VRDAGGenerator()
    losses, dense = [], []
    traced_epochs = traced_fits = 0
    clock = HostClock()
    tally = Tally(clock, HOST_SENSITIVITY["fit"])
    window = Window(seconds)
    i = 0
    while (i < FIT_QUALITY_FITS or window.open()
           or len(tally.latency) < MIN_LATENCY_SAMPLES):
        # alternate op by op, shifted by one at every pass over the fit
        # seeds, so every seed runs both traced and untraced
        traced = (tracer is not None
                  and (i + i // FIT_QUALITY_FITS) % 2 == 1)
        model_seed = seed * 1000 + i % FIT_QUALITY_FITS
        # (end of the step, end of the probe after it): calibration,
        # then every epoch
        marks: List[Tuple[float, float]] = []
        clock.probe()
        for _ in range(SETUP_REPEATS):
            with traced_op(loads, traced):
                t0 = perf_counter()
                graph = graph_io.load(inputs["graph"])
                model = VRDAG(VRDAGConfig(
                    num_nodes=graph.num_nodes,
                    num_attributes=graph.num_attributes,
                    hidden_dim=defaults.hidden_dim,
                    latent_dim=defaults.latent_dim,
                    encode_dim=defaults.encode_dim,
                    mixture_components=defaults.mixture_components,
                    bidirectional=defaults.bidirectional,
                    attr_loss=defaults.attr_loss,
                    seed=model_seed,
                ))
                trainer = VRDAGTrainer(model, TrainConfig(
                    epochs=defaults.epochs,
                    learning_rate=defaults.learning_rate,
                    engine=defaults.engine,
                ))
                t_ready = perf_counter()
            tally.setup.append((t_ready, t_ready - t0))
        clock.probe()
        resumed = perf_counter()
        with traced_op(tracer, traced, tally):
            _mark_after(model, "calibrate", marks, clock)
            _mark_after(trainer.optimizer, "step", marks, clock)
            with track_dense_materializations() as densified:
                result = trainer.fit(graph)
            t_done = perf_counter()
        epochs = result.epochs_run
        tally.attempted += 1
        # archive load to the first epoch's end, less the two probes
        (calibrated, probed), (first, _) = marks[0], marks[1]
        tally.fresh.append((first, (t_ready - t0) + (calibrated - resumed)
                            + (first - probed)))
        # pieces of the fit between probes: calibration, each epoch,
        # then the post-fit calibration
        pieces = [(resumed, marks[0][0], 0)]
        pieces += [(marks[k - 1][1], marks[k][0], 1)
                   for k in range(1, epochs + 1)]
        pieces.append((marks[epochs][1], t_done, 0))
        for start, end, epoch in pieces:
            tally.add_work(end, end - start, epoch, traced)
            if epoch:
                tally.latency.append((end, end - start))
        dense.append(densified())
        if traced:
            traced_epochs += epochs
            traced_fits += 1
        history = list(result.loss_history)
        if plant and i == 0:
            history[-1] = history[0] + 1.0
        if not (np.all(np.isfinite(history)) and history[-1] < history[0]):
            tally.failed += 1
        if i < FIT_QUALITY_FITS:
            losses.append(history[-1])
        i += 1
    clock.probe()
    metrics = tally.end_to_end()
    metrics["final_loss"] = float(np.mean(losses))
    metrics["fidelity_err"] = NOT_APPLICABLE
    layers = {}
    if tracer is not None:
        layers = {
            "core.forward_ms": tracer.mean_ms("core.forward", traced_epochs),
            "autodiff.backward_ms":
                tracer.mean_ms("autodiff.backward", traced_epochs),
            "autodiff.tape_records":
                tracer.counts["autodiff.tape_records"] / traced_epochs,
            "nn.optimizer_ms": tracer.mean_ms("nn.optimizer", traced_epochs),
            "core.calibrate_ms": tracer.mean_ms("core.calibrate", traced_fits),
            "graph.dense_materializations": float(np.mean(dense)),
            **tally.trace_summary(),
        }
    return tally, metrics, layers


def _count_tape_records(tracer, args, _result) -> None:
    tracer.counts["autodiff.tape_records"] += len(args[0])


def _mark_after(obj, attr: str, marks, clock: HostClock) -> None:
    """Shadow ``obj.attr`` with a version that timestamps each return.

    After each call it probes the host and appends ``(return time, end
    of the probe)`` to ``marks``: this is how untraced fits still get
    one latency sample per epoch, with no probe inside it.
    """
    fn = getattr(obj, attr)

    def marked(*args, **kwargs):
        out = fn(*args, **kwargs)
        returned = perf_counter()
        clock.probe()
        marks.append((returned, perf_counter()))
        return out

    setattr(obj, attr, marked)


# ----------------------------------------------------------------------
# generate: artifact -> Pipeline requests (one generate + one evaluate)
# ----------------------------------------------------------------------
def run_generate(inputs, seed, seconds, tracer, loads, plant):
    if tracer is not None:
        tracer.add(api_pipeline.Pipeline, "run", "api.pipeline_overhead")
        tracer.add(api_pipeline, "generate_with_decode", "core.rollout")
        tracer.add(ShardedStructureDecoder, "__call__", "generation.decode")
        tracer.add(api_pipeline.METRIC_SUITES, "structure",
                   "metrics.structure")
    warm_seed = seed * 100_000 + 99_999

    def set_up():
        t0 = perf_counter()
        generator = api.load_artifact(inputs["artifact"])
        reference = graph_io.load(inputs["graph"])
        api.Pipeline(reference, generator, metrics=["structure"],
                     seed=warm_seed).run()
        t1 = perf_counter()
        tally.setup.append((t1, t1 - t0))
        # the first result over a freshly loaded artifact: the warm
        # request is that result, so freshness equals set-up here
        tally.fresh.append((t1, t1 - t0))
        return generator, reference

    fidelity, edges, dense = [], [], []
    first = None
    clock = HostClock()
    tally = Tally(clock, HOST_SENSITIVITY["generate"])
    window = Window(seconds)
    i = 0
    while (i < FIDELITY_REQUESTS or window.open()
           or len(tally.latency) < MIN_LATENCY_SAMPLES):
        clock.probe()
        if window.setup_due():
            with traced_op(loads, tracer is not None):
                generator, reference = set_up()
            clock.probe()
        traced = tracer is not None and i % 2 == 1
        request_seed = seed * 100_000 + i
        with traced_op(tracer, traced, tally):
            t0 = perf_counter()
            with track_dense_materializations() as densified:
                result = api.Pipeline(reference, generator,
                                      metrics=["structure"],
                                      seed=request_seed).run()
            t1 = perf_counter()
        dt = t1 - t0
        tally.attempted += 1
        tally.latency.append((t1, dt))
        tally.add_work(t1, dt, 1, traced)
        dense.append(densified())
        if i == 0:
            first = (request_seed, generator, result.generated.store)
        if i < FIDELITY_REQUESTS:
            table = result.metrics["structure"]
            fidelity.append(float(np.mean([
                table["in_deg_dist"], table["out_deg_dist"],
                table["clus_dist"]])))
            edges.append(result.generated.store.num_edges)
        i += 1
    # oracle: request 0 is bit-identical to VRDAG.generate on the model
    request_seed, generator, store = first
    expected = generator.model.generate(reference.num_timesteps,
                                        seed=request_seed).store
    if plant:
        store = store.copy()
        store.attributes[0, 0, 0] += 1.0
    if not store == expected:
        tally.failed += 1
    clock.probe()  # brackets the last request
    metrics = tally.end_to_end()
    metrics["final_loss"] = float(inputs["artifact_final_loss"])
    metrics["fidelity_err"] = float(np.mean(fidelity))
    layers = {}
    if tracer is not None:
        traced = tally.traced_units()
        layers = {
            "generation.decode_ms":
                tracer.mean_ms("generation.decode", traced),
            "core.rollout_ms": tracer.mean_ms("core.rollout", traced),
            "metrics.structure_ms":
                tracer.mean_ms("metrics.structure", traced),
            "api.pipeline_overhead_ms":
                tracer.mean_ms("api.pipeline_overhead", traced),
            "generation.edges_per_request": float(np.mean(edges)),
            "graph.dense_materializations": float(np.mean(dense)),
            **tally.trace_summary(),
        }
    return tally, metrics, layers


# ----------------------------------------------------------------------
# query workloads: shared helpers
# ----------------------------------------------------------------------
def load_pool(path) -> List[QueryRequest]:
    """Rebuild the prepared request pool as ``QueryRequest`` objects."""
    kinds = list(QueryKind)
    with np.load(path) as data:
        kind, t, nargs, args = (data["kind"], data["t"], data["nargs"],
                                data["args"])
        per_request = int(data["per_request"])
    queries = []
    for k, ti, n, row in zip(kind.tolist(), t.tolist(), nargs.tolist(),
                             args.tolist()):
        q_kind = kinds[k]
        values = row[:n]
        if q_kind is QueryKind.ATTRIBUTE_RANGE:
            q_args = (int(values[0]), values[1], values[2])
        else:
            q_args = tuple(int(v) for v in values)
        queries.append(Query(kind=q_kind, t=ti, args=q_args))
    return [QueryRequest(queries[i:i + per_request])
            for i in range(0, len(queries), per_request)]


def freeze_inputs() -> None:
    """Keep the benchmark's own query objects out of the program's GC.

    The pools hold thousands of ``Query`` objects the program under
    test never created; without this, every full collection during a
    request would scan them too.
    """
    gc.collect()
    gc.freeze()


def trace_kernels(tracer) -> None:
    for name in KERNELS:
        tracer.add(GraphQueryEngine, name, f"workloads.engine.{name}")


def kernel_layers(tracer) -> Dict[str, float]:
    return {
        f"workloads.engine.{k}_us": 1e3 * tracer.mean_ms(
            f"workloads.engine.{k}", tracer.calls[f"workloads.engine.{k}"])
        for k in KERNELS
    }


class CacheDelta:
    """Sums plan-cache counter deltas over several services."""

    def __init__(self) -> None:
        self.hits = self.misses = self.invalidations = 0
        self.resident_bytes = 0

    def add(self, before, after) -> None:
        self.hits += after.hits - before.hits
        self.misses += after.misses - before.misses
        self.invalidations += after.invalidations - before.invalidations
        self.resident_bytes = max(self.resident_bytes, after.resident_bytes)

    def layers(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "workloads.cache.hit_rate": self.hits / lookups if lookups else 0.0,
            "workloads.cache.misses": float(self.misses),
            "workloads.cache.invalidations": float(self.invalidations),
            "workloads.cache.resident_bytes": float(self.resident_bytes),
        }


# ----------------------------------------------------------------------
# serve: closed loop, one caller, warm plan cache
# ----------------------------------------------------------------------
def warm_request(graph) -> QueryRequest:
    """One query per batched class and timestep: builds every plan."""
    last = graph.num_timesteps - 1
    queries = []
    for t in range(graph.num_timesteps):
        queries += [
            Query(QueryKind.OUT_NEIGHBORS, t, (0,)),
            Query(QueryKind.IN_NEIGHBORS, t, (0,)),
            Query(QueryKind.HAS_EDGE, t, (0, 1)),
            Query(QueryKind.EDGE_WINDOW, t, (0, 1, t, last)),
        ]
        queries += [Query(QueryKind.ATTRIBUTE_RANGE, t, (d, 0.0, 1.0))
                    for d in range(graph.num_attributes)]
    return QueryRequest(queries)


def run_serve(inputs, seed, seconds, tracer, loads, plant):
    if tracer is not None:
        tracer.add(QueryService, "run_batch", "workloads.dispatch")
        trace_kernels(tracer)
    requests = load_pool(inputs["pool"])
    freeze_inputs()
    cache = CacheDelta()
    failed_results = 0

    def set_up():
        t0 = perf_counter()
        graph = graph_io.load(inputs["graph"])
        service = QueryService(graph, executor="serial")
        service.run_batch([warm_request(graph)])
        t1 = perf_counter()
        tally.setup.append((t1, t1 - t0))
        cold = QueryService(graph_io.load(inputs["graph"]),
                            executor="serial")
        cold.run_batch([requests[0]])
        t2 = perf_counter()
        tally.fresh.append((t2, t2 - t1))
        return service, service.plan_cache_stats()

    service = None
    samples, dense = {}, []
    shed = 0
    clock = HostClock(PROBE_EVERY_S)
    tally = Tally(clock, HOST_SENSITIVITY["serve"])
    window = Window(seconds)
    i = 0
    while window.open():
        clock.tick()
        if window.setup_due():
            if service is not None:
                cache.add(baseline, service.plan_cache_stats())
                shed += service.admission_stats()["shed"]
            clock.probe()
            with traced_op(loads, tracer is not None):
                service, baseline = set_up()
            clock.probe()
        # traced and untraced passes over the pool alternate, so both
        # sides of the overhead comparison run the same requests
        traced = tracer is not None and (i // len(requests)) % 2 == 1
        index = i % len(requests)
        with track_dense_materializations() as densified:
            with traced_op(tracer, traced, tally):
                t0 = perf_counter()
                (result,) = service.run_batch([requests[index]])
                t1 = perf_counter()
        dense.append(densified())
        dt = t1 - t0
        n = len(requests[index])
        tally.attempted += n
        tally.latency.append((t1, dt))
        tally.add_work(t1, dt, n, traced)
        if not result.ok:
            failed_results += 1
            tally.failed += n
        elif i % SERVE_SAMPLE_EVERY == 0:
            samples.setdefault(index, result.cardinalities.copy())
        i += 1
    clock.probe()
    cache.add(baseline, service.plan_cache_stats())
    shed += service.admission_stats()["shed"]
    # oracle: sampled requests re-answered by per-query dispatch on an
    # engine of its own
    oracle = GraphQueryEngine(graph_io.load(inputs["graph"]))
    for n_checked, (index, cards) in enumerate(sorted(samples.items())):
        if plant and n_checked == 0:
            cards[0] += 1
        expected = [_run_query(oracle, q) for q in requests[index].queries]
        if not np.array_equal(cards, expected):
            tally.failed += len(requests[index])
    metrics = tally.end_to_end()
    metrics["final_loss"] = metrics["fidelity_err"] = NOT_APPLICABLE
    layers = {}
    if tracer is not None:
        layers = {
            **kernel_layers(tracer),
            "workloads.dispatch_us_per_query": 1e3 * tracer.mean_ms(
                "workloads.dispatch", tally.traced_units()),
            **cache.layers(),
            "graph.dense_materializations": float(np.mean(dense)),
            "reliability.failed": float(failed_results),
            "reliability.shed": float(shed),
            **tally.trace_summary(),
        }
    return tally, metrics, layers


# ----------------------------------------------------------------------
# live: one thread; writes due on a schedule, reads in between
# ----------------------------------------------------------------------
def run_live(inputs, seed, seconds, tracer, loads, plant):
    if tracer is not None:
        tracer.add(LiveQueryService, "run_batch", "workloads.dispatch")
        tracer.add(QueryService, "run_batch", "workloads.dispatch")
        tracer.add(LiveQueryService, "refresh", "workloads.live.refresh")
        tracer.add(LiveStoreBuilder, "extend", "graph.live.extend")
        tracer.add(LiveStoreBuilder, "seal_step", "graph.live.seal")
        trace_kernels(tracer)
    store = graph_io.load(inputs["graph"]).store
    n_nodes, n_steps = store.num_nodes, store.num_timesteps
    # requests[(e - 1) * per_epoch : e * per_epoch] read epoch e's prefix
    requests = load_pool(inputs["pool"])
    per_epoch = len(requests) // n_steps
    freeze_inputs()
    offsets = store.offsets
    cache = CacheDelta()
    lateness, samples, dense = [], {}, []
    failed_results = shed = stale = written = 0
    clock = HostClock()
    tally = Tally(clock, HOST_SENSITIVITY["live"])
    window = Window(seconds)
    cycle = 0
    while window.open():
        # set-up: load the event source, build the builder and service
        clock.probe()
        for _ in range(SETUP_REPEATS):
            with traced_op(loads, tracer is not None):
                t0 = perf_counter()
                events = graph_io.load(inputs["graph"]).store
                builder = LiveStoreBuilder(n_nodes, n_steps,
                                           attributes=events.attributes)
                service = LiveQueryService(builder, executor="serial")
                t1 = perf_counter()
                tally.setup.append((t1, t1 - t0))
        clock.probe()
        baseline = service.plan_cache_stats()
        start = perf_counter()
        step = b = 0  # b: read batches since the last seal
        due: Dict[int, float] = {}  # epoch -> due time of its events
        while window.open() and (step < n_steps or due):
            now = perf_counter()
            if step < n_steps and now >= start + step * LIVE_INTERVAL_S:
                when = start + step * LIVE_INTERVAL_S
                lo, hi = int(offsets[step]), int(offsets[step + 1])
                # writes run traced whenever tracing; they stay out of
                # the traced/untraced split, which compares reads only
                with track_dense_materializations() as densified:
                    with traced_op(tracer, tracer is not None):
                        t0 = perf_counter()
                        builder.extend(events.src[lo:hi],
                                       events.dst[lo:hi], events.t[lo:hi])
                        epoch = builder.seal_step()
                        dt = perf_counter() - t0
                dense.append(densified())
                tally.add_work(t0 + dt, dt, 0, None)
                written += hi - lo
                lateness.append(t0 - when)
                due[epoch] = when
                step += 1
                b = 0
            sealed = builder.epoch
            request = requests[(sealed - 1) * per_epoch + b % per_epoch]
            # traced and untraced passes over the epoch's pool alternate,
            # starting on the other side at every other epoch, so both
            # sides of the overhead comparison run the same requests
            traced = (tracer is not None
                      and (b // per_epoch + sealed) % 2 == 1)
            with track_dense_materializations() as densified:
                with traced_op(tracer, traced, tally):
                    t0 = perf_counter()
                    epoch, (result,) = service.run_batch([request])
                    t1 = perf_counter()
            dense.append(densified())
            n = len(request)
            tally.attempted += n
            tally.latency.append((t1, t1 - t0))
            tally.add_work(t1, t1 - t0, n, traced)
            arrived = [e for e in due if e <= epoch]
            for e in arrived:
                tally.fresh.append((t1, t1 - due.pop(e)))
            if arrived:
                # once per timestep, well before the next one falls due
                clock.probe()
            if not result.ok:
                failed_results += 1
                tally.failed += n
            elif cycle == 0 and epoch not in samples:
                samples[epoch] = (request, result.cardinalities.copy())
            b += 1
        cache.add(baseline, service.plan_cache_stats())
        shed += service.admission_stats()["shed"]
        stale += service.live_stats().stale_refreshes
        cycle += 1
    clock.probe()
    # oracle: one batch per epoch re-answered on a bulk-built store of
    # that epoch's event prefix (the --verify-bulk-equivalence check)
    for n_checked, (epoch, (request, cards)) in enumerate(
            sorted(samples.items())):
        end = int(offsets[epoch])
        prefix = TemporalEdgeStore(
            n_nodes, n_steps, store.src[:end].copy(),
            store.dst[:end].copy(), store.t[:end].copy(), store.attributes,
        )
        expected, _ = run_queries_batched(
            GraphQueryEngine(DynamicAttributedGraph.from_store(prefix)),
            request.queries,
        )
        if plant and n_checked == len(samples) - 1:
            cards[0] += 1
        if not np.array_equal(cards, expected):
            tally.failed += len(request)
    metrics = tally.end_to_end()
    metrics["final_loss"] = metrics["fidelity_err"] = NOT_APPLICABLE
    layers = {}
    if tracer is not None:
        layers = {
            **kernel_layers(tracer),
            "workloads.dispatch_us_per_query": 1e3 * tracer.mean_ms(
                "workloads.dispatch", tally.traced_units()),
            **cache.layers(),
            "graph.live.extend_us_per_event": 1e3 * tracer.mean_ms(
                "graph.live.extend", written),
            "graph.live.seal_ms": tracer.mean_ms(
                "graph.live.seal", tracer.calls["graph.live.seal"]),
            "workloads.live.refresh_ms": tracer.mean_ms(
                "workloads.live.refresh",
                tracer.calls["workloads.live.refresh"]),
            "workloads.live.stale_refreshes": float(stale),
            "graph.dense_materializations": float(np.mean(dense)),
            "schedule.lateness_ms": 1e3 * float(np.median(lateness)),
            "reliability.failed": float(failed_results),
            "reliability.shed": float(shed),
            **tally.trace_summary(),
        }
    return tally, metrics, layers


WORKLOADS = {
    "fit": run_fit,
    "generate": run_generate,
    "serve": run_serve,
    "live": run_live,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True,
                        help="JSON manifest printed by prepare.py")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one checked output (oracle self-test)")
    args = parser.parse_args(argv)

    probe_before = host_probe_ms()
    tracer = Tracer() if args.trace else None
    loads = load_tracer() if args.trace else None
    tally, metrics, layers = WORKLOADS[args.workload](
        json.loads(args.inputs), args.seed, args.seconds, tracer, loads,
        args.plant_mismatch,
    )
    probe_after = host_probe_ms()
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(),
        "host_probe_ms": {
            "before": probe_before,
            "run_median": float(np.median(tally.clock.ms)),
            "after": probe_after,
        },
    }))
    if args.trace:
        layers.update(load_layers(loads))
        # layer times in reference-host units, like the end-to-end ones
        factor = tally.clock.run_factor(tally.sensitivity["op"])
        for name, unit in PER_LAYER.items():
            if unit in ("ms", "us") and name in layers:
                layers[name] *= factor
        layers["host.probe_before_ms"] = probe_before
        layers["host.probe_after_ms"] = probe_after
        chosen = {k: (layers.get(k, 0.0), u) for k, u in PER_LAYER.items()}
    else:
        chosen = {k: (metrics[k], u) for k, u in END_TO_END.items()}
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
