"""uHD benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 uhdbench/run.py --workload train-offline --seed 0 --seconds 25 --trace 0
    python3 uhdbench/run.py --workload serve-binary-open --seed 0 --seconds 25 --trace 1

Each invocation is one fresh interpreter.  It builds its inputs from
``--seed`` before any timer starts (procedural MNIST, 4096 train / 1024
test images, a single-pass ``UHDConfig(dim=1024)`` model, the labels a
direct ``predict`` gives for every request) and measures for
``--seconds``.  Each phase gets a fixed share of that time (``PLANS``),
run as 12 blocks that take turns, so slow drift of a shared host reaches
every phase alike.  Every timing metric is read per block (a rate, or a
latency percentile) and summarised over the blocks: served load by the
median block, library calls and the saturation phase by the best block
(``BEST_BLOCK``, ``library.Phase``), so a host stall that hits a few
blocks does not move it.  It checks every label, prints a human-readable
table (value, unit, sample count and the phase each metric came from,
then a few latencies shown without a bound) and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload twice, untraced
then with span wrappers around each layer's public calls
(``tracing.py``), and reports the per-layer metrics plus
``trace.overhead`` (traced over untraced timings).  Any wrong label,
failed request or broken ``/stats`` identity prints ``"correct": false``
and exits 1.

Workloads, and why each exists
------------------------------
``train-offline``
    Library calls only, no server: repeated single-pass ``fit`` (the write
    path, bundling into class accumulators) for half the run and
    256-image ``predict`` calls (the large-batch encode path) for the
    other half.  ``repro.fastpath`` encode does most of the work and
    ``repro.serve`` none, so an encode kernel shows here and a wire or
    scheduler change must not.
``serve-binary-open``
    ``repro-uhd serve --workers 1`` with lanes ``interactive:16:1:4`` and
    ``bulk:64:20:1`` behind ``--binary-port``.  One ``BinaryClient``
    connection, one sender thread on a seeded Poisson schedule (1-image
    interactive requests at 300 req/s, 64-image bulk requests at 3000
    img/s) and one receiver thread, for 70% of the run; the other 30% is
    a saturation phase of bulk requests with 4 in flight.  This is the
    read path through every serve layer at two batch sizes: interactive
    latency is bound by the batching window, bulk latency and capacity by
    the worker's encode.  An untimed 1.5 s open loop warms the server
    first.  During each block the client turns its GC off and its GIL
    switch interval down to 0.5 ms, so the load generator's own pauses
    do not count as server latency.
``serve-http-closed``
    The same server with the default single lane (``--max-batch 64
    --max-wait-ms 2``) behind ``--http-port``: 2 keep-alive
    ``http.client`` connections on 2 threads, each POSTing one raw image
    (``X-UHD-Rows: 1``) and waiting for the reply, with ``TCP_NODELAY``
    set as curl and urllib3 do.  The wire-bound case: encode is under 1%
    of a request.

End-to-end metrics (``--trace 0``)
----------------------------------
Every run reports the same six metrics, and each workload reads all of
them from its own load (``SOURCES``; column "from" in the table).  So a
metric means the same thing on every commit of one workload, but not
across workloads: ``img_per_s`` is training throughput offline and
serving capacity or rate on the serve workloads.  Latencies count from
when a request was due (open loop: its scheduled time; closed loop: the
previous reply) and are taken per block; the reported value is the
median block (served load) or the best block (library calls, and the
saturation phase).

=========  ========  ==========================================================
metric     unit      definition
=========  ========  ==========================================================
setup_s    s         train-offline: median of 7 fresh interpreters, spread
                     over the run, ``UHDClassifier(...)`` to a warm encoder
                     (128 images encoded, pair table promoted); serve:
                     median of 5 spawns, ``Popen`` to first correct reply
pss_mb     MB        PSS at the end of the timed phase: benchmark process
                     (train-offline) or server + worker
ok_frac    fraction  correct / attempted: served requests (serve), library
                     calls (train-offline)
accuracy   fraction  test accuracy of the single-pass model; it is fixed by
                     the seed's data
img_per_s  img/s     train-offline: images bundled per second by repeated
                     ``fit``; serve-binary-open: capacity, images per second
                     with 4 bulk requests in flight; serve-http-closed:
                     images (= requests) completed per second
p50_ms     ms        train-offline: a 256-image ``predict`` call;
                     serve-binary-open: a 1-image request of the interactive
                     lane; serve-http-closed: a 1-image POST
=========  ========  ==========================================================

The table also shows, outside the JSON line and with no bound, the
tails (``infer.p95_ms``, ``interactive.p99_ms``, ``bulk.p95_ms``,
``http.p95_ms``) and the bulk lane's ``bulk.p50_ms``.  A high
percentile of a few seconds of load on a shared 2-core host moves by
more than a quarter between runs of the same code, so it cannot carry
a bound; read it next to ``loadgen.late_p99_ms``.

Per-layer metrics (``--trace 1``), the end-to-end metric each should move
-------------------------------------------------------------------------
======================================  =========================  ===================
layer metric                            should move                on
======================================  =========================  ===================
lds.codebook_s (sobol_sequences)        setup_s                    train-offline
fastpath.table_build_s (construction    setup_s                    all
  + single/pair table builds)
fastpath.encode_us_per_img,             img_per_s, p50_ms          train-offline
  fastpath.encode_share (encode_batch)
hdc.bundle_us_per_img (fit)             img_per_s                  train-offline
hdc.similarity_us_per_img (predict)     p50_ms                     train-offline
api.load_model_s (server load_model)    setup_s                    serve-*
worker.encode_ms_per_batch,             img_per_s (capacity),      serve-binary-open
  worker.similarity_ms_per_batch,       bulk.p50_ms (shown)
  worker.rows_per_batch, worker.busy_frac
scheduler.<lane>.queue_wait_p50_ms,     p50_ms (interactive),      serve-*
  .queue_wait_p99_ms, .rows_per_batch,  interactive.p99_ms (shown)
  scheduler.expired (/stats deltas)
server.service_ms_mean (submit -> done) bulk.p50_ms (shown)        serve-binary-open
  server.ipc_ms_mean (service - mean
  queue wait - mean worker predict)
binary.wire_ms_p50 (client - service),  p50_ms (interactive)       serve-binary-open
  binary.frames_in/bytes_in/bytes_out
http.handler_ms_p50, http.wire_ms_p50   p50_ms, img_per_s          serve-http-closed
  (client - handler)
loadgen.late_p99_ms, trace.overhead     nothing (benchmark health) all
======================================  =========================  ===================

On train-offline the ``worker.*`` rows are the library's 256-image
predict calls (the same encode + similarity with no process boundary);
a layer a workload never enters reports 0.  With one worker on 2 cores,
the worker's encode blocks the bulk lane and the capacity; interactive
latency is bounded by its 1 ms window plus one in-flight bulk batch, so
an encode gain also moves ``interactive.p99_ms`` while a wire or
scheduler gain moves the interactive ``p50_ms`` alone.

Recorded finding: the HTTP stall
--------------------------------
On ``serve-http-closed`` a 1-image request takes ~48 ms at p50 (~42
req/s on 2 connections) while the same image over the binary wire takes
~0.3 ms.  The ~44 ms gap is a server-side Nagle / delayed-ACK stall:
``HttpTransport``'s handler writes the headers and the body in two
sends without ``TCP_NODELAY``, so the body waits for the client's
delayed ACK of the headers.  The client here sets ``TCP_NODELAY`` and
the stall is the same without it.  The trace shows it as
``http.wire_ms_p50`` ~44 ms against a sub-millisecond
``http.handler_ms_p50``.  A fix belongs in ``repro.serve.transport``; it
should move ``serve-http-closed`` ``p50_ms`` and ``img_per_s`` and leave
``train-offline`` unchanged.

Correctness
-----------
Library: every 256-image ``predict`` call equals the labels a
``with_backend("reference")`` clone gives for the same images and every repeated ``fit`` leaves identical accumulators.
Serve: a request is correct only if it is answered and its labels equal
a direct ``UHDClassifier.predict`` of the same images.  After each serve
run ``/stats`` must show, per lane, ``submitted == served + expired``
with an empty queue, ``requests`` equal to the client's attempts and
(binary) ``frames_in`` equal to the frames sent.

Every result also prints an ``env:`` line: nproc, Python, NumPy,
``HAS_BITWISE_COUNT``, the BLAS thread count, the configured backend and
what the model resolved it to (encoder class, classifier backend), the
server's start method, git commit (when the checkout is a git
repository) and a digest of ``src/``.
The benchmark pins ``OPENBLAS_NUM_THREADS=1`` for itself and the server:
with two BLAS threads on a 2-core host that also runs the server,
256-image predicts fell into a 2-3x slower state in random stretches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
# one BLAS thread here and in every child, set before NumPy loads (see the
# module docstring for why)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np

    import library
    import serving
    import tracing
    from tracing import END, START, TAG, load_spans, named, rows, self_s, total_s
except ImportError as exc:  # only the benchmark's files, no src/: refuse
    sys.exit(f"uhdbench: cannot import the repro package ({exc}); "
             "run from the root of a full checkout")

#: fraction of --seconds each phase gets, per workload
PLANS = {
    "train-offline": {"fit": 0.5, "infer": 0.5},
    "serve-binary-open": {"open": 0.7, "saturation": 0.3},
    "serve-http-closed": {"closed": 1.0},
}
#: per workload, the phase ``img_per_s`` is read from, the phase (and the
#: request kind in it) ``p50_ms`` is read from, and the load phase
#: whose sender lateness ``loadgen.late_p99_ms`` reports
SOURCES = {
    "train-offline": ("fit", ("infer", None), "infer"),
    "serve-binary-open": ("saturation", ("open", "interactive"), "open"),
    "serve-http-closed": ("closed", ("closed", None), "closed"),
}
#: phases whose operations are requests to the server
SERVED = ("warm-up", "open", "saturation", "closed")
#: untimed open loop before the first timed block: the server's first
#: second of load runs slower than the rest
OPEN_WARMUP_S = 1.5
#: phases summarised by their best block (``library.Phase``): library
#: calls, and the saturation phase, whose 4 requests in flight keep the
#: worker busy, so its rate is CPU-bound like theirs (and its slow first
#: block needs no warm-up)
BEST_BLOCK = ("fit", "infer", "saturation")
#: interleaved rounds: each phase runs as ROUNDS blocks taking turns
ROUNDS = 12
PHASE_ORDER = ("fit", "infer", "open", "saturation", "closed")
LIBRARY_SETUPS = 7
SERVER_SPAWNS = 5
INTERACTIVE_RPS = 300.0
BULK_IMG_PER_S = 3000.0
SATURATION_IN_FLIGHT = 4

#: (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s", "lower"), ("pss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"), ("accuracy", "fraction", "higher"),
    ("img_per_s", "img/s", "higher"), ("p50_ms", "ms", "lower"),
]
#: (name, phase, request kind, percentile) of the latencies the table
#: also shows, outside the JSON line: tails, and the bulk lane
SHOWN = {
    "train-offline": [("infer.p95_ms", "infer", None, 95)],
    "serve-binary-open": [
        ("interactive.p99_ms", "open", "interactive", 99),
        ("bulk.p50_ms", "open", "bulk", 50),
        ("bulk.p95_ms", "open", "bulk", 95),
    ],
    "serve-http-closed": [("http.p95_ms", "closed", None, 95)],
}
LANES = ("interactive", "bulk", "default")
PER_LAYER_UNITS = {
    "lds.codebook_s": "s", "fastpath.table_build_s": "s",
    "fastpath.encode_us_per_img": "us", "fastpath.encode_share": "fraction",
    "hdc.bundle_us_per_img": "us", "hdc.similarity_us_per_img": "us",
    "api.load_model_s": "s",
    "worker.encode_ms_per_batch": "ms", "worker.similarity_ms_per_batch": "ms",
    "worker.rows_per_batch": "rows", "worker.busy_frac": "fraction",
    **{f"scheduler.{lane}.{m}": u for lane in LANES for m, u in (
        ("queue_wait_p50_ms", "ms"), ("queue_wait_p99_ms", "ms"),
        ("rows_per_batch", "rows"))},
    "scheduler.expired": "count",
    "server.service_ms_mean": "ms", "server.ipc_ms_mean": "ms",
    "binary.wire_ms_p50": "ms", "binary.frames_in": "count",
    "binary.bytes_in": "B", "binary.bytes_out": "B",
    "http.handler_ms_p50": "ms", "http.wire_ms_p50": "ms",
    "loadgen.late_p99_ms": "ms", "trace.overhead": "ratio",
}


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Run:
    """One measurement pass of a workload: inputs, phases, server, results."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 tracer=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.plan = PLANS[workload]
        self.source = SOURCES[workload]
        self.phases = {name: library.Phase(name, best=name in BEST_BLOCK)
                       for name in self.plan}
        self.first_replies: list[bool] = []  # one per server spawn
        self.lanes: dict[str, dict] = {}  # /stats deltas over the open/closed loop
        self.values: dict[str, tuple[float, int, str]] = {}  # name -> (v, n, from)
        self.shown: dict[str, tuple[float, int, str]] = {}  # table only
        self.layers: dict[str, tuple[float, int]] = {}
        self.server = None
        self.client = None
        self.problems: list[str] = []

    # -------------------------------------------------------------- phases
    def execute(self) -> None:
        from repro.api.persistence import save_model

        self.inp = library.prepare(self.seed)
        self.model_path = self.work / "model.npz"
        save_model(self.inp.model, self.model_path)
        self.rng = np.random.default_rng([self.seed, 1])
        serve = self.workload != "train-offline"
        # library cold set-ups are spread over the rounds, so they sample
        # the host's drift as the timed blocks do
        setup_rounds = set() if serve else {
            k * ROUNDS // LIBRARY_SETUPS for k in range(LIBRARY_SETUPS)
        }
        if not serve:
            images = self.work / "images.npy"
            np.save(images, self.inp.train_images[:library.WARM_IMAGES])
            trace_dir = self.work / "trace" if self.tracer else None
            self.setups = []
        try:
            if serve:
                self._start_server()
            # phases take turns so slow drift of the host hits them alike
            for i in range(ROUNDS):
                if i in setup_rounds:
                    self.setups.append(
                        library.cold_setup(images, self.model_path, trace_dir)
                    )
                for name in PHASE_ORDER:
                    if name in self.plan:
                        self._block(name, self.plan[name] * self.seconds / ROUNDS)
            if serve:
                self._finish_server()
        finally:
            if self.client is not None:
                self.client.close()
            if self.server is not None:
                self.server.stop()
        if not serve:
            self.pss_mb = serving.pss_mb(os.getpid())
        self._end_to_end()

    def _block(self, name: str, seconds: float) -> None:
        phase = self.phases[name]
        if name in library.RUNNERS:
            library.RUNNERS[name](self.inp, phase, seconds)
            return
        if name == "saturation":
            serving.binary_saturation(self.client, self.inp, seconds,
                                      SATURATION_IN_FLIGHT, phase)
            return
        if name == "open" and not phase.blocks:
            warm = self.phases["warm-up"] = library.Phase("warm-up")
            self._open_loop(np.random.default_rng([self.seed, 2]), OPEN_WARMUP_S, warm)
        before = serving.get_stats(self.server.ports["http"])
        if name == "open":
            self._open_loop(self.rng, seconds, phase)
        else:
            serving.http_closed_loop(self.server.ports["http"], self.inp, seconds,
                                     self.rng, phase)
        serving.lane_delta(before, serving.get_stats(self.server.ports["http"]),
                           self.lanes)

    def _open_loop(self, rng: np.random.Generator, seconds: float,
                   phase: library.Phase) -> None:
        schedule = serving.poisson_schedule(rng, {
            "interactive": INTERACTIVE_RPS,
            "bulk": BULK_IMG_PER_S / library.BULK_ROWS,
        }, seconds)
        choices = [
            int(rng.integers(library.N_TEST if kind == "interactive"
                             else len(self.inp.bulk_batches)))
            for _, kind in schedule
        ]
        serving.binary_open_loop(self.client, self.inp, schedule, choices, phase)

    def _spawn(self, trace: bool) -> float:
        """Start a server; returns seconds from spawn to first correct reply."""
        binary = self.workload == "serve-binary-open"
        extra = (serving.BINARY_LANES + ["--binary-port", "0"]) if binary \
            else serving.HTTP_LANE
        trace_dir = self.work / "trace" if trace else None
        start = time.monotonic_ns()
        self.server = serving.Server(self.model_path, extra,
                                     self.work / "server.log", trace_dir)
        self.server.start(("http", "binary") if binary else ("http",))
        image = self.inp.test_images[:1]
        if binary:
            self.client = serving.BinaryClient(serving.HOST, self.server.ports["binary"])
            labels = self.client.predict(image, lane="interactive")
        else:
            conn = serving.http_connection(self.server.ports["http"])
            labels = serving.http_predict(conn, image)
            conn.close()
        elapsed = (time.monotonic_ns() - start) / 1e9
        self.first_replies.append(labels.tolist() == self.inp.single_labels[:1].tolist())
        return elapsed

    def _start_server(self) -> None:
        self.setups = []
        for i in range(SERVER_SPAWNS):
            last = i == SERVER_SPAWNS - 1
            self.setups.append({"setup_s": self._spawn(last and self.tracer is not None)})
            if not last:
                if self.client is not None:
                    self.client.close()
                    self.client = None
                self._stop_server()
        self.server_pid = self.server.proc.pid
        self.stats_before = serving.get_stats(self.server.ports["http"])

    def _finish_server(self) -> None:
        """Check the /stats identities against what was sent, stop the server."""
        sent = 1 + len(self.served())  # + the first-reply request
        self.pss_mb = serving.pss_mb(self.server_pid)
        self.stats_after = serving.get_stats(self.server.ports["http"])
        binary_frames = sent if self.workload == "serve-binary-open" else None
        self.problems += serving.conservation_problems(
            self.stats_after, sent, binary_frames
        )
        if self.client is not None:
            self.client.close()
            self.client = None
        if "shutdown clean" not in self._stop_server():
            self.problems.append("server did not report a clean shutdown")

    def _stop_server(self) -> str:
        output = self.server.stop()
        self.server = None
        return output

    # ---------------------------------------------------------- correctness
    def served(self) -> list[library.Request]:
        return [r for name in SERVED if name in self.phases
                for r in self.phases[name].requests]

    def tally(self) -> tuple[int, int, list[str]]:
        """Operations attempted and failed over every phase, and what failed."""
        ops = [r for phase in self.phases.values() for r in phase.requests]
        failed = [r.kind for r in ops if not r.ok]
        failed += ["first reply"] * self.first_replies.count(False)
        failed += [name + " warm-up" for name, phase in self.phases.items()
                   for _ in range(phase.warm_failed)]
        notes = [f"{n} {kind} operation(s) failed or returned wrong labels"
                 for kind, n in sorted(Counter(failed).items())]
        return len(ops) + len(self.first_replies), len(failed), notes

    # ------------------------------------------------------------- metrics
    def _put(self, name: str, value: float, n: int, source: str) -> None:
        self.values[name] = (float(value), int(n), source)

    def _end_to_end(self) -> None:
        inp, phases = self.inp, self.phases
        rate_from, (latency_from, kind), load = self.source
        setups = [s["setup_s"] for s in self.setups]
        self._put("setup_s", statistics.median(setups), len(setups), "setup")
        self._put("pss_mb", self.pss_mb, 1, "end of run")
        if self.workload == "train-offline":
            oks, what = [r.ok for p in phases.values() for r in p.requests], "library"
        else:
            oks, what = [r.ok for r in self.served()] + self.first_replies, "served"
        self._put("ok_frac", sum(oks) / len(oks), len(oks), what)
        self._put("accuracy", float(np.mean(inp.infer_labels == inp.test_labels)),
                  library.N_TEST, "model")
        self._put("img_per_s", *phases[rate_from].rate(), rate_from)
        self._put("p50_ms", *phases[latency_from].latency_ms(50, kind),
                  latency_from + (f" {kind}" if kind else ""))
        for name, phase, kind, q in SHOWN[self.workload]:
            self.shown[name] = (*phases[phase].latency_ms(q, kind), phase)
        self.late_s = [r.late_s for r in phases[load].requests]

    # ------------------------------------------------------------ per layer
    def per_layer(self, overhead: float) -> None:
        put = self.layers.__setitem__
        bench = self.tracer.spans()
        by_pid = load_spans(self.work / "trace")
        load = self.phases[self.source[2]]  # the load phase (SOURCES)

        def per_op(spans, scale):
            return (total_s(spans) / len(spans) * scale, len(spans)) if spans else (0.0, 0)

        def per_img_us(spans):
            return (total_s(spans) / rows(spans) * 1e6, len(spans)) if spans else (0.0, 0)

        def durations_ms(spans):
            return [(s[END] - s[START]) / 1e6 for s in spans]

        if self.workload == "train-offline":
            fit, infer = self.phases["fit"], self.phases["infer"]
            enc = named(bench, "fastpath.encode_batch", fit.windows + infer.windows)
            put("fastpath.encode_us_per_img", per_img_us(enc))
            put("fastpath.encode_share",
                (total_s(enc) / (fit.elapsed_s + infer.elapsed_s), len(enc)))
            put("hdc.bundle_us_per_img", per_img_us(named(bench, "hdc.fit", fit.windows)))
            put("hdc.similarity_us_per_img",
                per_img_us(named(bench, "hdc.predict", infer.windows)))
            for key, field in (("lds.codebook_s", "codebook_s"),
                               ("fastpath.table_build_s", "table_build_s"),
                               ("api.load_model_s", "load_model_s")):
                vals = [s[field] for s in self.setups]
                put(key, (statistics.median(vals), len(vals)))
            # the library twin of a worker batch: the 256-image predict calls
            worker, windows, busy_s = bench, infer.windows, infer.elapsed_s
        else:
            # the benchmark process makes no library call while it serves
            for key in ("fastpath.encode_us_per_img", "fastpath.encode_share",
                        "hdc.bundle_us_per_img", "hdc.similarity_us_per_img"):
                put(key, (0.0, 0))
            front = by_pid.pop(self.server_pid)
            worker = max(by_pid.values(), key=len) if by_pid else []
            windows, busy_s = load.windows, load.elapsed_s
            inits = named(front, "fastpath.encoder_init")
            put("lds.codebook_s",
                (total_s(named(front, "lds.sobol_sequences")[:1]), 1))
            put("fastpath.table_build_s",
                (self_s(inits[:1], front)
                 + total_s(named(front, "fastpath.table_build")), 1))
            put("api.load_model_s", (total_s(named(front, "api.load_model")[:1]), 1))
        batches = named(worker, "model.predict", windows)
        put("worker.encode_ms_per_batch",
            per_op(named(worker, "fastpath.encode_batch", windows), 1e3))
        put("worker.similarity_ms_per_batch",
            per_op(named(worker, "hdc.predict", windows), 1e3))
        put("worker.rows_per_batch",
            (rows(batches) / len(batches) if batches else 0.0, len(batches)))
        put("worker.busy_frac", (total_s(batches) / busy_s, len(batches)))

        for lane in LANES:
            d = self.lanes.get(lane)
            n = d["wait"].count if d else 0
            put(f"scheduler.{lane}.queue_wait_p50_ms", (d["wait"].p50_ms if d else 0.0, n))
            put(f"scheduler.{lane}.queue_wait_p99_ms", (d["wait"].p99_ms if d else 0.0, n))
            put(f"scheduler.{lane}.rows_per_batch",
                (d["rows"] / d["batches"] if d and d["batches"] else 0.0, n))
        put("scheduler.expired",
            (sum(d["expired"] for d in self.lanes.values()), len(self.lanes)))

        service = []
        wire_bin, handler, wire_http = [], [], []
        if self.workload != "train-offline":
            service = named(front, "server.submit", windows)
            if self.workload == "serve-binary-open":
                wire_bin = _wire_ms(load.requests, service, key=None)
            else:
                handler = named(front, "http.handler", windows)
                wire_http = _wire_ms(load.requests, handler, key="conn")
        if service:
            service_ms = float(np.mean(durations_ms(service)))
            waits = [d["wait"] for d in self.lanes.values()]
            queue_ms = sum(w.sum_s for w in waits) / max(1, sum(w.count for w in waits)) * 1e3
            worker_ms = total_s(batches) / max(1, len(batches)) * 1e3
            put("server.service_ms_mean", (service_ms, len(service)))
            put("server.ipc_ms_mean", (service_ms - queue_ms - worker_ms, len(service)))
        else:
            put("server.service_ms_mean", (0.0, 0))
            put("server.ipc_ms_mean", (0.0, 0))
        put("binary.wire_ms_p50", (_pct(wire_bin, 50) if wire_bin else 0.0, len(wire_bin)))
        wire = {"frames_in": 0, "bytes_in": 0, "bytes_out": 0}
        if self.workload == "serve-binary-open":
            wire = serving.transport_delta(self.stats_before, self.stats_after, "binary")
        for key in ("frames_in", "bytes_in", "bytes_out"):
            put(f"binary.{key}", (wire[key], wire["frames_in"]))
        handler_ms = durations_ms(handler)
        put("http.handler_ms_p50", (_pct(handler_ms, 50) if handler_ms else 0.0, len(handler_ms)))
        put("http.wire_ms_p50", (_pct(wire_http, 50) if wire_http else 0.0, len(wire_http)))
        late_ms = [t * 1e3 for t in self.late_s]
        put("loadgen.late_p99_ms", (_pct(late_ms, 99), len(late_ms)))
        put("trace.overhead", (overhead, 1))
        if set(self.layers) != set(PER_LAYER_UNITS):
            raise RuntimeError(f"per-layer metrics out of sync: "
                               f"{sorted(set(self.layers) ^ set(PER_LAYER_UNITS))}")


def _wire_ms(requests, spans, key) -> list[float]:
    """Client time minus server time per request, matched in send order.

    Spans and requests are paired per connection (``key="conn"``: the
    handler span's tag is the client port) or, on one connection, by
    order alone.  Unmatched counts give no samples.
    """
    groups: dict = {}
    for r in requests:
        groups.setdefault(r.conn if key else 0, [[], []])[0].append(r)
    for s in spans:
        groups.setdefault(s[TAG] if key else 0, [[], []])[1].append(s)
    out = []
    for reqs, sps in groups.values():
        if len(reqs) != len(sps):
            continue
        reqs.sort(key=lambda r: r.send_ns)
        sps.sort(key=lambda s: s[START])
        out += [((r.recv_ns - r.send_ns) - (s[END] - s[START])) / 1e6
                for r, s in zip(reqs, sps)]
    return out


def _environment(model) -> dict:
    from repro.fastpath.bitops import HAS_BITWISE_COUNT
    from repro.serve.server import _resolve_start_method

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # a checkout that is not a repository must not report the
            # commit of some repository above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "HAS_BITWISE_COUNT": bool(HAS_BITWISE_COUNT),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "backend": model.config.backend,
        "encoder": type(model.encoder).__name__,
        "classifier_backend": model.classifier.backend,
        "binarize": model.config.binarize,
        "start_method": _resolve_start_method("auto"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _overhead(untraced: Run, traced: Run) -> float:
    """Median traced/untraced ratio over the timing metrics (>1 = slower)."""
    ratios = []
    for name, _unit, better in END_TO_END:
        if name in ("setup_s", "pss_mb", "ok_frac", "accuracy"):
            continue
        a, b = untraced.values[name][0], traced.values[name][0]
        ratios.append(b / a if better == "lower" else a / b)
    return statistics.median(ratios)


def _report(run: Run, trace: bool) -> dict:
    if trace:
        rows = [(k, v, PER_LAYER_UNITS[k], n, "trace")
                for k, (v, n) in run.layers.items()]
    else:
        rows = [(k, run.values[k][0], unit, run.values[k][1], run.values[k][2])
                for k, unit, _ in END_TO_END]
    for name, value, unit, n, source in rows:
        print(f"  {name:<38} {value:>14.6g} {unit:<9} n={n:<7} from {source}")
    if not trace:
        print("  shown only (not in the JSON line, no bound):")
        for name, (value, n, source) in run.shown.items():
            print(f"  {name:<38} {value:>14.6g} {'ms':<9} n={n:<7} from {source}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the finally blocks, which stop the server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".uhdbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        run = Run(args.workload, args.seed, seconds, work)
        run.execute()
        runs = [run]
        if args.trace:
            (work / "trace").mkdir()
            tracer = tracing.Tracer(work / "trace")
            tracing.install(tracer)
            run = Run(args.workload, args.seed, seconds, work, tracer)
            run.execute()
            runs.append(run)
            run.per_layer(_overhead(runs[0], run))
        tallies = [r.tally() for r in runs]
        attempted = sum(t[0] for t in tallies)
        failed = sum(t[1] for t in tallies)
        problems = [p for r, t in zip(runs, tallies) for p in r.problems + t[2]]
        print(f"uhdbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env: " + json.dumps(_environment(run.inp.model), sort_keys=True))
        print(f"loadgen.late_p99_ms: {_pct([t * 1e3 for t in run.late_s], 99):.4f} "
              f"(n={len(run.late_s)})")
        metrics = _report(run, bool(args.trace))
        for problem in problems:
            print(f"FAILED: {problem}")
        correct = failed == 0 and not problems
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
