"""Seeded inputs and the in-process library phases.

Every workload builds the same inputs from ``--seed`` before any timer
starts: the procedural MNIST split, a single-pass model at
``UHDConfig(dim=1024)`` and the labels a direct ``predict`` gives for
every request shape the benchmark sends.  The library phases then time
``UHDClassifier`` calls directly, with no server in the way:

* ``fit``   -- single-pass ``fit`` over the 4096 training images, repeated;
* ``infer`` -- 256-image ``predict`` calls over the 1024 test images,
  back to back.

``Request`` and ``Phase`` record every timed operation, library call or
served request alike, so every phase reports its metrics the same way.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import UHDConfig
from repro.core.model import UHDClassifier
from repro.datasets import load_dataset

HERE = Path(__file__).resolve().parent

N_TRAIN, N_TEST = 4096, 1024
INFER_BATCH = 256
BULK_ROWS = 64
#: images a cold set-up encodes before its encoder counts as warm (the
#: pair table is promoted at 128)
WARM_IMAGES = 128


@dataclass
class Inputs:
    """Everything a run needs, made from the seed before timing starts."""

    seed: int
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    model: UHDClassifier
    #: first fit's class accumulators; every later fit must equal them
    accumulators: np.ndarray
    #: labels of the 256-image passes, from a ``reference`` backend clone
    infer_labels: np.ndarray
    #: direct 1-image predict of every test image
    single_labels: np.ndarray
    #: the test set cut into 64-image requests, and their direct labels
    bulk_batches: list[np.ndarray]
    bulk_labels: list[np.ndarray]


def infer_pass(model: UHDClassifier, images: np.ndarray) -> np.ndarray:
    return np.concatenate([
        model.predict(images[i:i + INFER_BATCH])
        for i in range(0, images.shape[0], INFER_BATCH)
    ])


def prepare(seed: int) -> Inputs:
    """Data, model and expected labels; also warms the encoder."""
    data = load_dataset("mnist", n_train=N_TRAIN, n_test=N_TEST, seed=seed)
    model = UHDClassifier(data.num_pixels, data.num_classes, UHDConfig(dim=1024))
    model.fit(data.train_images, data.train_labels)  # promotes the pair table
    test = data.test_images
    infer_labels = infer_pass(model.with_backend("reference"), test)
    if not np.array_equal(infer_pass(model, test), infer_labels):
        raise RuntimeError("auto backend disagrees with the reference clone")
    bulk = [test[i:i + BULK_ROWS] for i in range(0, N_TEST, BULK_ROWS)]
    return Inputs(
        seed=seed,
        train_images=data.train_images,
        train_labels=data.train_labels,
        test_images=test,
        test_labels=data.test_labels,
        model=model,
        accumulators=np.array(model.classifier.accumulators),
        infer_labels=infer_labels,
        single_labels=np.array([model.predict(test[i:i + 1])[0] for i in range(N_TEST)]),
        bulk_batches=bulk,
        bulk_labels=[model.predict(b) for b in bulk],
    )


@dataclass
class Request:
    """One timed operation: a library call or a served request (times in ns).

    Latency counts from ``due_ns``, when the operation was due: its
    scheduled time in an open loop, the previous reply in a closed loop.
    """

    kind: str
    due_ns: int
    send_ns: int = 0
    recv_ns: int = 0
    ok: bool = False
    rows: int = 1
    conn: int = 0  #: client-side port of the connection that carried it

    @property
    def latency_s(self) -> float:
        return (self.recv_ns - self.due_ns) / 1e9

    @property
    def late_s(self) -> float:
        return (self.send_ns - self.due_ns) / 1e9


@dataclass
class Block:
    """One block of a phase: its window on the shared clock and its ops."""

    start_ns: int
    end_ns: int
    requests: list[Request]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Phase:
    """One phase's operations, gathered over interleaved blocks.

    Every metric of a phase is read per block and then summarised over
    the blocks: by the median for served load, where queueing makes slow
    blocks part of what is measured, and by the best block for library
    calls (``best``).  Those are CPU-bound and queue-free, and other
    tenants of a shared host only ever slow them: on a 2-core host that
    switched between a fast and a ~30% slower state every few seconds,
    the median block flipped between the two states from run to run,
    while the best block stayed in the fast one.
    """

    name: str
    best: bool = False
    blocks: list[Block] = field(default_factory=list)
    #: untimed warm-up operations that returned a wrong result
    warm_failed: int = 0

    @property
    def requests(self) -> list[Request]:
        return [r for b in self.blocks for r in b.requests]

    @property
    def windows(self) -> list[tuple[int, int]]:
        return [(b.start_ns, b.end_ns) for b in self.blocks]

    @property
    def elapsed_s(self) -> float:
        return sum(b.seconds for b in self.blocks)

    def add(self, start_ns: int, requests: list[Request]) -> None:
        self.blocks.append(Block(start_ns, max(r.recv_ns for r in requests), requests))

    def latency_ms(self, q: float, kind: str | None = None) -> tuple[float, int]:
        """The ``q``-th latency percentile over blocks, and n."""
        per_block, n = [], 0
        for b in self.blocks:
            ms = [r.latency_s * 1e3 for r in b.requests if kind in (None, r.kind)]
            if ms:
                per_block.append(float(np.percentile(ms, q)))
                n += len(ms)
        return (min if self.best else statistics.median)(per_block), n

    def rate(self, rows: bool = True) -> tuple[float, int]:
        """Rows (or requests) per second over blocks, and n."""
        per_block = [
            sum(r.rows if rows else 1 for r in b.requests) / b.seconds
            for b in self.blocks
        ]
        return (max if self.best else statistics.median)(per_block), len(self.requests)


#: untimed lead-in before a phase's first block: on a 2-core host the
#: first few hundred ms after set-up (reference predict, server spawns)
#: often run at half speed
WARMUP_S = 0.5


def _closed_loop(phase: Phase, seconds: float, rows: int, op) -> None:
    """One block: ``op(i) -> ok`` back to back for ``seconds`` (at least once)."""
    first = len(phase.requests)
    if not phase.blocks:
        warm_stop = time.monotonic() + WARMUP_S
        i = 0
        while i < 2 or time.monotonic() < warm_stop:
            phase.warm_failed += not op(i)
            i += 1
    start = due = time.monotonic_ns()
    stop = start + int(seconds * 1e9)
    block: list[Request] = []
    i = first
    while not block or due < stop:
        request = Request(phase.name, due, send_ns=time.monotonic_ns(), rows=rows)
        request.ok = bool(op(i))
        request.recv_ns = due = time.monotonic_ns()
        block.append(request)
        i += 1
    phase.add(start, block)


def run_fit(inp: Inputs, phase: Phase, seconds: float) -> None:
    """Repeated fits must leave the first fit's accumulators."""
    model = inp.model

    def op(_i: int) -> bool:
        model.fit(inp.train_images, inp.train_labels)
        return np.array_equal(model.classifier.accumulators, inp.accumulators)

    _closed_loop(phase, seconds, N_TRAIN, op)


def run_infer(inp: Inputs, phase: Phase, seconds: float) -> None:
    """Each 256-image call must equal the reference clone's labels."""
    def op(i: int) -> bool:
        k = i % (N_TEST // INFER_BATCH) * INFER_BATCH
        labels = inp.model.predict(inp.test_images[k:k + INFER_BATCH])
        return np.array_equal(labels, inp.infer_labels[k:k + INFER_BATCH])

    _closed_loop(phase, seconds, INFER_BATCH, op)


RUNNERS = {"fit": run_fit, "infer": run_infer}


def cold_setup(images_path: Path, model_path: Path, trace_dir: Path | None) -> dict:
    """One cold set-up in a fresh interpreter (setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"),
           str(images_path), str(model_path)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])
