"""Span recorder and the wrappers that time each layer's public calls.

The traced run installs :func:`install` in every process it measures:
the benchmark process itself (library phases), the set-up children and
the ``repro-uhd serve`` launcher (whose forked worker inherits the
wrappers).  Nothing here changes what a call returns; a wrapper only
records ``(name, start, end, parent, tag)`` around it.

Timestamps are ``time.monotonic_ns()``, one clock for every process on
Linux, so spans from the benchmark, the server front end and its worker
merge onto one timeline.  Each process keeps its spans in memory and
writes them to its own file, ``spans-<pid>.json``, when it is done.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

#: span tuple layout: (id, name, start_ns, end_ns, parent_id, tag)
ID, NAME, START, END, PARENT, TAG = range(6)


class Tracer:
    """In-memory spans of one process; a forked child starts empty."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self._pid = os.getpid()
        self._spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def spans(self) -> list[list]:
        """This process's spans so far (open ones have ``end == 0``)."""
        return self._spans_here()

    def _spans_here(self) -> list[list]:
        if os.getpid() != self._pid:  # inherited through fork: not ours
            self._pid = os.getpid()
            self._spans = []
            self._local = threading.local()
        return self._spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag=None, nested: bool = True) -> list:
        """Open a span; ``nested=False`` for spans ended on another thread."""
        spans = self._spans_here()
        stack = self._stack()
        span = [next(self._ids), name, time.monotonic_ns(), 0,
                stack[-1] if stack else 0, tag]
        spans.append(span)
        if nested:
            stack.append(span[ID])
        return span

    def end(self, span: list, nested: bool = True) -> None:
        span[END] = time.monotonic_ns()
        if nested:
            self._stack().pop()

    def dump(self) -> Path:
        """Write this process's finished spans to ``spans-<pid>.json``."""
        spans = [s for s in self._spans_here() if s[END]]
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(spans))
        return path


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    return int(shape[0]) if shape else 1


def _wrap(tracer: Tracer, owner, attr: str, name: str, tag=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.begin(name, tag(args) if tag else None)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(span)

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the public call into each layer the benchmark reports on."""
    import repro.api.persistence as persistence
    import repro.core.encoder as core_encoder
    import repro.serve.transport as transport
    import repro.serve.worker as worker
    from repro.core.model import UHDClassifier
    from repro.fastpath.encoder import PackedLevelEncoder
    from repro.hdc.classifier import CentroidClassifier
    from repro.serve.server import UHDServer

    # repro.lds: the encoder looks the generator up in its own namespace
    _wrap(tracer, core_encoder, "sobol_sequences", "lds.sobol_sequences")
    # repro.fastpath: construction, table builds (pair promotion), encode
    _wrap(tracer, PackedLevelEncoder, "__init__", "fastpath.encoder_init")
    _wrap(tracer, PackedLevelEncoder, "_build_single_lut", "fastpath.table_build")
    _wrap(tracer, PackedLevelEncoder, "_build_pair_table", "fastpath.table_build")
    _wrap(tracer, PackedLevelEncoder, "encode_batch", "fastpath.encode_batch",
          tag=lambda a: _rows(a[1]))
    # repro.hdc: bundling and similarity
    _wrap(tracer, CentroidClassifier, "fit", "hdc.fit", tag=lambda a: _rows(a[1]))
    _wrap(tracer, CentroidClassifier, "predict", "hdc.predict",
          tag=lambda a: _rows(a[1]))
    # repro.core / repro.api: whole-model predict and model loading
    _wrap(tracer, UHDClassifier, "predict", "model.predict",
          tag=lambda a: _rows(a[1]))
    _wrap(tracer, persistence, "load_model", "api.load_model")

    # repro.serve.server: submit -> handle done, ended by the done callback
    submit = UHDServer.submit

    @functools.wraps(submit)
    def traced_submit(self, images, *args, **kwargs):
        span = tracer.begin("server.submit", kwargs.get("lane"), nested=False)
        handle = submit(self, images, *args, **kwargs)
        handle.add_done_callback(lambda _h: tracer.end(span, nested=False))
        return handle

    UHDServer.submit = traced_submit

    # repro.serve.transport: the HTTP handler, tagged with the client port
    make_handler = transport._make_handler

    @functools.wraps(make_handler)
    def traced_make_handler(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        do_post = handler.do_POST

        def traced_do_post(self):
            span = tracer.begin("http.handler", self.client_address[1])
            try:
                do_post(self)
            finally:
                tracer.end(span)

        handler.do_POST = traced_do_post
        return handler

    transport._make_handler = traced_make_handler

    # repro.serve.worker: a forked worker writes its own spans on exit
    worker_main = worker.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        try:
            worker_main(*args, **kwargs)
        finally:
            tracer.dump()

    worker.worker_main = traced_worker_main


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
def load_spans(out_dir: str | os.PathLike) -> dict[int, list[list]]:
    """``{pid: spans}`` for every span file in ``out_dir``."""
    found = {}
    for path in Path(out_dir).glob("spans-*.json"):
        found[int(path.stem.split("-")[1])] = json.loads(path.read_text())
    return found


def named(spans: list[list], name: str, windows=None) -> list[list]:
    """Spans called ``name``; with ``windows``, those starting inside one."""
    out = [s for s in spans if s[NAME] == name]
    if windows is not None:
        out = [s for s in out if any(lo <= s[START] < hi for lo, hi in windows)]
    return out


def total_s(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans) / 1e9


def self_s(spans: list[list], every: list[list]) -> float:
    """Summed duration of ``spans`` minus that of their direct children."""
    ids = {s[ID] for s in spans}
    children = [s for s in every if s[PARENT] in ids]
    return total_s(spans) - total_s(children)


def rows(spans: list[list]) -> int:
    return sum(int(s[TAG] or 0) for s in spans)
