"""The ``repro-uhd serve`` subprocess and the load the benchmark puts on it.

The server runs exactly as an operator would start it (``--workers 1
--serve-forever``: a front end plus one forked worker), through
``launch.py`` so the traced run can install its wrappers first.  The
benchmark finds the ephemeral ports on the server's stdout, drives load
through ``repro.serve.BinaryClient`` or keep-alive ``http.client``
connections, scrapes ``GET /stats`` and stops the server with SIGTERM
(drain, then ``shutdown clean``).
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.serve import BinaryClient
from repro.serve.histogram import HistogramSnapshot

from library import Phase, Request

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
BULK_ROWS = 64
_LISTEN = re.compile(r"(http|binary): listening on \w+://[\d.]+:(\d+)")

#: two lanes for the open loop: interactive (16 rows, 1 ms window,
#: weight 4) next to bulk (64 rows, 20 ms window, weight 1)
BINARY_LANES = ["--lane", "interactive:16:1:4", "--lane", "bulk:64:20:1"]
#: the default single lane
HTTP_LANE = ["--max-batch", "64", "--max-wait-ms", "2"]


class Server:
    """One ``repro-uhd serve --serve-forever`` process and its worker."""

    def __init__(self, model_path: Path, extra: list[str], log_path: Path,
                 trace_dir: Path | None = None) -> None:
        launcher = [sys.executable, str(HERE / "launch.py")]
        if trace_dir is not None:
            launcher += ["--trace-dir", str(trace_dir)]
        self.cmd = launcher + [
            "--", "serve", "--model", str(model_path), "--workers", "1",
            "--serve-forever", "--http-port", "0", *extra,
        ]
        self.log_path = log_path
        self.ports: dict[str, int] = {}
        self.lines: list[str] = []
        self.proc: subprocess.Popen | None = None
        self._want: tuple[str, ...] = ()
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self, want: tuple[str, ...]) -> "Server":
        """Spawn and wait until every transport in ``want`` is listening."""
        self._want = want
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdout=subprocess.PIPE, stderr=log, text=True
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(60.0):
            self.stop()
            raise RuntimeError("server did not report its ports:\n"
                               + "\n".join(self.lines))
        return self

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            match = _LISTEN.search(line)
            if match:
                self.ports[match.group(1)] = int(match.group(2))
                if all(kind in self.ports for kind in self._want):
                    self._ready.set()
        self._ready.set()  # EOF: let start() fail instead of waiting

    def stop(self) -> str:
        """SIGTERM (drain), wait, and return everything it printed."""
        if self.proc is None:
            return ""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(10.0)
        if self._reader is not None:
            self._reader.join(10.0)
        self.proc.stdout.close()
        return "\n".join(self.lines)


def pss_mb(pid: int) -> float:
    """PSS of process ``pid`` plus every descendant (a server's worker)."""
    total_kb, todo = 0, [pid]
    while todo:
        pid = todo.pop()
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
            total_kb += int(re.search(r"^Pss:\s+(\d+)", rollup, re.M).group(1))
            for task in Path(f"/proc/{pid}/task").iterdir():
                todo += [int(c) for c in (task / "children").read_text().split()]
        except FileNotFoundError:  # exited while we looked
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
def http_connection(port: int) -> http.client.HTTPConnection:
    """A keep-alive connection with TCP_NODELAY, as curl and urllib3 set."""
    conn = http.client.HTTPConnection(HOST, port, timeout=30.0)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def http_predict(conn: http.client.HTTPConnection, image: np.ndarray) -> np.ndarray:
    """POST one raw image; returns the labels (raises on a non-200)."""
    conn.request("POST", "/predict", body=image.tobytes(), headers={
        "Content-Type": "application/octet-stream",
        "Accept": "application/octet-stream",
        "X-UHD-Rows": "1",
    })
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"HTTP {response.status}: {body[:200]!r}")
    return np.frombuffer(body, dtype="<i8")


def get_stats(port: int) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=30.0)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def poisson_schedule(rng: np.random.Generator, rates: dict[str, float],
                     seconds: float) -> list[tuple[float, str]]:
    """Merged Poisson arrivals ``(offset_s, kind)`` for each kind's rate."""
    arrivals = []
    for kind, rate in rates.items():
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        offsets = np.cumsum(gaps)
        arrivals += [(float(t), kind) for t in offsets[offsets < seconds]]
    return sorted(arrivals)


def _recv(client: BinaryClient) -> tuple[int, np.ndarray | None]:
    """The next reply; an error or expiry frame gives ``labels=None``."""
    try:
        return client.recv()
    except (ValueError, RuntimeError) as exc:  # error frames carry the id
        if getattr(exc, "request_id", None) is None:
            raise
        return exc.request_id, None


def binary_open_loop(client: BinaryClient, inp, schedule, choices,
                     phase: Phase) -> None:
    """One block: send on ``schedule`` from one thread, receive on another.

    ``choices[i]`` indexes the test image (interactive) or the 64-image
    batch (bulk) of request ``i``.  Latency counts from the due time, so
    a stalled sender charges its lateness to every request it delays.
    """
    pending: dict[int, tuple[Request, np.ndarray]] = {}
    lock = threading.Lock()
    block: list[Request] = []
    errors: list[BaseException] = []

    def receive() -> None:
        try:
            for _ in range(len(schedule)):
                request_id, labels = _recv(client)
                now = time.monotonic_ns()
                with lock:
                    request, expected = pending.pop(request_id)
                request.recv_ns = now
                request.ok = labels is not None and np.array_equal(labels, expected)
        except Exception as exc:  # socket timeout: report, don't hang
            errors.append(exc)

    # the load generator's own pauses must not show as server latency: no
    # GC during the block, and a short GIL switch interval so the sender
    # wakes on time while the receiver runs
    gc.disable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        receiver = threading.Thread(target=receive)
        receiver.start()
        start = time.monotonic_ns() + 20_000_000  # 20 ms lead to start cleanly
        for (offset, kind), choice in zip(schedule, choices):
            if kind == "interactive":
                images = inp.test_images[choice:choice + 1]
                expected = inp.single_labels[choice:choice + 1]
            else:
                images, expected = inp.bulk_batches[choice], inp.bulk_labels[choice]
            request = Request(kind, start + int(offset * 1e9), rows=images.shape[0])
            wait = (request.due_ns - time.monotonic_ns()) / 1e9
            if wait > 0:
                time.sleep(wait)
            with lock:
                request.send_ns = time.monotonic_ns()
                pending[client.send(images, lane=kind)] = (request, expected)
            block.append(request)
        receiver.join(60.0)
    finally:
        sys.setswitchinterval(interval)
        gc.enable()
    if errors or receiver.is_alive():
        raise RuntimeError(f"binary receiver failed: {errors}")
    phase.add(start, block)


def binary_saturation(client: BinaryClient, inp, seconds: float,
                      in_flight: int, phase: Phase) -> None:
    """One block: bulk requests, ``in_flight`` outstanding, for ``seconds``."""
    start = time.monotonic_ns()
    stop = start + int(seconds * 1e9)
    pending: dict[int, tuple[Request, int]] = {}
    block: list[Request] = []
    sent_before = len(phase.requests)

    def send() -> None:
        k = (sent_before + len(block)) % len(inp.bulk_batches)
        request = Request("bulk", time.monotonic_ns(), rows=BULK_ROWS)
        request.send_ns = request.due_ns
        pending[client.send(inp.bulk_batches[k], lane="bulk")] = (request, k)
        block.append(request)

    for _ in range(in_flight):
        send()
    while pending:
        request_id, labels = _recv(client)
        request, k = pending.pop(request_id)
        request.recv_ns = time.monotonic_ns()
        request.ok = labels is not None and np.array_equal(labels, inp.bulk_labels[k])
        if request.recv_ns < stop:
            send()
    phase.add(start, block)


def http_closed_loop(port: int, inp, seconds: float, rng: np.random.Generator,
                     phase: Phase, connections: int = 2) -> None:
    """One block: ``connections`` keep-alive clients, one image at a time."""
    start = time.monotonic_ns()
    stop = start + int(seconds * 1e9)
    picks = rng.spawn(connections)
    block: list[Request] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def client(pick: np.random.Generator) -> None:
        conn = http_connection(port)
        local_port = conn.sock.getsockname()[1]
        done: list[Request] = []
        try:
            due = start
            while due < stop:
                k = int(pick.integers(len(inp.test_images)))
                request = Request("http", due, conn=local_port)
                request.send_ns = time.monotonic_ns()
                labels = http_predict(conn, inp.test_images[k:k + 1])
                request.recv_ns = due = time.monotonic_ns()
                request.ok = np.array_equal(labels, inp.single_labels[k:k + 1])
                done.append(request)
        except Exception as exc:  # reported by the caller, after the join
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                block.extend(done)

    threads = [threading.Thread(target=client, args=(pick,)) for pick in picks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 60.0)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"HTTP client failed: {errors}")
    phase.add(start, block)


# ----------------------------------------------------------------------
# /stats
# ----------------------------------------------------------------------
def conservation_problems(stats: dict, client_requests: int,
                          binary_frames: int | None) -> list[str]:
    """Counter identities that must hold once every reply is in."""
    problems = []
    for lane in stats["lanes"]:
        if lane["submitted"] != lane["served"] + lane["expired"] or lane["depth"]:
            problems.append(
                f"lane {lane['name']}: submitted {lane['submitted']} != served "
                f"{lane['served']} + expired {lane['expired']} (depth {lane['depth']})"
            )
    if stats["requests"] != client_requests:
        problems.append(f"server requests {stats['requests']} != client "
                        f"attempts {client_requests}")
    if binary_frames is not None:
        wire = {t["name"]: t for t in stats["transports"]}.get("binary", {})
        if wire.get("frames_in") != binary_frames:
            problems.append(f"binary frames_in {wire.get('frames_in')} != "
                            f"frames sent {binary_frames}")
    return problems


def lane_delta(before: dict, after: dict, into: dict[str, dict]) -> None:
    """Add each lane's queue waits and batching between two scrapes."""
    old = {lane["name"]: lane for lane in before["lanes"]}
    for lane in after["lanes"]:
        prev = old[lane["name"]]
        counts = [a - b for a, b in zip(lane["latency"]["counts"], prev["latency"]["counts"])]
        wait = HistogramSnapshot(
            counts=tuple(counts),
            count=sum(counts),
            sum_s=(lane["latency"]["sum_ms"] - prev["latency"]["sum_ms"]) / 1e3,
        )
        acc = into.setdefault(lane["name"], {
            "wait": HistogramSnapshot.empty(), "rows": 0, "batches": 0, "expired": 0,
        })
        acc["wait"] = HistogramSnapshot.merge([acc["wait"], wait])
        acc["rows"] += lane["served_rows"] - prev["served_rows"]
        acc["batches"] += lane["batches"] - prev["batches"]
        acc["expired"] += lane["expired"] - prev["expired"]


def transport_delta(before: dict, after: dict, name: str) -> dict[str, int]:
    old = {t["name"]: t for t in before["transports"]}.get(name)
    new = {t["name"]: t for t in after["transports"]}.get(name)
    if new is None:
        return {"frames_in": 0, "bytes_in": 0, "bytes_out": 0}
    return {k: new[k] - (old[k] if old else 0) for k in ("frames_in", "bytes_in", "bytes_out")}
