"""Shared machinery for the Fremont benchmark.

Everything here runs on the load side: starting real ``python -m repro
serve`` processes over loopback, the percentile rule, registry
deltas read through the public ``metrics`` op, the benchmark-side span
tracer, and the host record that goes with every result.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch space for durable server directories and trace files
WORK_DIR = os.path.join(BENCH_DIR, ".runs")

#: loopback only: every server listens here and the load generator
#: connects here, so no figure includes a real network
LOOPBACK = "127.0.0.1"
FSYNC_POLICY = "interval"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, server died)."""


def require_source() -> None:
    """Make the checkout's ``src`` importable, or refuse to run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no Fremont source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class ServerProcess:
    """One ``python -m repro serve`` subprocess with a durable WAL.

    Started with ``--port 0`` and reached by parsing the address the
    server prints; stopped with SIGINT (the CLI's clean shutdown, which
    closes the WAL) and reaped before :meth:`stop` returns.
    """

    def __init__(self, directory: str, *, shard: Optional[str] = None,
                 start_timeout: float = 30.0) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", LOOPBACK, "--port", "0",
            "--durable", os.path.join(directory, "wal"),
            "--fsync", FSYNC_POLICY,
        ]
        if shard is not None:
            command += ["--shard", shard]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(os.path.join(directory, "server.log"), "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=ROOT,
        )
        self.address = self._await_address(start_timeout)

    def _await_address(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop()
                raise BenchError(f"server in {self.directory} did not start")
            ready, _, _ = select.select([stream], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                continue
            buffered += chunk
            match = _LISTENING.search(buffered.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))

    @property
    def target(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process, in MiB."""
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def pin_to_one_cpu() -> None:
    """Run this process, its threads and every server it starts (they
    inherit the mask) on one CPU: the highest one it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def settle() -> None:
    """Collect garbage and freeze what set-up left on the heap, so the
    load generator's collector does not rescan it (and stall a timed
    request) during the measured phase."""
    gc.collect()
    gc.freeze()


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class FeedWatch(threading.Thread):
    """Drains a change-feed subscription on its own thread.  For every
    key *select* picks out of a delta's keys it counts the deltas that
    carried it and keeps the first arrival time."""

    def __init__(self, feed, select: Callable[[Iterable[str]], Iterable[str]]) -> None:
        super().__init__(daemon=True)
        self.feed = feed
        self.select = select
        self.arrivals: Dict[str, float] = {}
        self.seen: Dict[str, int] = {}
        self.frames = 0
        self.error: Optional[BaseException] = None
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                changes = self.feed.poll(0.1)
                if changes is None:
                    continue
                now = time.perf_counter()
                self.frames += 1
                for key in self.select(changes.keys):
                    self.seen[key] = self.seen.get(key, 0) + 1
                    self.arrivals.setdefault(key, now)
        except Exception as error:  # reported as a failed output check
            self.error = error

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

#: a reported tail must have at least this many samples beyond it
TAIL_SAMPLES = 10


def tail_rank(count: int, wanted: float) -> Tuple[float, int]:
    """The percentile to report for *count* samples when *wanted* is
    asked for: the highest one, up to *wanted*, that leaves at least
    :data:`TAIL_SAMPLES` samples beyond it (never below the median).
    Returns ``(percentile, 1-based nearest rank)``."""
    if count <= 0:
        raise ValueError("no samples")
    allowed = 100.0 * (count - TAIL_SAMPLES) / count
    percentile = max(50.0, min(wanted, allowed))
    rank = max(1, math.ceil(percentile / 100.0 * count))
    if percentile == allowed:
        rank = count - TAIL_SAMPLES
    return percentile, rank


def percentile(samples: Sequence[float], wanted: float) -> float:
    """Nearest-rank percentile under the :func:`tail_rank` rule."""
    ordered = sorted(samples)
    _percentile, rank = tail_rank(len(ordered), wanted)
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

_HEAP: List[Any] = []
_ECHO_SOURCE = (
    "import os\n"
    "while True:\n"
    "    byte = os.read(0, 1)\n"
    "    if not byte:\n"
    "        break\n"
    "    os.write(1, byte)\n"
)
_ECHOER: List[subprocess.Popen] = []


def _interp_kernel(rounds: int = 2500) -> int:
    """Interpreter-bound: string formatting and updates of a small dict."""
    table: Dict[str, int] = {}
    for i in range(rounds):
        key = "k%d" % (i & 511)
        table[key] = table.get(key, 0) + i
    return len(table)


def _heap_kernel(rounds: int = 2500) -> int:
    """Bound by cache misses: lookups at scattered keys of a 100 000-entry
    dict (built on first use, outside any timing)."""
    if not _HEAP:
        heap = {f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}": [i] for i in range(100_000)}
        _HEAP.extend([heap, list(heap), [0]])
    heap, keys, offset = _HEAP
    start = offset[0]
    total = 0
    for i in range(rounds):
        total += heap[keys[(start + i * 7919) % len(keys)]][0]
    offset[0] = (start + rounds) % len(keys)
    return total


def _switch_kernel(rounds: int = 60) -> None:
    """Bound by system calls and context switches: one-byte round trips
    through pipes to an echo process on the same CPU, as every request
    to a server is."""
    if not _ECHOER:
        _ECHOER.append(subprocess.Popen(
            [sys.executable, "-c", _ECHO_SOURCE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        ))
    child = _ECHOER[0]
    out, back = child.stdin.fileno(), child.stdout.fileno()
    for _ in range(rounds):
        os.write(out, b"x")
        os.read(back, 1)


def stop_echoer() -> None:
    """Stop the switch kernel's echo process, if it was started."""
    while _ECHOER:
        child = _ECHOER.pop()
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


#: (kernel, its time on the reference host at full speed, weight): the
#: reference times are the 1st percentile of 210 samples on a 2-vCPU
#: Xeon VM with Python 3.11; the weights are the least-squares fit of
#: log part time on log kernel time over the parts of 12 fleet and
#: campaign runs, rounded (fleet 0.13/0.90/0.39, campaign 0.10/0.81/0.53)
KERNELS = (
    (_interp_kernel, 0.0006, 0.10),
    (_heap_kernel, 0.0021, 0.85),
    (_switch_kernel, 0.0002, 0.45),
)


#: a measured phase of a fixed amount of work stops early, at the end
#: of a part, once it has run this many times ``--seconds`` of wall
#: time, so that a very slow host cannot stretch a run without bound
OVERRUN = 1.5


class HostSpeed:
    """How slow the host is right now, sampled between the parts of a
    measured phase.

    The benchmark runs on a shared host whose speed swings by 2x and
    more within seconds, whatever the program does.  A sample times each
    of :data:`KERNELS` (best of two) and combines their slowdowns
    against the reference times as a weighted geometric mean; a part's
    *slowdown* is the mean of the samples at its two ends.  Latencies
    measured in a part are divided by its slowdown and rates multiplied
    by it, so figures read as on the reference host at full speed.
    The kernels are the benchmark's own code: no change to the program
    moves them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: per closed part: (part index, seconds, {rate name: count});
        #: a fresh :meth:`sample` without :meth:`end_part` starts a new
        #: part after a gap that is not measured
        self.parts: List[Tuple[int, float, Dict[str, float]]] = []
        self.deadline = math.inf

    def start(self, seconds: float) -> None:
        """Take the first sample of a measured phase that should take
        about *seconds*."""
        self.sample()
        self.deadline = time.perf_counter() + OVERRUN * seconds

    @property
    def overdue(self) -> bool:
        return time.perf_counter() > self.deadline

    def sample(self) -> None:
        slowdown = 1.0
        for kernel, reference, weight in KERNELS:
            best = math.inf
            for _ in range(2):
                began = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - began)
            slowdown *= (best / reference) ** weight
        self.samples.append(slowdown)

    @property
    def part(self) -> int:
        """Index of the part being measured (samples so far minus one)."""
        return len(self.samples) - 1

    def slowdown(self, part: int) -> float:
        pair = self.samples[part:part + 2]
        return sum(pair) / len(pair)

    def end_part(self, seconds: float, **counts: float) -> None:
        """Close the current part after *seconds* (its *counts* become
        rates) and take the sample that starts the next."""
        self.parts.append((self.part, seconds, counts))
        self.sample()

    def seconds(self, part: int, seconds: float) -> float:
        """*seconds* measured in *part*, at full speed."""
        return seconds / self.slowdown(part)

    def rate(self, name: str) -> float:
        """Count *name* per second over the parts that carry it, at full speed."""
        return self.busy_rate([(p, counts[name], seconds)
                               for p, seconds, counts in self.parts if name in counts])

    def raw_rate(self, name: str) -> float:
        """The same as measured."""
        items = [(counts[name], seconds) for _p, seconds, counts in self.parts if name in counts]
        return sum(c for c, _s in items) / sum(s for _c, s in items)

    def busy_rate(self, items: Iterable[Tuple[int, float, float]]) -> float:
        """Operations per second spent in them, at full speed, from
        ``(part, operations, seconds)`` items."""
        items = [(part, count, seconds) for part, count, seconds in items if count]
        return (sum(count for _p, count, _s in items)
                / sum(self.seconds(part, seconds) for part, _c, seconds in items))

    def median_slowdown(self) -> float:
        return median([self.slowdown(p) for p in range(max(1, len(self.samples) - 1))])


class Latencies:
    """Per-class latency samples in seconds, each tagged with the
    :class:`HostSpeed` part it was measured in; :meth:`merged` returns
    them scaled to full speed, :meth:`raw` as measured."""

    def __init__(self, speed: Optional[HostSpeed] = None) -> None:
        self.speed = speed
        self.samples: Dict[str, List[Tuple[int, float]]] = {}

    def add(self, name: str, seconds: float, part: Optional[int] = None) -> None:
        if part is None:
            part = self.speed.part if self.speed is not None else 0
        self.samples.setdefault(name, []).append((part, seconds))

    def raw(self, names: Iterable[str]) -> List[float]:
        return [value for name in names for _part, value in self.samples.get(name, ())]

    def merged(self, names: Iterable[str]) -> List[float]:
        if self.speed is None or not self.speed.samples:
            return self.raw(names)
        return [self.speed.seconds(part, value) for name in names
                for part, value in self.samples.get(name, ())]


def ms_pair(samples: Sequence[float]) -> Tuple[float, float]:
    """(p50, tail) in milliseconds, tail per the percentile rule."""
    return median(samples) * 1e3, percentile(samples, 99.0) * 1e3


# ----------------------------------------------------------------------
# Registry deltas (the public ``metrics`` op)
# ----------------------------------------------------------------------


def _family(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    for family in snapshot.get("metrics", ()):
        if family["name"] == name:
            return family["samples"]
    return []


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def counter_delta(before: Dict[str, Any], after: Dict[str, Any], name: str,
                  **labels: str) -> float:
    """Increase of a counter (summed over label sets matching *labels*)."""

    def total(snapshot):
        return sum(
            sample["value"]
            for sample in _family(snapshot, name)
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )

    return total(after) - total(before)


class HistogramDelta:
    """Bucket counts one histogram sample gained between two snapshots."""

    def __init__(self, bounds: List[float], counts: List[int], total: float) -> None:
        self.bounds = bounds
        self.counts = counts
        self.sum = total

    @property
    def count(self) -> int:
        return sum(self.counts)

    def percentile(self, wanted: float) -> float:
        """Linear interpolation inside the winning bucket (the same
        estimate the server's registry makes), under the tail rule."""
        total = self.count
        if total == 0:
            return 0.0
        q, _rank = tail_rank(total, wanted)
        target = q / 100.0 * total
        running = 0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count and running + count >= target:
                if math.isinf(bound):
                    return lower
                fraction = (target - running) / count
                return lower + (bound - lower) * max(0.0, min(1.0, fraction))
            running += count
            if not math.isinf(bound):
                lower = bound
        return lower

    def max_bound(self) -> float:
        """Upper bound of the highest non-empty bucket."""
        top = 0.0
        lower = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count:
                top = lower if math.isinf(bound) else bound
            if not math.isinf(bound):
                lower = bound
        return top


def histogram_deltas(before: Dict[str, Any], after: Dict[str, Any],
                     name: str) -> Dict[Tuple[Tuple[str, str], ...], HistogramDelta]:
    """Per-label-set :class:`HistogramDelta` for histogram *name*."""
    old = {_labels_key(s["labels"]): s for s in _family(before, name)}
    out = {}
    for sample in _family(after, name):
        key = _labels_key(sample["labels"])
        bounds = [math.inf if b == "+Inf" else float(b) for b, _ in sample["buckets"]]
        cumulative = [c for _, c in sample["buckets"]]
        prior = old.get(key)
        if prior is not None:
            cumulative = [c - p for c, (_, p) in zip(cumulative, prior["buckets"])]
        counts = [cumulative[0]] + [
            cumulative[i] - cumulative[i - 1] for i in range(1, len(cumulative))
        ]
        total = sample["sum"] - (prior["sum"] if prior is not None else 0.0)
        out[key] = HistogramDelta(bounds, counts, total)
    return out


def merged_histogram(deltas: Dict[Any, HistogramDelta]) -> Optional[HistogramDelta]:
    """All label sets of one histogram folded together."""
    items = list(deltas.values())
    if not items:
        return None
    counts = [sum(d.counts[i] for d in items) for i in range(len(items[0].counts))]
    return HistogramDelta(items[0].bounds, counts, sum(d.sum for d in items))


# ----------------------------------------------------------------------
# Benchmark-side tracing
# ----------------------------------------------------------------------


class Span:
    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, start: float) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_id, "span": self.span_id,
            "parent": self.parent_id, "name": self.name,
            "start": self.start, "end": self.end,
        }


class Tracer:
    """In-memory spans recorded around calls into each layer.

    A span opened with no enclosing span on its thread starts a new
    trace; nested spans share the trace id and point at their parent.
    Disabled, :meth:`span` returns a shared no-op context.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._null = nullcontext()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = self._new_id()
        span = Span(
            parent.trace_id if parent is not None else span_id,
            span_id,
            parent.span_id if parent is not None else None,
            name,
            time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of *interval* covered by the union of *children*."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end))
        for start, end in children
        if end > low and start < high
    )
    total = 0.0
    cursor = low
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus what child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for span in spans:
        own = span.duration - covered((span.start, span.end), children.get(span.span_id, ()))
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def residual_share(spans: Sequence[Span]) -> float:
    """Share of root-span time not attributed to any child layer span:
    the roots' own self time over their total duration."""
    roots = [span for span in spans if span.parent_id is None]
    total = sum(span.duration for span in roots)
    if total <= 0:
        return 0.0
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    unattributed = sum(
        span.duration - covered((span.start, span.end), children.get(span.span_id, ()))
        for span in roots
    )
    return unattributed / total


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes of every .py file): the
    commit stand-in when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_record() -> Dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "network": f"loopback ({LOOPBACK})",
        "fsync": FSYNC_POLICY,
    }


# ----------------------------------------------------------------------
# One run's outcome
# ----------------------------------------------------------------------

#: operation classes behind each latency metric
QUERY_CLASSES = ("in_subnet", "mac_prefix", "stale")
TOPO_CLASSES = ("path", "impact")
LOOKUP_CLASSES = ("by_ip", "counts")
LATENCY_CLASSES = (("fresh", ("fresh",)), ("query", QUERY_CLASSES),
                   ("topo", TOPO_CLASSES), ("lookup", LOOKUP_CLASSES))


class Outcome:
    """What one workload run attempted, what failed, and its figures.

    Every client operation and every output check counts as attempted;
    a failed operation or a failed check counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, str] = {}
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}
        self.rss: List[float] = []
        #: tail name -> (value in ms, "pQ of N")
        self.tails: Dict[str, Tuple[float, str]] = {}

    def count_ops(self, attempted: int, *, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks[name] = "ok" if ok else f"FAILED {detail}".strip()

    @property
    def correct(self) -> bool:
        return all(value == "ok" for value in self.checks.values())

    def setup(self, speed: HostSpeed) -> None:
        """``setup_s``: the median of the run's set-ups, each one a part
        of *speed* and reported at full speed."""
        self.e2e["setup_s"] = median(
            [speed.seconds(p, seconds) for p, seconds, _c in speed.parts])
        self.info["setups"] = len(speed.parts)
        self.info["setup_s_as_measured"] = median([s for _p, s, _c in speed.parts])

    def latencies(self, lat: Latencies) -> None:
        """``<prefix>_p50_ms`` for fresh, query, topology and lookup:
        the geometric mean over the operation classes the workload sends
        of each class's median (at full speed), so a seed drawing more
        of one class does not move it and a change to any class moves it
        by the same share; the pooled tail (percentile rule)
        as ``tail.<prefix>_p99_ms``, printed on every run and reported
        as a per-layer metric by traced runs."""
        for prefix, classes in LATENCY_CLASSES:
            present = [c for c in classes if lat.samples.get(c)]
            if not present:
                raise BenchError(f"no samples for {prefix}")
            self.e2e[f"{prefix}_p50_ms"] = statistics.geometric_mean(
                median(lat.merged((c,))) for c in present) * 1e3
            pooled = lat.merged(present)
            name = f"tail.{prefix}_p99_ms"
            self.layers[name] = percentile(pooled, 99.0) * 1e3
            q, _rank = tail_rank(len(pooled), 99.0)
            self.tails[name] = (self.layers[name], f"p{q:g} of {len(pooled)}")

    def host_speed(self, speed: HostSpeed, lat: Latencies) -> None:
        """Record the host's slowdown over the measured phase and the
        figures as measured, before scaling to full speed."""
        raw: Dict[str, float] = {}
        for name in sorted({name for _p, _s, counts in speed.parts for name in counts}):
            raw[f"{name}_per_s"] = speed.raw_rate(name)
        for prefix, classes in LATENCY_CLASSES:
            present = [c for c in classes if lat.samples.get(c)]
            if present:
                raw[f"{prefix}_p50_ms"] = statistics.geometric_mean(
                    median(lat.raw((c,))) for c in present) * 1e3
        self.info["host_slowdown"] = speed.median_slowdown()
        self.info["host_samples"] = len(speed.samples)
        self.info["as_measured"] = raw

    def self_times(self, tracer: Tracer) -> Dict[str, float]:
        selfs = self_times(tracer.spans)
        self.layers["trace.residual_share"] = residual_share(tracer.spans)
        self.layers["trace.spans"] = len(tracer.spans)
        return selfs


# ----------------------------------------------------------------------
# Per-layer figures shared by the serving workloads
# ----------------------------------------------------------------------

#: server ops whose latency each run reports, and the op behind each
#: client op class (for transport = round trip - server op time)
SERVER_OPS = ("observe_batch", "observe", "query", "get_interfaces",
              "counts", "path", "impact")
CLASS_OPS = {"write": "observe_batch", "lookup": "get_interfaces",
             "query": "query", "topo": "path"}


def server_layers(pairs: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
                  layers: Dict[str, float], rtt_p50_ms: Dict[str, float],
                  *, write_op: str = "observe_batch") -> None:
    """Server op latency, transport share, lock waits and durability
    from ``(before, after)`` ``metrics`` snapshots, one pair per server
    (histograms of several shards are merged)."""

    def merged(name: str, **labels: str) -> Optional[HistogramDelta]:
        wanted = tuple(sorted(labels.items()))
        found = {}
        for index, (before, after) in enumerate(pairs):
            for key, delta in histogram_deltas(before, after, name).items():
                if not wanted or key == wanted:
                    found[(index, key)] = delta
        return merged_histogram(found)

    def counted(name: str) -> float:
        return sum(counter_delta(before, after, name) for before, after in pairs)

    p50 = {}
    for op in SERVER_OPS:
        delta = merged("fremont_server_op_seconds", op=op)
        if delta is not None and delta.count:
            p50[op] = delta.percentile(50) * 1e3
            layers[f"server.op_ms_p50.{op}"] = p50[op]
            layers[f"server.op_ms_p99.{op}"] = delta.percentile(99) * 1e3
    for cls, rtt in rtt_p50_ms.items():
        op = write_op if cls == "write" else CLASS_OPS[cls]
        if op in p50:
            layers[f"server.transport_ms_p50.{cls}"] = rtt - p50[op]
    waits = merged("fremont_server_lock_wait_seconds")
    if waits is not None and waits.count:
        layers["server.lock_wait_ms_p99"] = waits.percentile(99) * 1e3
    fsync = merged("fremont_wal_fsync_seconds")
    if fsync is not None:
        layers["durability.fsyncs"] = fsync.count
        if fsync.count:
            layers["durability.fsync_ms_p99"] = fsync.percentile(99) * 1e3
    layers["durability.checkpoints"] = counted("fremont_wal_checkpoints_total")
    checkpoint = merged("fremont_checkpoint_seconds")
    if checkpoint is not None and checkpoint.count:
        layers["durability.checkpoint_ms_max"] = checkpoint.max_bound() * 1e3
    layers["feed.fallbacks"] = counted("fremont_server_feed_fallbacks_total")


def wire_layers(requests: Sequence[Dict[str, Any]], replies: Sequence[Dict[str, Any]],
                layers: Dict[str, float]) -> None:
    """Bytes per op and codec cost per KiB, replaying recorded request
    and reply messages through ``wire.encode_message``/``decode_message``."""
    from repro.core import wire

    if not requests or not replies:
        return
    encoded_requests = [wire.encode_message(m) for m in requests]
    encoded_replies = [wire.encode_message(m) for m in replies]
    layers["wire.req_bytes_per_op"] = sum(map(len, encoded_requests)) / len(requests)
    layers["wire.reply_bytes_per_op"] = sum(map(len, encoded_replies)) / len(replies)
    messages = list(requests) + list(replies)
    frames = encoded_requests + encoded_replies
    kib = sum(map(len, frames)) / 1024.0
    #: repeat small samples so each timing covers about 2 MiB
    rounds = min(50, max(1, int(2048 / kib)))
    started = time.perf_counter()
    for _ in range(rounds):
        for message in messages:
            wire.encode_message(message)
    encode_s = (time.perf_counter() - started) / rounds
    started = time.perf_counter()
    for _ in range(rounds):
        for frame in frames:
            wire.decode_message(frame)
    decode_s = (time.perf_counter() - started) / rounds
    layers["wire.encode_us_per_kb"] = encode_s * 1e6 / kib
    layers["wire.decode_us_per_kb"] = decode_s * 1e6 / kib


def copy_traced(outcome: "Outcome") -> None:
    """The traced run's own end-to-end figures, for the overhead."""
    for name, value in outcome.e2e.items():
        outcome.layers["traced." + name] = value
