"""``ingest``: an explorer-shaped observation stream into a durable server.

The stream has the mix of the campaign's explorer stream (new hosts,
first-time subnet masks, re-sightings; see ``generators.ingest_stream``)
and goes through ``BatchingSink(pipeline_depth=4)`` over a RemoteClient
to the server (WAL with interval fsync, checkpoints); a second
connection holds a change-feed subscription.  Every
``PROBE_EVERY``-th new host is a probe whose freshness is timed from
``submit`` until a feed delta's keys contain its ``ip:`` key.  The loop is closed: the sink waits for acks once
four batches are in flight, as explorers do.  Every ``READ_EVERY``
observations an explorer-style read (by-IP lookup, subnet query,
counts, path, impact) goes out on the write connection, so read
latency is measured under write load; ``reads_per_s`` is reads per
second of time spent reading, since the read schedule itself is fixed.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Tuple

from generators import ingest_stream, probe_key, probe_keys_in
from harness import (
    FeedWatch,
    HostSpeed,
    Latencies,
    ServerProcess,
    Tracer,
    counter_delta,
    fresh_dir,
    histogram_deltas,
    merged_histogram,
    ms_pair,
    server_layers,
    settle,
    wire_layers,
)

from repro.core import BatchingSink, Journal, RemoteClient, wire
from repro.core.query import InSubnet

SETUPS = 5
MAX_BATCH = 64
PIPELINE_DEPTH = 4
READ_EVERY = 100
#: a run submits a fixed stream prefix of ``--seconds * RATE``
#: observations (about ``--seconds`` of work on a 2-CPU host), so every
#: run and every commit ends with the same journal, WAL and checkpoints
RATE = 3500
CHUNK = 256
#: the stream is cut into this many equal parts per second of
#: ``--seconds``; each part ends with the sink drained (as an explorer's
#: module run does) and host speed is sampled between parts
PARTS_PER_S = 2


def _setup(index: int):
    started = time.perf_counter()
    server = ServerProcess(fresh_dir(f"ingest-{index}"))
    client = RemoteClient(*server.address)
    feed = client.subscribe(since=0)
    return server, client, feed, time.perf_counter() - started


def _subnet_of(ip: str) -> str:
    return ip.rsplit(".", 1)[0] + ".0/24"


def _read(client, kind: str, ip: str, other: str):
    if kind == "by_ip":
        return client.interfaces_by_ip(ip)
    if kind == "in_subnet":
        # an earlier host's /24, full by then: the reply size does not
        # depend on which kind of observation the read follows
        return client.query("interfaces", InSubnet(_subnet_of(other)))
    if kind == "counts":
        return client.counts()
    if kind == "path":
        return client.path(_subnet_of(ip), _subnet_of(other))
    return client.impact(_subnet_of(ip))


READ_KINDS = ("by_ip", "in_subnet", "counts", "path", "impact")


class _RecordingReply:
    """Keeps the response a pipelined batch reply resolves to."""

    def __init__(self, reply, replies: List[Dict[str, Any]]) -> None:
        self._reply = reply
        self._replies = replies

    def done(self) -> bool:
        return self._reply.done()

    def wait(self, timeout=-1.0):
        response = self._reply.wait(timeout)
        if len(self._replies) < 400:
            self._replies.append(response)
        return response


def run(seed: int, seconds: float, tracer: Tracer, outcome) -> None:
    setups = HostSpeed()
    spare = []
    setups.sample()
    for index in range(SETUPS):
        server, client, feed, setup_s = _setup(index)
        setups.end_part(setup_s)
        spare.append((server, client, feed))
    for old_server, old_client, old_feed in spare[:-1]:
        old_feed.close()
        old_client.close()
        old_server.stop()
    server, client, feed = spare[-1]
    try:
        _measure(seed, seconds, tracer, outcome, server, client, feed)
    finally:
        feed.close()
        client.close()
        server.stop()
    outcome.setup(setups)


def _measure(seed, seconds, tracer, outcome, server, client, feed) -> None:
    """The load phase, then the output checks (the server's peak RSS is
    read in between, so the checks' full dump does not count)."""
    parts = max(3, round(seconds * PARTS_PER_S))
    per_part = max(1, round(seconds * RATE / CHUNK / parts))
    chunks = per_part * parts
    # generated before the clock starts, so only the program's work is timed
    stream = list(itertools.islice(ingest_stream(seed), chunks * CHUNK))
    consumed = [observation for observation, _probe_ip in stream]
    probes: Dict[str, float] = {}
    probe_parts: Dict[str, int] = {}
    watch = FeedWatch(feed, lambda keys: probe_keys_in(keys, probes))
    watch.start()
    sink = BatchingSink(client, max_batch=MAX_BATCH, pipeline_depth=PIPELINE_DEPTH)
    speed = HostSpeed()
    lat = Latencies(speed)
    sent_at: Dict[str, float] = {}
    requests: List[Dict[str, Any]] = []
    replies: List[Dict[str, Any]] = []
    if tracer.enabled:
        _instrument(sink, client, tracer, probes, sent_at, requests, replies)
    before = client.metrics(spans=0)
    client_before = client.telemetry.snapshot(spans=0)
    settle()
    reads = 0
    failed_reads = 0
    #: per part: (part, reads, seconds spent in them)
    read_parts: List[Tuple[int, int, float]] = []
    part_reads = 0
    part_read_s = 0.0
    elapsed = 0.0
    sent = len(stream)
    speed.start(seconds)
    part_started = time.perf_counter()
    try:
        for chunk in range(chunks):
            with tracer.span("ingest.chunk"):
                for index in range(chunk * CHUNK, (chunk + 1) * CHUNK):
                    observation, probe_ip = stream[index]
                    if probe_ip is not None:
                        key = probe_key(probe_ip)
                        probes[key] = time.perf_counter()
                        probe_parts[key] = speed.part
                    sink.submit(observation)
                    if (index + 1) % READ_EVERY == 0:
                        kind = READ_KINDS[reads % len(READ_KINDS)]
                        other = consumed[(index + 1) // 2].ip
                        began = time.perf_counter()
                        try:
                            with tracer.span("client." + kind):
                                _read(client, kind, observation.ip, other)
                        except Exception as error:
                            failed_reads += 1
                            outcome.info.setdefault("read_error", f"{kind}: {error!r}")
                        else:
                            took = time.perf_counter() - began
                            lat.add(kind, took)
                            part_reads += 1
                            part_read_s += took
                        reads += 1
            if (chunk + 1) % per_part == 0:
                with tracer.span("ingest.drain"):
                    sink.flush()
                    with tracer.span("sink.settle"):
                        sink.settle()
                took = time.perf_counter() - part_started
                elapsed += took
                read_parts.append((speed.part, part_reads, part_read_s))
                part_reads = 0
                part_read_s = 0.0
                speed.end_part(took, obs=CHUNK * per_part)
                if speed.overdue:
                    sent = (chunk + 1) * CHUNK
                    break
                part_started = time.perf_counter()
        with tracer.span("ingest.close"):
            sink.close()
        target = client.revision()
        deadline = time.monotonic() + 10.0
        while feed.revision < target and time.monotonic() < deadline and watch.is_alive():
            time.sleep(0.005)
    finally:
        watch.stop()
    del consumed[sent:]
    after = client.metrics(spans=0)
    client_after = client.telemetry.snapshot(spans=0)
    outcome.rss.append(server.peak_rss_mb())
    outcome.count_ops(len(consumed) + reads, failed=failed_reads)

    # -- output checks ---------------------------------------------------
    outcome.check("ingest.feed_alive", watch.error is None, repr(watch.error))
    counts = [watch.seen.get(key, 0) for key in probes]
    outcome.check(
        "ingest.every_probe_once",
        bool(probes) and all(count == 1 for count in counts),
        f"{sum(1 for c in counts if c == 0)} missing, "
        f"{sum(1 for c in counts if c > 1)} repeated of {len(probes)}",
    )
    snapshot = client.snapshot()
    oracle = Journal()
    changed = 0
    replay_started = time.perf_counter()
    for observation in consumed:
        if oracle.observe_interface(observation)[1]:
            changed += 1
    replay_s = time.perf_counter() - replay_started
    outcome.check("ingest.identity_state_matches_oracle",
                  snapshot.identity_state() == oracle.identity_state(),
                  f"server {snapshot.counts()['interfaces']} interfaces, "
                  f"oracle {oracle.counts()['interfaces']}")

    # -- end-to-end ------------------------------------------------------
    for key, submitted in probes.items():
        if key in watch.arrivals:
            lat.add("fresh", watch.arrivals[key] - submitted, probe_parts[key])
    outcome.e2e["obs_per_s"] = speed.rate("obs")
    outcome.latencies(lat)
    outcome.e2e["reads_per_s"] = speed.busy_rate(read_parts)
    outcome.host_speed(speed, lat)
    outcome.info.update({
        "observations": len(consumed), "probes": len(probes), "load_s": elapsed,
        "parts": f"{len(speed.parts)} of {parts}",
        "interfaces": snapshot.counts()["interfaces"],
    })

    if not tracer.enabled:
        return
    layers = outcome.layers
    layers["sink.coalesced_share"] = sink.coalesced / max(1, sink.submitted)
    layers["sink.batch_size_mean"] = sink.applied / max(1, sink.flushes)
    flushes = tracer.durations("sink.flush")
    if flushes:
        layers["sink.flush_ms_p50"], layers["sink.flush_ms_p99"] = ms_pair(flushes)
    rtt = merged_histogram(histogram_deltas(
        client_before, client_after, "fremont_client_roundtrip_seconds"))
    rtt_p50 = {}
    if rtt is not None and rtt.count:
        rtt_p50["write"] = rtt.percentile(50) * 1e3
        layers["client.rtt_ms_p50.write"] = rtt_p50["write"]
        layers["client.rtt_ms_p99.write"] = rtt.percentile(99) * 1e3
    for cls, kinds in (("lookup", ("by_ip", "counts")), ("query", ("in_subnet",)),
                       ("topo", ("path", "impact"))):
        samples = lat.raw(kinds)
        if samples:
            p50, tail = ms_pair(samples)
            layers[f"client.rtt_ms_p50.{cls}"] = p50
            layers[f"client.rtt_ms_p99.{cls}"] = tail
            rtt_p50[cls] = p50
    server_layers([(before, after)], layers, rtt_p50)
    layers["durability.wal_bytes_per_obs"] = (
        counter_delta(before, after, "fremont_wal_bytes_total") / max(1, len(consumed))
    )
    layers["journal.apply_us_per_obs"] = replay_s * 1e6 / max(1, len(consumed))
    layers["journal.changes_per_obs"] = changed / max(1, len(consumed))
    layers["feed.frames"] = watch.frames
    deliver = [watch.arrivals[k] - t for k, t in sent_at.items() if k in watch.arrivals]
    if deliver:
        layers["feed.deliver_ms_p50"], layers["feed.deliver_ms_p99"] = ms_pair(deliver)
    wire_layers(requests, replies, layers)
    outcome.self_times(tracer)


def _instrument(sink, client, tracer, probes, sent_at, requests, replies) -> None:
    """Traced runs only: a span per sink flush, the send time of every
    probe's batch, and the batch requests and replies for the wire replay."""
    flush = sink.flush

    def traced_flush():
        with tracer.span("sink.flush"):
            return flush()

    sink.flush = traced_flush
    nowait = client.observe_batch_nowait

    def recording_nowait(batch, *, coalesced=0):
        now = time.perf_counter()
        for observation in batch:
            key = probe_key(observation.ip) if observation.ip else None
            if key in probes:
                sent_at[key] = now
        if len(requests) < 400:
            requests.append(wire.batch_request(
                [{"op": "observe", "observation": wire.observation_to_dict(o)}
                 for o in batch],
                coalesced=coalesced,
            ))
        return _RecordingReply(nowait(batch, coalesced=coalesced), replies)

    client.observe_batch_nowait = recording_nowait
