"""``inquiry``: reads beside a write trickle on a preloaded site.

The site has 10 000 interfaces on 200 /24s and a chain of gateways.
One closed-loop reader sends the read mix (``InSubnet`` through a
QueryCache that holds the hot subnets but not the tail, ``MacPrefix``
vendor sweeps, uncacheable ``Stale``, ``interfaces_by_ip``, ``counts``,
``path`` and ``impact``); between reads, a fixed-rate trickle adds
host sightings and gateway-subnet links.  After each sighting the
cache's read-your-writes barrier (``sync``) is timed: that is how long
a new sighting takes to become visible to a cached reader.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from generators import SITE_SOURCE, inquiry_ops, site, trickle_writes
from harness import (
    BenchError,
    HostSpeed,
    Latencies,
    ServerProcess,
    Tracer,
    fresh_dir,
    ms_pair,
    server_layers,
    settle,
    wire_layers,
)

from repro.core import QueryCache, RemoteClient, wire
from repro.core.query import And, InSubnet, MacPrefix, Stale, evaluate, predicate_to_dict
from repro.core.topology import TopologyStore

SETUPS = 3
INTERFACES = 10_000
SUBNETS = 200
PRELOAD_BATCH = 500
#: the cache holds the hot subnets of the Zipf-skewed choice, not the tail
CACHE_ENTRIES = 32
TRICKLE_HZ = 20.0
#: a run sends ``--seconds * READ_RATE`` reads (about ``--seconds`` on a
#: 2-CPU host), so every run and every commit does the same reads
READ_RATE = 300
#: the reads are cut into this many equal parts per second of
#: ``--seconds``; host speed is sampled between parts
PARTS_PER_S = 4
#: sampled answers compared against the in-process oracle per class
CHECK_SAMPLES = 12
#: the measured phase gives up after this many failures in a row
MAX_FAILURES_IN_A_ROW = 50


def preload(client, plan: Dict[str, Any]) -> Dict[str, int]:
    """Load the site over the wire; returns gateway name -> record id."""
    observations = plan["observations"]
    for start in range(0, len(observations), PRELOAD_BATCH):
        client.observe_batch(observations[start:start + PRELOAD_BATCH])
    ids = {}
    for name, subnets in plan["gateways"]:
        record, _created = client.ensure_gateway(source=SITE_SOURCE, name=name)
        ids[name] = record.record_id
        for key in subnets:
            client.link_gateway_subnet(record.record_id, key, source=SITE_SOURCE)
    return ids


def _setup(index: int, plan):
    started = time.perf_counter()
    server = ServerProcess(fresh_dir(f"inquiry-{index}"))
    try:
        client = RemoteClient(*server.address)
        gateway_ids = preload(client, plan)
        cache = QueryCache(client, max_entries=CACHE_ENTRIES)
    except BaseException:
        server.stop()
        raise
    return server, client, cache, gateway_ids, time.perf_counter() - started


def predicate_for(kind: str, arg, horizon: float):
    if kind == "in_subnet":
        return InSubnet(arg)
    if kind == "mac_prefix":
        return MacPrefix(arg)
    return And(InSubnet(arg), Stale(horizon))


def run(seed: int, seconds: float, tracer: Tracer, outcome) -> None:
    plan = site(seed, interfaces=INTERFACES, subnets=SUBNETS)
    setups = HostSpeed()
    made = []
    try:
        setups.sample()
        for index in range(SETUPS):
            *parts, setup_s = _setup(index, plan)
            made.append(parts)
            setups.end_part(setup_s)
            if index < SETUPS - 1:
                _close(*parts[:3])
        server, client, cache, gateway_ids = made[-1]
        _measure(seed, seconds, tracer, outcome, plan, server, client, cache, gateway_ids)
    finally:
        if made:
            _close(*made[-1][:3])
    outcome.setup(setups)


def _close(server, client, cache) -> None:
    try:
        cache.close()
        client.close()
    finally:
        server.stop()


def _measure(seed, seconds, tracer, outcome, plan, server, client, cache,
             gateway_ids) -> None:
    subnets = plan["subnets"]
    names = sorted(gateway_ids)
    ops = inquiry_ops(seed, subnets, plan["per_subnet"], names)
    writes = trickle_writes(seed, subnets, names)
    horizon = time.time()
    speed = HostSpeed()
    lat = Latencies(speed)
    used: Dict[str, List] = {}
    results: List[int] = []
    written: List[Tuple[str, Any]] = []
    failed = 0
    failures_in_a_row = 0
    attempted = 0
    start_state = client.snapshot() if tracer.enabled else None
    before = client.metrics(spans=0)
    hits0, misses0 = cache.hits, cache.misses
    settle()
    reads = 0
    parts = max(3, round(seconds * PARTS_PER_S))
    per_part = max(1, round(seconds * READ_RATE / parts))
    #: per part: (part, sightings written, seconds spent writing them)
    write_parts: List[Tuple[int, int, float]] = []
    part_writes = 0
    part_write_s = 0.0
    elapsed = 0.0
    interval = 1.0 / TRICKLE_HZ
    speed.start(seconds)
    part_started = next_write = time.perf_counter()
    while reads < per_part * parts and failures_in_a_row < MAX_FAILURES_IN_A_ROW:
        now = time.perf_counter()
        attempted += 1
        if now >= next_write:
            next_write += interval
            kind, arg = next(writes)
            try:
                with tracer.span("trickle." + kind):
                    if kind == "observe":
                        with tracer.span("client.observe"):
                            client.observe_interface(arg)
                        written_at = time.perf_counter()
                        with tracer.span("querycache.sync"):
                            cache.sync()
                        done = time.perf_counter()
                        lat.add("fresh", done - now)
                        part_writes += 1
                        part_write_s += written_at - now
                    else:
                        gateway, key = arg
                        with tracer.span("client.link_gateway_subnet"):
                            client.link_gateway_subnet(
                                gateway_ids[gateway], key, source="bench-trickle")
                written.append((kind, arg))
                failures_in_a_row = 0
            except Exception:
                failed += 1
                failures_in_a_row += 1
            continue
        kind, arg = next(ops)
        try:
            with tracer.span("read." + kind):
                answer = _read(client, cache, kind, arg, horizon, tracer)
        except Exception:
            failed += 1
            failures_in_a_row += 1
            continue
        failures_in_a_row = 0
        done = time.perf_counter()
        lat.add(kind, done - now)
        reads += 1
        used.setdefault(kind, []).append(arg)
        if kind in ("in_subnet", "mac_prefix", "stale"):
            results.append(len(answer))
        if reads % per_part == 0:
            took = done - part_started
            elapsed += took
            write_parts.append((speed.part, part_writes, part_write_s))
            part_writes = 0
            part_write_s = 0.0
            speed.end_part(took, reads=per_part)
            if speed.overdue:
                break
            # the trickle keeps its schedule across the sample
            part_started = time.perf_counter()
            next_write += part_started - done
    after = client.metrics(spans=0)
    outcome.rss.append(server.peak_rss_mb())
    outcome.count_ops(attempted, failed=failed)
    outcome.check("inquiry.reads_completed",
                  bool(reads) and reads % per_part == 0
                  and failures_in_a_row < MAX_FAILURES_IN_A_ROW,
                  f"gave up after {failures_in_a_row} failures in a row, "
                  f"{reads} reads done")
    if not speed.parts:
        raise BenchError(f"inquiry: no part of the reads completed ({failed} failures)")

    # -- output checks against an in-process oracle ------------------------
    cache.sync()
    snapshot = client.snapshot()
    store = TopologyStore(snapshot)
    _check_queries(outcome, client, cache, snapshot, used, horizon)
    _check_topology(outcome, client, store, used)

    # the trickle's schedule is fixed, so obs_per_s is sightings per
    # second of time spent writing them (the observe round trip)
    outcome.e2e["obs_per_s"] = speed.busy_rate(write_parts)
    outcome.latencies(lat)
    outcome.e2e["reads_per_s"] = speed.rate("reads")
    outcome.host_speed(speed, lat)
    hits, misses = cache.hits - hits0, cache.misses - misses0
    outcome.info.update({"reads": reads, "writes": len(written), "load_s": elapsed,
                         "parts": f"{len(speed.parts)} of {parts}",
                         "cache_hit_share": hits / max(1, hits + misses)})
    if tracer.enabled:
        _layers(outcome, tracer, lat, before, after, snapshot, start_state,
                gateway_ids, used, written, results, hits, misses, horizon)


def _read(client, cache, kind, arg, horizon, tracer):
    if kind in ("in_subnet", "mac_prefix", "stale"):
        with tracer.span("client.query"):
            return cache.query("interfaces", predicate_for(kind, arg, horizon))
    if kind == "by_ip":
        with tracer.span("client.interfaces_by_ip"):
            return client.interfaces_by_ip(arg)
    if kind == "counts":
        with tracer.span("client.counts"):
            return client.counts()
    if kind == "path":
        with tracer.span("client.path"):
            return client.path(*arg)
    with tracer.span("client.impact"):
        return client.impact(arg)


def _check_queries(outcome, client, cache, snapshot, used, horizon) -> None:
    for kind in ("in_subnet", "mac_prefix", "stale"):
        args = list(dict.fromkeys(used.get(kind, ())))[:CHECK_SAMPLES]
        bad = 0
        for arg in args:
            predicate = predicate_for(kind, arg, horizon)
            expected = [r.record_id for r in evaluate(snapshot, "interfaces", predicate)]
            served = [r.record_id for r in client.query("interfaces", predicate)]
            cached = [r.record_id for r in cache.query("interfaces", predicate)]
            if served != expected or sorted(cached) != sorted(expected):
                bad += 1
        outcome.check(f"inquiry.query_matches_snapshot.{kind}", bool(args) and not bad,
                      f"{bad} of {len(args)} differ")


def _check_topology(outcome, client, store, used) -> None:
    pairs = list(dict.fromkeys(used.get("path", ())))[:CHECK_SAMPLES]
    targets = list(dict.fromkeys(used.get("impact", ())))[:CHECK_SAMPLES]
    bad_paths = sum(
        1 for a, b in pairs if client.path(a, b).to_dict() != store.path(a, b).to_dict()
    )
    bad_impacts = sum(
        1 for t in targets if client.impact(t).to_dict() != store.impact(t).to_dict()
    )
    outcome.check("inquiry.path_matches_store", bool(pairs) and not bad_paths,
                  f"{bad_paths} of {len(pairs)} differ")
    outcome.check("inquiry.impact_matches_store", bool(targets) and not bad_impacts,
                  f"{bad_impacts} of {len(targets)} differ")


def _layers(outcome, tracer, lat, before, after, snapshot, start_state, gateway_ids,
            used, written, results, hits, misses, horizon) -> None:
    layers = outcome.layers
    rtt_p50 = {}
    for cls, kinds in (("lookup", ("by_ip", "counts")),
                       ("query", ("in_subnet", "mac_prefix", "stale")),
                       ("topo", ("path", "impact"))):
        samples = lat.raw(kinds)
        if samples:
            p50, tail = ms_pair(samples)
            layers[f"client.rtt_ms_p50.{cls}"] = p50
            layers[f"client.rtt_ms_p99.{cls}"] = tail
            rtt_p50[cls] = p50
    observe_rtt = tracer.durations("client.observe")
    if observe_rtt:
        rtt_p50["write"], tail = ms_pair(observe_rtt)
        layers["client.rtt_ms_p50.write"] = rtt_p50["write"]
        layers["client.rtt_ms_p99.write"] = tail
    server_layers([(before, after)], layers, rtt_p50, write_op="observe")

    # query planner: replay the recorded predicates in process
    for kind in ("in_subnet", "mac_prefix", "stale"):
        timings = []
        for arg in used.get(kind, ())[:300]:
            predicate = predicate_for(kind, arg, horizon)
            began = time.perf_counter()
            evaluate(snapshot, "interfaces", predicate)
            timings.append(time.perf_counter() - began)
        if timings:
            layers[f"query.eval_ms_p50.{kind}"], layers[f"query.eval_ms_p99.{kind}"] = (
                ms_pair(timings))
    layers["query.results_per_query"] = sum(results) / max(1, len(results))
    layers["querycache.hit_share"] = hits / max(1, hits + misses)

    # topology: replay the recorded writes into the start state
    store = TopologyStore(start_state)
    store.refresh()
    refreshes = []
    for kind, arg in written:
        if kind == "observe":
            start_state.observe_interface(arg)
        else:
            start_state.link_gateway_subnet(gateway_ids[arg[0]], arg[1], source="bench-trickle")
        began = time.perf_counter()
        store.refresh()
        refreshes.append(time.perf_counter() - began)
    if refreshes:
        layers["topology.refresh_ms_p50"], layers["topology.refresh_ms_p99"] = ms_pair(refreshes)
    for name, kind, call in (("topology.path_ms_p50", "path", lambda a: store.path(*a)),
                             ("topology.impact_ms_p50", "impact", store.impact)):
        timings = []
        for arg in used.get(kind, ())[:300]:
            began = time.perf_counter()
            call(arg)
            timings.append(time.perf_counter() - began)
        if timings:
            layers[name] = ms_pair(timings)[0]

    # wire: recorded query requests and their replies
    requests, replies = [], []
    for kind in ("in_subnet", "mac_prefix", "stale"):
        for arg in used.get(kind, ())[:60]:
            predicate = predicate_for(kind, arg, horizon)
            requests.append({"op": "query", "kind": "interfaces",
                             "where": predicate_to_dict(predicate), "id": 1})
            replies.append({"ok": True, "id": 1, "records": [
                wire.interface_to_dict(r) for r in evaluate(snapshot, "interfaces", predicate)
            ]})
    wire_layers(requests, replies, layers)
    outcome.self_times(tracer)
