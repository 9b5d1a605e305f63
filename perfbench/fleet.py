"""``fleet``: a preloaded two-shard fleet behind one ``shard://`` router.

Two ``serve --shard 0/2`` / ``1/2`` processes hold the site (4 000
interfaces on 80 /24s, a gateway chain); ``connect("shard://...")``
gives one ShardedClient with one connection per shard.  One closed
loop sends the mix: routed ``observe_batch`` (each batch carries one
probe; its freshness is the time until the routed write is
acknowledged, after which it is queryable), scatter ``InSubnet``
queries, routed by-IP lookups, and federated ``path`` and ``impact``.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

from generators import SITE_SOURCE, fleet_ops, site
from harness import (
    HostSpeed,
    Latencies,
    ServerProcess,
    Tracer,
    counter_delta,
    fresh_dir,
    median,
    ms_pair,
    server_layers,
    settle,
)

from repro.core import Journal, connect
from repro.core.query import InSubnet

SETUPS = 3
SHARDS = 2
INTERFACES = 4_000
SUBNETS = 80
PRELOAD_BATCH = 500
#: sampled scatter reads replayed straight to each shard (traced runs)
DIRECT_SAMPLES = 100
#: a run sends ``--seconds * OPS_RATE`` operations (about ``--seconds``
#: on a 2-CPU host), so every run and every commit does the same work
OPS_RATE = 280
#: the run is cut into this many equal parts per second of ``--seconds``
#: (the seed fixes each part's operations); host speed is sampled
#: between parts
PARTS_PER_S = 4


def _setup(index: int, plan):
    started = time.perf_counter()
    servers: List[ServerProcess] = []
    try:
        base = fresh_dir(f"fleet-{index}")
        for shard in range(SHARDS):
            servers.append(ServerProcess(f"{base}/shard-{shard}", shard=f"{shard}/{SHARDS}"))
        router = connect("shard://" + ",".join(s.target for s in servers))
        gateway_ids = _preload(router, plan)
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers, router, gateway_ids, time.perf_counter() - started


def _preload(client, plan) -> Dict[str, int]:
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


def _close(servers, router) -> None:
    try:
        router.close()
    finally:
        for server in servers:
            server.stop()


def run(seed: int, seconds: float, tracer: Tracer, outcome) -> None:
    plan = site(seed, interfaces=INTERFACES, subnets=SUBNETS)
    setups = HostSpeed()
    made = []
    try:
        setups.sample()
        for index in range(SETUPS):
            servers, router, gateway_ids, setup_s = _setup(index, plan)
            made.append((servers, router))
            setups.end_part(setup_s)
            if index < SETUPS - 1:
                _close(servers, router)
        _measure(seed, seconds, tracer, outcome, plan, servers, router, gateway_ids)
    finally:
        if made:
            _close(*made[-1])
    outcome.setup(setups)


def _measure(seed, seconds, tracer, outcome, plan, servers, router, gateway_ids) -> None:
    subnets = plan["subnets"]
    speed = HostSpeed()
    lat = Latencies(speed)
    batches = []
    scatter_args: List[str] = []
    observations = 0
    reads = 0
    attempted = 0
    failed = 0
    parts = max(3, round(seconds * PARTS_PER_S))
    per_part = max(1, round(seconds * OPS_RATE / parts))
    total = per_part * parts
    # generated before the clock starts, so only the program's work is timed
    ops = list(itertools.islice(
        fleet_ops(seed, subnets, plan["per_subnet"], sorted(gateway_ids)), total))
    before = [client.metrics(spans=0) for client in router.clients]
    router_before = router.telemetry.snapshot(spans=0)
    settle()
    part_obs = part_reads = 0
    elapsed = 0.0
    speed.start(seconds)
    part_started = time.perf_counter()
    while attempted < total:
        kind, arg = ops[attempted]
        attempted += 1
        began = time.perf_counter()
        try:
            with tracer.span("op." + kind):
                if kind == "observe_batch":
                    with tracer.span("router.observe_batch"):
                        router.observe_batch(arg)
                elif kind == "in_subnet":
                    with tracer.span("shard.scatter"):
                        router.query("interfaces", InSubnet(arg))
                elif kind == "by_ip":
                    with tracer.span("router.interfaces_by_ip"):
                        router.interfaces_by_ip(arg)
                elif kind == "path":
                    with tracer.span("router.path"):
                        router.path(*arg)
                else:
                    with tracer.span("router.impact"):
                        router.impact(arg)
        except Exception:
            failed += 1
        else:
            took = time.perf_counter() - began
            if kind == "observe_batch":
                batches.append(arg)
                observations += len(arg)
                part_obs += len(arg)
                lat.add("fresh", took)
            else:
                lat.add(kind, took)
                reads += 1
                part_reads += 1
                if kind == "in_subnet":
                    scatter_args.append(arg)
        if attempted % per_part == 0:
            took = time.perf_counter() - part_started
            elapsed += took
            speed.end_part(took, obs=part_obs, reads=part_reads)
            part_obs = part_reads = 0
            if speed.overdue:
                break
            part_started = time.perf_counter()
    fresh = lat.raw(("fresh",))
    after = [client.metrics(spans=0) for client in router.clients]
    router_after = router.telemetry.snapshot(spans=0)
    outcome.rss.append(sum(server.peak_rss_mb() for server in servers))
    outcome.count_ops(attempted, failed=failed)

    # -- output check: sharded == single journal ---------------------------
    oracle = Journal()
    for observation in plan["observations"]:
        oracle.observe_interface(observation)
    for name, keys in plan["gateways"]:
        record, _created = oracle.ensure_gateway(source=SITE_SOURCE, name=name)
        for key in keys:
            oracle.link_gateway_subnet(record.record_id, key, source=SITE_SOURCE)
    for batch in batches:
        for observation in batch:
            oracle.observe_interface(observation)
    aggregate = router.snapshot()
    outcome.check("fleet.identity_state_matches_single_journal",
                  aggregate.identity_state() == oracle.identity_state(),
                  f"fleet {aggregate.counts()['interfaces']} interfaces, "
                  f"oracle {oracle.counts()['interfaces']}")

    outcome.e2e["obs_per_s"] = speed.rate("obs")
    outcome.latencies(lat)
    outcome.e2e["reads_per_s"] = speed.rate("reads")
    outcome.host_speed(speed, lat)
    outcome.info.update({"batches": len(batches), "observations": observations,
                         "reads": reads, "load_s": elapsed,
                         "parts": f"{len(speed.parts)} of {parts}"})

    if not tracer.enabled:
        return
    layers = outcome.layers
    scatter = tracer.durations("shard.scatter")
    if scatter:
        layers["shard.scatter_ms_p50"], layers["shard.scatter_ms_p99"] = ms_pair(scatter)
    direct, useful, asked = [], 0, 0
    for key in scatter_args[:DIRECT_SAMPLES]:
        slowest = 0.0
        for client in router.clients:
            began = time.perf_counter()
            records = client.query("interfaces", InSubnet(key))
            slowest = max(slowest, time.perf_counter() - began)
            asked += 1
            useful += bool(records)
        direct.append(slowest)
    if direct:
        layers["shard.direct_ms_p50"] = median(direct) * 1e3
        layers["shard.shards_useful_share"] = useful / asked
    layers["shard.routed_ops"] = counter_delta(
        router_before, router_after, "fremont_router_routed_ops_total")
    rtt_p50 = {}
    for cls, kinds in (("lookup", ("by_ip",)), ("query", ("in_subnet",)),
                       ("topo", ("path", "impact"))):
        samples = lat.raw(kinds)
        if samples:
            p50, tail = ms_pair(samples)
            layers[f"client.rtt_ms_p50.{cls}"] = p50
            layers[f"client.rtt_ms_p99.{cls}"] = tail
            rtt_p50[cls] = p50
    if fresh:
        rtt_p50["write"], tail = ms_pair(fresh)
        layers["client.rtt_ms_p50.write"] = rtt_p50["write"]
        layers["client.rtt_ms_p99.write"] = tail
    server_layers(list(zip(before, after)), layers, rtt_p50)
    outcome.self_times(tracer)
