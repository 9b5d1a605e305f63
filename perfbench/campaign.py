"""``campaign``: the paper's campus discovery campaign against a server.

All eight Explorer Modules run under a DiscoveryManager on the paper's
campus, writing through a RemoteClient to a durable Journal Server.
The campaign ends with one Correlator pass, every analysis program and
the topology report over a snapshot.  After every module run an
operator asks the server about what the hostmaster knows (by-IP
lookups, one InSubnet query per subnet, path and impact questions);
those reads are spread over the campaign so they sample it evenly, and
their time is left out of the campaign's.  Freshness is the round
trip of the write that first carries each address (queryable once
acknowledged); a change-feed subscription on a second connection checks
that every such address is published.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from typing import Any, Dict, List, Tuple

from harness import (
    BENCH_DIR,
    FeedWatch,
    HostSpeed,
    Latencies,
    Outcome,
    ServerProcess,
    Tracer,
    fresh_dir,
    median,
    ms_pair,
    server_layers,
    settle,
)
from generators import campaign_plan, classify_stream, probe_key

from repro.core import RemoteClient
from repro.core.analysis import run_all_analyses
from repro.core.correlate import Correlator
from repro.core.explorers import (
    ArpWatch,
    BroadcastPing,
    DnsExplorer,
    EtherHostProbe,
    RipWatch,
    SequentialPing,
    SubnetMaskModule,
    TracerouteModule,
)
from repro.core.manager import DiscoveryManager
from repro.core.presentation import render_report
from repro.core.query import InSubnet
from repro.core.records import Observation
from repro.netsim import TrafficGenerator, build_campus

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected_campaign.json")
#: set-ups per run at least, so setup_s is a median of several
MIN_SETUPS = 3
#: read passes after each module run, each one part of the host-speed
#: record, so the read figures sample the host at many moments
READ_PASSES = 3
#: a run holds ``round(--seconds / CAMPAIGN_S)`` campaigns (at least
#: one), the number that takes about ``--seconds`` on a 2-CPU host
CAMPAIGN_S = 10.0


class StampingClient:
    """Client stand-in handed to the explorers and the manager.

    Forwards everything to the RemoteClient; times the write that first
    carries each IP (the freshness measurement: the sighting is
    queryable once the write is acknowledged) and, when tracing, records
    a ``client.<op>`` span around each call.
    """

    _WRITES = ("submit", "resolve", "observe_interface")

    def __init__(self, client: RemoteClient, tracer: Tracer, lat: Latencies) -> None:
        self._client = client
        self._tracer = tracer
        self._lat = lat
        #: ip keys written so far
        self.seen: set = set()
        #: every observation the explorers sent, in order
        self.observations: List[Observation] = []

    def __getattr__(self, name: str):
        attr = getattr(self._client, name)
        if not callable(attr):
            return attr
        stamp = name in self._WRITES
        if not stamp and not self._tracer.enabled:
            return attr
        tracer = self._tracer
        lat = self._lat
        seen = self.seen
        observations = self.observations

        def call(*args, **kwargs):
            new = None
            if stamp and args and isinstance(args[0], Observation):
                observations.append(dataclasses.replace(args[0]))
                if args[0].ip is not None and probe_key(args[0].ip) not in seen:
                    new = probe_key(args[0].ip)
            began = time.perf_counter()
            with tracer.span("client." + name):
                result = attr(*args, **kwargs)
            if new is not None:
                lat.add("fresh", time.perf_counter() - began)
                seen.add(new)
            return result

        return call


def _ip_keys(keys):
    return [key for key in keys if key.startswith("ip:")]


def _setup(index: int):
    started = time.perf_counter()
    server = ServerProcess(fresh_dir(f"campaign-{index}"))
    campus = build_campus()
    return server, campus, time.perf_counter() - started


def _register(manager, campus, client, plan) -> None:
    nameserver = campus.network.dns.addresses_for(campus.network.dns.nameserver)[0]
    manager.register(RipWatch(campus.monitor, client),
                     directive={"duration": plan["ripwatch_s"]})
    manager.register(ArpWatch(campus.cs_monitor, client),
                     directive={"duration": plan["arpwatch_s"]})
    manager.register(EtherHostProbe(campus.cs_monitor, client))
    manager.register(SequentialPing(campus.cs_monitor, client),
                     directive={"subnet": campus.cs_subnet})
    manager.register(BroadcastPing(campus.cs_monitor, client),
                     directive={"subnet": campus.cs_subnet})
    manager.register(SubnetMaskModule(campus.cs_monitor, client))
    manager.register(TracerouteModule(campus.monitor, client))
    manager.register(DnsExplorer(campus.monitor, client, nameserver=nameserver,
                                 domain="cs.colorado.edu"))


def discovery_summary(snapshot, findings) -> Dict[str, Any]:
    counts = snapshot.counts()
    return {
        "interfaces": counts["interfaces"],
        "gateways": counts["gateways"],
        "subnets": counts["subnets"],
        "findings": sorted(
            f"{finding.kind} {finding.subject}"
            for items in findings.values() for finding in items
        ),
    }


def _trace_modules(manager, tracer: Tracer) -> None:
    for entry in manager.entries.values():
        module = entry.module
        bound = module.run
        name = "explorer." + entry.key

        def traced(*args, _bound=bound, _name=name, **kwargs):
            with tracer.span(_name):
                return _bound(*args, **kwargs)

        module.run = traced


def operator_ops(campus, plan) -> List:
    """One pass of the operator's questions, from what the hostmaster
    knows (assigned subnets, the CS hosts, the gateway names): by-IP
    lookups, counts, one InSubnet query per subnet, path between seeded
    subnet pairs and the impact of each gateway."""
    rng = random.Random(plan["path_rng_seed"])
    subnets = [str(subnet) for subnet in campus.network.subnets()]
    ops: List = [("by_ip", str(host.ip)) for host in campus.cs_hosts]
    ops += [("counts", None)] * 10
    ops += [("in_subnet", key) for key in subnets]
    ops += [("path", tuple(rng.sample(subnets, 2))) for _ in range(plan["path_pairs"])]
    ops += [("impact", gateway.name) for gateway in campus.network.gateways]
    return ops


def one_campaign(plan, server, campus, tracer: Tracer, outcome, lat: Latencies) -> Dict[str, Any]:
    """Run the campaign and its tail; after every module run the
    operator asks :data:`READ_PASSES` shuffled passes of
    :func:`operator_ops` (spread over the campaign, and left out of
    ``campaign_s``).  Each module run,
    each read pass and the tail is one part of ``lat.speed``.
    Returns per-campaign figures."""
    speed = lat.speed
    host, port = server.address
    client = RemoteClient(host, port)
    feed = client.subscribe(since=0)
    watch = FeedWatch(feed, _ip_keys)
    watch.start()
    stamped = StampingClient(client, tracer, lat)
    ops = operator_ops(campus, plan)
    rng = random.Random(plan["path_rng_seed"])
    #: per read pass: (part, reads, seconds)
    read_passes: List[Tuple[int, int, float]] = []
    #: campaign time at full speed, and as measured
    campaign_s = raw_campaign_s = 0.0
    try:
        campus.network.start_rip()
        campus.set_cs_uptime(plan["cs_uptime"])
        traffic = TrafficGenerator(campus.network, seed=plan["traffic_seed"],
                                   hosts=campus.cs_real_hosts())
        traffic.start()
        manager = DiscoveryManager(campus.sim, stamped)
        _register(manager, campus, stamped, plan)
        if tracer.enabled:
            _trace_modules(manager, tracer)
        events_before = campus.sim.events_processed
        metrics_before = client.metrics(spans=0) if tracer.enabled else None
        until = campus.sim.now + plan["horizon"]
        runs = []
        settle()
        speed.sample()
        with tracer.span("campaign"):
            while True:
                entry = manager.next_entry()
                if entry is None or entry.next_due > until:
                    break
                began = time.perf_counter()
                runs.append(manager.run_next())
                explored = time.perf_counter() - began
                part = speed.part
                speed.end_part(explored)
                campaign_s += speed.seconds(part, explored)
                raw_campaign_s += explored
                for _ in range(READ_PASSES):
                    rng.shuffle(ops)
                    began = time.perf_counter()
                    with tracer.span("operator"):
                        _operator_reads(client, ops, lat, outcome)
                    took = time.perf_counter() - began
                    part = speed.part
                    speed.end_part(took, reads=len(ops))
                    read_passes.append((part, len(ops), took))
            began = time.perf_counter()
            if until > campus.sim.now:
                campus.sim.run_until(until)
            traffic.stop()
            # as measured, like every per-layer figure
            explore_s = raw_campaign_s + time.perf_counter() - began
            with tracer.span("client.dump"):
                snapshot = client.snapshot()
            with tracer.span("correlate.pass"):
                Correlator(snapshot).correlate()
            with tracer.span("analysis.run"):
                findings = run_all_analyses(snapshot, stale_horizon=0.0)
            with tracer.span("presentation.render"):
                report = render_report(snapshot, "topology")
            tail_s = time.perf_counter() - began
            part = speed.part
            speed.end_part(tail_s)
            campaign_s += speed.seconds(part, tail_s)
            raw_campaign_s += tail_s
        events = campus.sim.events_processed - events_before
        metrics = (metrics_before, client.metrics(spans=0)) if tracer.enabled else None
        outcome.count_ops(len(runs), failed=sum(1 for _k, r in runs if r.outcome != "ok"))
        observations = sum(result.observations for _key, result in runs)
        changes = sum(result.changes for _key, result in runs)

        # Publication of the last sightings: wait for the feed to reach
        # the server's revision before reading arrival times.
        target = client.revision()
        deadline = time.monotonic() + 10.0
        while feed.revision < target and time.monotonic() < deadline and watch.is_alive():
            time.sleep(0.01)
    finally:
        watch.stop()
        feed.close()
        client.close()

    fresh = len(stamped.seen)
    missing = len(stamped.seen - set(watch.arrivals))
    outcome.check("campaign.every_sighting_on_feed", not missing,
                  f"{missing} of {fresh} addresses never reached the feed")
    outcome.check("campaign.feed_alive", watch.error is None, repr(watch.error))
    outcome.check("campaign.report_rendered", bool(report.strip()))
    return {
        "campaign_s": campaign_s,
        "raw_campaign_s": raw_campaign_s,
        "explore_s": explore_s,
        "observations": observations,
        "changes": changes,
        "events": events,
        "fresh": fresh,
        "read_passes": read_passes,
        "metrics": metrics,
        "summary": discovery_summary(snapshot, findings),
        "feed_frames": watch.frames,
        "stream": classify_stream(stamped.observations),
    }


def _operator_reads(client, ops, lat: Latencies, outcome) -> None:
    for kind, arg in ops:
        began = time.perf_counter()
        try:
            if kind == "by_ip":
                client.interfaces_by_ip(arg)
            elif kind == "counts":
                client.counts()
            elif kind == "in_subnet":
                client.query("interfaces", InSubnet(arg))
            elif kind == "path":
                client.path(*arg)
            else:
                client.impact(arg)
        except Exception:
            outcome.count_ops(1, failed=1)
            continue
        outcome.count_ops(1)
        lat.add(kind, time.perf_counter() - began)


def load_expected() -> Dict[str, Any]:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def run(seed: int, seconds: float, tracer: Tracer, outcome) -> None:
    plan = campaign_plan(seed)
    expected = load_expected().get(str(plan["variant"]))
    speed = HostSpeed()
    lat = Latencies(speed)
    setups = HostSpeed()
    results: List[Dict[str, Any]] = []
    setups.sample()
    for _ in range(max(1, round(seconds / CAMPAIGN_S))):
        server, campus, setup_s = _setup(len(setups.parts))
        setups.end_part(setup_s)
        try:
            results.append(one_campaign(plan, server, campus, tracer, outcome, lat))
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        outcome.rss.append(rss)
        setups.sample()
    while len(setups.parts) < MIN_SETUPS:
        server, _campus, setup_s = _setup(len(setups.parts))
        setups.end_part(setup_s)
        server.stop()

    for index, result in enumerate(results):
        ok = expected is not None and result["summary"] == expected
        outcome.check(f"campaign.discovery_matches_record[{index}]", ok,
                      "" if ok else json.dumps(result["summary"])[:400])

    fresh = sum(result["fresh"] for result in results)
    outcome.check("campaign.fresh_samples", fresh >= 50, str(fresh))
    outcome.setup(setups)
    outcome.e2e["obs_per_s"] = (sum(r["observations"] for r in results)
                                / sum(r["campaign_s"] for r in results))
    outcome.latencies(lat)
    outcome.e2e["reads_per_s"] = speed.busy_rate(
        [item for result in results for item in result["read_passes"]])
    outcome.host_speed(speed, lat)
    outcome.info["as_measured"]["obs_per_s"] = (
        sum(r["observations"] for r in results) / sum(r["raw_campaign_s"] for r in results))
    outcome.info["campaign_s"] = median([r["campaign_s"] for r in results])
    outcome.info["campaigns"] = len(results)
    outcome.info["explorer_stream"] = results[0]["stream"]
    outcome.info["discovered"] = {
        k: results[0]["summary"][k] for k in ("interfaces", "gateways", "subnets")
    }

    if tracer.enabled:
        reps = len(results)
        layers = outcome.layers
        layers["netsim.events"] = median([r["events"] for r in results])
        layers["netsim.events_per_s"] = median([r["events"] / r["explore_s"] for r in results])
        explorer_spans = [s for s in tracer.spans if s.name.startswith("explorer.")]
        run_ms: Dict[str, float] = {}
        for span in explorer_spans:
            key = "explorers.run_ms." + span.name.split(".", 1)[1]
            run_ms[key] = run_ms.get(key, 0.0) + span.duration * 1e3 / reps
        layers.update(run_ms)
        selfs = outcome.self_times(tracer)
        layers["explorers.self_ms"] = sum(
            v for k, v in selfs.items() if k.startswith("explorer.")
        ) * 1e3 / reps
        layers["explorers.useful_share"] = (
            sum(r["changes"] for r in results) / max(1, sum(r["observations"] for r in results))
        )
        layers["correlate.pass_ms"] = median(tracer.durations("correlate.pass")) * 1e3
        layers["analysis.run_ms"] = median(tracer.durations("analysis.run")) * 1e3
        layers["analysis.findings"] = len(results[0]["summary"]["findings"])
        layers["presentation.render_ms"] = median(tracer.durations("presentation.render")) * 1e3
        layers["feed.frames"] = median([r["feed_frames"] for r in results])
        rtt_p50 = {}
        writes = [d for name in StampingClient._WRITES for d in tracer.durations("client." + name)]
        for cls, samples in (("write", writes),
                             ("lookup", lat.raw(("by_ip", "counts"))),
                             ("query", lat.raw(("in_subnet",))),
                             ("topo", lat.raw(("path", "impact")))):
            if samples:
                rtt_p50[cls], tail = ms_pair(samples)
                layers[f"client.rtt_ms_p50.{cls}"] = rtt_p50[cls]
                layers[f"client.rtt_ms_p99.{cls}"] = tail
        server_layers([r["metrics"] for r in results], layers, rtt_p50, write_op="observe")


def record_expected(seeds) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Run one campaign per variant; return the discovery summaries
    (``run.py --record-campaign`` writes them to expected_campaign.json)
    and the explorer stream's :func:`classify_stream` counts pooled over
    the variants (the source of ``generators.CAMPAIGN_STREAM_MIX``)."""
    recorded = {}
    stream: Dict[str, int] = {}
    for seed in seeds:
        plan = campaign_plan(seed)
        server, campus, _ = _setup(0)
        try:
            result = one_campaign(plan, server, campus, Tracer(False), Outcome(),
                                  Latencies(HostSpeed()))
        finally:
            server.stop()
        recorded[str(plan["variant"])] = result["summary"]
        for kind, count in result["stream"].items():
            stream[kind] = stream.get(kind, 0) + count
    return recorded, stream
