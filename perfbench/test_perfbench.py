"""Self-tests for the benchmark's own arithmetic and generators.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generators  # noqa: E402
import harness  # noqa: E402
from harness import Span, Tracer  # noqa: E402

from repro.core import Journal, MetricsRegistry  # noqa: E402
from repro.core.records import Observation  # noqa: E402


# -- the percentile rule --------------------------------------------------


def test_tail_leaves_ten_samples_beyond_it():
    assert harness.tail_rank(100, 99.0) == (90.0, 90)
    assert harness.tail_rank(5000, 99.0) == (99.0, 4950)
    assert harness.tail_rank(1000, 99.0) == (99.0, 990)
    # too few samples for any tail: report the median
    assert harness.tail_rank(15, 99.0) == (50.0, 8)
    assert harness.tail_rank(1, 99.0) == (50.0, 1)


def test_reported_tail_is_the_highest_allowed_for_every_count():
    for count in range(20, 3000, 7):
        q, rank = harness.tail_rank(count, 99.0)
        assert count - rank >= harness.TAIL_SAMPLES
        if q < 99.0:
            # one rank higher would leave fewer than ten beyond it
            assert count - (rank + 1) < harness.TAIL_SAMPLES


def test_percentile_uses_nearest_rank():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 99.0) == 90
    assert harness.percentile(list(reversed(samples)), 50.0) == 50
    assert harness.ms_pair([0.001] * 30) == (1.0, 1.0)


def test_histogram_delta_matches_the_registry_estimate():
    registry = MetricsRegistry()
    family = registry.histogram("bench_test_seconds", "test")
    before = registry.snapshot(spans=0)
    values = [0.0002 * i for i in range(1, 3001)]
    for value in values:
        family.observe(value)
    after = registry.snapshot(spans=0)
    (delta,) = harness.histogram_deltas(before, after, "bench_test_seconds").values()
    assert delta.count == len(values)
    sample = registry.get("bench_test_seconds").samples()[0][1]
    assert abs(delta.percentile(50) - sample.percentile(50)) < 1e-12
    assert abs(delta.percentile(99) - sample.percentile(99)) < 1e-12
    assert delta.max_bound() == 1.0


# -- host speed and the latency metrics --------------------------------------


def test_host_speed_scales_each_part_by_its_slowdown():
    speed = harness.HostSpeed()
    speed.samples = [1.0, 3.0, 2.0]        # part 0 runs at 2x, part 1 at 2.5x
    speed.parts = [(0, 4.0, {"ops": 100}), (1, 5.0, {"ops": 100})]
    assert speed.slowdown(0) == 2.0 and speed.slowdown(1) == 2.5
    assert speed.seconds(0, 4.0) == 2.0 and speed.seconds(1, 5.0) == 2.0
    assert speed.rate("ops") == 50.0
    assert speed.raw_rate("ops") == 200 / 9.0
    assert speed.busy_rate([(0, 3, 2.0), (1, 0, 9.0), (1, 2, 2.5)]) == 5 / 2.0
    assert speed.median_slowdown() == 2.25
    lat = harness.Latencies(speed)
    lat.add("by_ip", 0.004, part=0)
    lat.add("by_ip", 0.005, part=1)
    assert lat.merged(("by_ip",)) == [0.002, 0.002]
    assert lat.raw(("by_ip",)) == [0.004, 0.005]


def test_host_speed_sample_times_every_kernel():
    speed = harness.HostSpeed()
    try:
        speed.sample()
        speed.end_part(0.5, ops=10)
    finally:
        harness.stop_echoer()
    assert len(speed.samples) == 2 and all(value > 0 for value in speed.samples)
    assert speed.parts == [(0, 0.5, {"ops": 10})]
    assert harness._ECHOER == []


def test_latency_metric_is_the_geometric_mean_of_class_medians():
    outcome = harness.Outcome()
    lat = harness.Latencies()
    for value in (0.001, 0.002, 0.003):
        lat.add("path", value)
    for value in (0.007, 0.008, 0.009):
        lat.add("impact", value)
    for name in ("fresh", "in_subnet", "by_ip"):
        lat.add(name, 0.001)
    outcome.latencies(lat)
    assert abs(outcome.e2e["topo_p50_ms"] - (2.0 * 8.0) ** 0.5) < 1e-9
    # more samples of one class do not move it
    for value in (0.001, 0.002, 0.003):
        lat.add("path", value)
    outcome.latencies(lat)
    assert abs(outcome.e2e["topo_p50_ms"] - 4.0) < 1e-9
    assert outcome.tails["tail.topo_p99_ms"][1] == "p50 of 9"


# -- span self time and residual -------------------------------------------


def _span(span_id, parent, start, end, name):
    span = Span(1, span_id, parent, name, start)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),     # overlaps a: union 1..6
        _span(4, 2, 2.0, 3.0, "a.child"),
        _span(5, 1, 9.0, 12.0, "late"),  # only 9..10 lies inside root
    ]
    selfs = harness.self_times(spans)
    assert selfs["root"] == 10.0 - 5.0 - 1.0
    assert selfs["a"] == 3.0 - 1.0
    assert selfs["b"] == 3.0
    assert selfs["a.child"] == 1.0
    assert harness.residual_share(spans) == 4.0 / 10.0


def test_residual_is_zero_without_roots():
    assert harness.residual_share([]) == 0.0
    assert harness.covered((0.0, 1.0), []) == 0.0


def test_tracer_nests_spans_into_one_trace():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("second"):
        pass
    inner, outer, second = tracer.spans
    assert (inner.name, outer.name, second.name) == ("inner", "outer", "second")
    assert inner.parent_id == outer.span_id and inner.trace_id == outer.trace_id
    assert outer.parent_id is None and second.trace_id != outer.trace_id
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        with tracer.span("y"):
            pass
    assert tracer.spans == []


# -- seeded generators are deterministic -------------------------------------


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


def _plain(item):
    if isinstance(item, Observation):
        return repr(item)
    if isinstance(item, (list, tuple)):
        return tuple(_plain(part) for part in item)
    return item


def _same(make, count=3000):
    first = [_plain(item) for item in _take(make(5), count)]
    again = [_plain(item) for item in _take(make(5), count)]
    other = [_plain(item) for item in _take(make(6), count)]
    assert first == again
    assert first != other


def test_ingest_stream_is_seeded():
    _same(generators.ingest_stream)
    stream = _take(generators.ingest_stream(1), 3000)
    new_hosts = generators.classify_stream(obs for obs, _ip in stream)["new_host"]
    probes = [ip for _obs, ip in stream if ip is not None]
    assert len(probes) == new_hosts // generators.PROBE_EVERY
    assert len(set(probes)) == len(probes)
    assert all(obs.ip == ip for obs, ip in stream if ip is not None)


# -- the ingest mix is the campaign's measured explorer stream ----------------


def test_classify_stream_sorts_each_sighting():
    def obs(ip=None, mac=None, mask=None, name=None):
        return Observation(source="t", ip=ip, mac=mac, subnet_mask=mask, dns_name=name)

    stream = [
        obs("10.0.0.1"),                       # new_host
        obs("10.0.0.1"),                       # repeat (coalescible)
        obs("10.0.0.1", mac="aa"),             # resight: first MAC, no change
        obs("10.0.0.1", mac="bb"),             # mac_change
        obs("10.0.0.1", mask="255.0.0.0"),     # mask_update
        obs("10.0.0.2", name="x"),             # new_host
        obs("10.0.0.1", mask="255.0.0.0"),     # resight: same mask again
        obs(mac="cc"),                         # no_ip
    ]
    assert generators.classify_stream(stream) == {
        "repeat": 1, "new_host": 2, "mac_change": 1, "mask_update": 1,
        "resight": 2, "no_ip": 1,
    }


def test_ingest_stream_has_the_measured_campaign_mix():
    stream = [obs for obs, _ip in _take(generators.ingest_stream(2), 20_000)]
    counts = generators.classify_stream(stream)
    for kind, share in generators.CAMPAIGN_STREAM_MIX:
        assert abs(counts[kind] / len(stream) - share) < 0.015, kind
    assert counts["mac_change"] == 0 and counts["no_ip"] == 0
    assert counts["repeat"] / len(stream) < 0.005
    with_mac = sum(1 for obs in stream if obs.mac is not None) / len(stream)
    expected = sum(dict(generators.CAMPAIGN_FIELD_MIX[kind])["mac"] * dict(generators.CAMPAIGN_STREAM_MIX)[kind]
                   for kind in ("new_host", "resight"))
    assert abs(with_mac - expected) < 0.015


def test_site_and_mixes_are_seeded():
    plan = generators.site(3, interfaces=400, subnets=8)
    assert plan == generators.site(3, interfaces=400, subnets=8)
    assert len(plan["observations"]) == 400 and len(plan["gateways"]) == 7
    subnets = plan["subnets"]
    gateways = [name for name, _ in plan["gateways"]]
    _same(lambda seed: generators.inquiry_ops(seed, subnets, 50, gateways))
    _same(lambda seed: generators.trickle_writes(seed, subnets, gateways), 500)
    _same(lambda seed: generators.fleet_ops(seed, subnets, 50, gateways), 500)
    assert generators.campaign_plan(9) == generators.campaign_plan(9)
    assert generators.campaign_plan(1) != generators.campaign_plan(2)


def test_inquiry_mix_is_exact_in_every_block_of_100():
    subnets = [f"10.100.{i}.0/24" for i in range(8)]
    ops = _take(generators.inquiry_ops(4, subnets, 50, ["gw-0"]), 1000)
    for start in range(0, 1000, 100):
        kinds = [kind for kind, _arg in ops[start:start + 100]]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            name: round(weight * 100) for name, weight in generators.INQUIRY_MIX}


# -- probe keys as the change feed reports them -------------------------------


def test_probe_key_is_the_feed_key_of_the_probe():
    journal = Journal()
    start = journal.revision
    journal.observe_interface(Observation(source="t", ip="10.200.1.2", mac="08:00:20:00:00:01"))
    journal.observe_interface(Observation(source="t", ip="10.1.2.3"))
    keys = journal.changes_since(start).keys
    assert generators.probe_key("10.200.1.2") == "ip:010.200.001.002"
    probes = {generators.probe_key("10.200.1.2"): 0.0, generators.probe_key("10.9.9.9"): 0.0}
    assert generators.probe_keys_in(keys, probes) == ["ip:010.200.001.002"]
