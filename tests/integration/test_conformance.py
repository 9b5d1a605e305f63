"""Every client method row, against every ``connect()`` shape.

``wire.METHODS`` declares the journal-client surface once: one row per
public method, naming the wire op it issues.  This suite runs a fixed
write script and then every row against each shape ``connect()`` can
return — in-process, one remote server, a two-shard ``shard://`` fleet,
a replica group (``h:p|h2:q``, primary plus :class:`StandbyReplica`),
and a fleet of replica groups — and compares each answer with a
single-journal :class:`LocalClient` oracle.  Two last runs put the
replica group's primary behind the chaos proxy and drop every proxied
connection between calls.  In the first, each call reconnects and
replays inside the :class:`RemoteClient` under the
:class:`FailoverClient` proxies the table installs; in the second
(``reconnect_attempts`` 0) every kill reaches the
:class:`FailoverClient` itself, so every row, read or write, runs
through its failover-and-retry path.

Answers are compared on record *identities* — an interface's ``(ip,
mac, dns_name)``, a gateway's name with its members and links, a
subnet's key — never on record ids, which are per-journal (global ids
on a fleet).  Gateways merge by name first: a fleet keeps a gateway
whose members span shards as same-named per-shard fragments.

A method added to the table without a probe here, or a shape missing a
row's method, fails this suite.
"""

import contextlib
import time

import pytest

from repro.core import (
    Journal,
    JournalServer,
    LocalClient,
    StandbyReplica,
    connect,
    wire,
)
from repro.core.query import FieldEquals, InSubnet
from repro.core.records import Observation
from repro.core.shard import ShardMap

from tests.chaos.proxy import ChaosProxy

SOURCE = "conformance"
NETS = ("10.1.0", "10.2.0", "10.3.0")


def _obs(net, host):
    third = int(net.split(".")[1])
    return Observation(
        source=SOURCE,
        ip=f"{net}.{host}",
        mac=f"08:00:2b:00:{third:02x}:{host:02x}",
        dns_name=f"h{host}.net{third}.example",
    )


def _id(client, ip):
    (record,) = client.interfaces_by_ip(ip)
    return record.record_id


def _gateway_id(client, name):
    return next(g.record_id for g in client.all_gateways() if g.name == name)


def write_script(client):
    """The fixed history every shape and the oracle start from."""
    for net in NETS:
        for host in range(1, 6):
            client.observe_interface(_obs(net, host))
        client.ensure_subnet(
            f"{net}.0/24", source=SOURCE, mask="255.255.255.0", host_count=5
        )
    for name, (left, right) in {
        "gw-a": ("10.1.0", "10.2.0"),
        "gw-c": ("10.2.0", "10.3.0"),
    }.items():
        members = [_id(client, f"{left}.1"), _id(client, f"{right}.2")]
        gateway, _ = client.ensure_gateway(
            source=SOURCE, name=name, interface_ids=members
        )
        for net in (left, right):
            client.link_gateway_subnet(
                gateway.record_id, f"{net}.0/24", source=SOURCE
            )
    client.observe_batch([_obs("10.3.0", host) for host in (10, 11, 12)])
    client.negative_put("ip", "10.9.9.9", ttl=1e6)
    client.flush()


# ----------------------------------------------------------------------
# identity normalisers
# ----------------------------------------------------------------------


def _identity(record):
    return (record.ip, record.mac, record.dns_name)


def interfaces(records):
    return sorted(_identity(record) for record in records)


def gateways(client, records):
    """``{name: (member identities, linked subnets)}``, fragments merged."""
    members_of = {r.record_id: _identity(r) for r in client.all_interfaces()}
    merged = {}
    for gateway in records:
        members, links = merged.setdefault(gateway.name, (set(), set()))
        members.update(members_of[i] for i in gateway.interface_ids if i in members_of)
        links.update(gateway.connected_subnets)
    return {name: (sorted(m), sorted(l)) for name, (m, l) in merged.items()}


def subnets(client, records):
    names = {g.record_id: g.name for g in client.all_gateways()}
    return sorted(
        (
            record.subnet,
            record.get("mask"),
            sorted({names.get(g) for g in record.gateway_ids}),
        )
        for record in records
    )


def _applied(result):
    record, changed = result
    return _identity(record), changed


def _named(result):
    record, changed = result
    return record.name, changed


def _foreign_interface(net, host):
    return Journal().observe_interface(_obs(net, host))[0]


def _absorb_gateway(absorb, client):
    foreign = Journal()
    members = [foreign.observe_interface(_obs(*m))[0] for m in (("10.2.0", 40), ("10.2.0", 1))]
    gateway, _ = foreign.ensure_gateway(
        source=SOURCE, name="gw-f", interface_ids=[m.record_id for m in members]
    )
    id_map = {m.record_id: _id(client, m.ip) for m in members}
    return _named(absorb(gateway, id_map))


def _absorb_subnet(absorb, client):
    record, _ = Journal().ensure_subnet(
        "10.5.0.0/24", source=SOURCE, mask="255.255.255.0"
    )
    record, changed = absorb(record)
    return record.subnet, changed


def _path(path, client):
    data = path("10.1.0.0/24", "10.3.0.0/24").to_dict()
    # hop evidence names the gateway; its numeric id is journal-local
    data["hops"] = [
        {k: v for k, v in hop.items() if k != "gateway"} for hop in data["hops"]
    ]
    return data


def _changes(changes_since, client):
    delta = changes_since(0)
    # gateway ids are left out: a fleet counts each fragment
    return (
        len(delta.interfaces),
        len(delta.deleted_interfaces),
        len(delta.subnets),
        delta.complete,
    )


def _feed_sees_write(subscribe, client):
    """A write made after subscribing arrives on the feed."""
    feed = subscribe(since=0)
    try:
        client.observe_interface(_obs("10.2.0", 50))
        wanted = _id(client, "10.2.0.50")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            delta = feed.poll(0.2)
            if delta is not None and wanted in delta.interfaces:
                return True
        return False
    finally:
        feed.close()


def _replica_info(replica_info, client):
    info = replica_info()
    return info is None or info["role"] in wire.REPLICA_ROLES


def _revision(revision, client):
    value = revision()
    return isinstance(value, int) and value > 0


#: method row -> probe(bound method, client) -> shape-independent answer.
#: Write probes run first (table order), so the reads see their effects.
PROBES = {
    "observe_interface": lambda m, c: _applied(m(_obs("10.1.0", 20))),
    "submit": lambda m, c: _applied(m(_obs("10.1.0", 21))),
    "resolve": lambda m, c: _applied(m(_obs("10.1.0", 20))),
    "observe_batch": lambda m, c: m(
        [_obs("10.3.0", 30), _obs("10.3.0", 31), _obs("10.1.0", 1)]
    ),
    "flush": lambda m, c: (m(), None)[1],  # return types are per-shape
    "ensure_gateway": lambda m, c: _named(
        m(
            source=SOURCE,
            name="gw-d",
            interface_ids=[_id(c, "10.3.0.30"), _id(c, "10.3.0.31")],
        )
    ),
    "rename_gateway": lambda m, c: m(_gateway_id(c, "gw-d"), "gw-e", source=SOURCE),
    "link_gateway_subnet": lambda m, c: m(
        _gateway_id(c, "gw-e"), "10.1.0.0/24", source=SOURCE
    ),
    "ensure_subnet": lambda m, c: (
        lambda record, changed: (record.subnet, record.get("host_count"), changed)
    )(*m("10.4.0.0/24", source=SOURCE, mask="255.255.255.0", host_count=0)),
    "delete_interface": lambda m, c: m(_id(c, "10.1.0.4")),
    "absorb_interface": lambda m, c: _applied(m(_foreign_interface("10.2.0", 40))),
    "absorb_gateway": _absorb_gateway,
    "absorb_subnet": _absorb_subnet,
    "negative_put": lambda m, c: m("ip", "10.9.9.8", ttl=1e6),
    "interfaces_by_ip": lambda m, c: interfaces(m("10.1.0.2")),
    "interfaces_by_mac": lambda m, c: interfaces(m(_obs("10.2.0", 3).mac)),
    "interfaces_by_name": lambda m, c: interfaces(m(_obs("10.3.0", 2).dns_name)),
    "interfaces_in_ip_range": lambda m, c: interfaces(m("10.1.0.0", "10.2.0.255")),
    "all_interfaces": lambda m, c: interfaces(m()),
    "stale_interfaces": lambda m, c: interfaces(m(older_than=1e12)),
    "interfaces_modified_since": lambda m, c: interfaces(m(0.0)),
    "all_gateways": lambda m, c: gateways(c, m()),
    "gateways_modified_since": lambda m, c: gateways(c, m(0.0)),
    "all_subnets": lambda m, c: subnets(c, m()),
    "subnets_modified_since": lambda m, c: subnets(c, m(0.0)),
    "query": lambda m, c: (
        interfaces(m("interfaces", InSubnet("10.2.0.0/24"))),
        gateways(c, m("gateways", FieldEquals("name", "gw-a"))),
        subnets(c, m("subnets")),
    ),
    "path": _path,
    "impact": lambda m, c: m("gw-a").to_dict(),
    # gateway totals count fragments on a fleet; records do not split
    "counts": lambda m, c: {k: v for k, v in m().items() if k in ("interfaces", "subnets")},
    "revision": _revision,
    "metrics": lambda m, c: isinstance(m(spans=0), dict),
    "negative_check": lambda m, c: [
        m("ip", ip) for ip in ("10.9.9.9", "10.9.9.8", "10.9.9.7")
    ],
    "changes_since": _changes,
    "snapshot": lambda m, c: m().identity_state(),
    "shard_info": lambda m, c: m(),
    "replica_info": _replica_info,
    "subscribe": _feed_sees_write,
}


# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------


def _address(address):
    host, port = address
    return f"{host}:{port}"


def _server(stack, shard=None):
    server = JournalServer(Journal())
    if shard is not None:
        server.dispatcher.shard_identity = ShardMap(2).identity(shard)
    server.start()
    stack.callback(server.stop)
    return server


def _replica_group(stack, shard=None, chaos=None):
    """``primary|standby`` for one shard; with *chaos* (a list), the
    primary sits behind a ChaosProxy appended to it."""
    primary = _server(stack, shard)
    standby = StandbyReplica(primary.address, poll_interval=0.05)
    if shard is not None:
        standby.server.dispatcher.shard_identity = ShardMap(2).identity(shard)
    standby.start()
    stack.callback(standby.stop)
    front = primary.address
    if chaos is not None:
        proxy = ChaosProxy(primary.address).start()
        stack.callback(proxy.stop)
        chaos.append(proxy)
        front = proxy.address
    return f"{_address(front)}|{_address(standby.address)}"


def build_shape(shape, stack):
    """``(client, between_calls)`` for *shape*."""
    chaos = []
    if shape == "local":
        spec = Journal()
    elif shape == "remote":
        spec = _address(_server(stack).address)
    elif shape == "shard":
        spec = "shard://" + ",".join(
            _address(_server(stack, index).address) for index in range(2)
        )
    elif shape == "replica":
        spec = _replica_group(stack)
    elif shape == "shard-of-replicas":
        spec = "shard://" + ",".join(_replica_group(stack, index) for index in range(2))
    elif shape in ("replica-chaos", "replica-chaos-noretry"):
        spec = _replica_group(stack, chaos=chaos)
    else:
        raise ValueError(shape)
    noretry = shape == "replica-chaos-noretry"
    client = connect(spec, retry={"reconnect_attempts": 0} if noretry else None)
    stack.callback(client.close)

    def between_calls():
        for proxy in chaos:
            proxy.kill_connections()

    return client, between_calls


SHAPES = (
    "local",
    "remote",
    "shard",
    "replica",
    "shard-of-replicas",
    "replica-chaos",
    "replica-chaos-noretry",
)


class TestOpTable:
    def test_every_method_row_has_a_probe(self):
        assert list(PROBES) == list(wire.METHODS)

    def test_method_rows_name_known_ops(self):
        assert set(wire.METHODS.values()) <= wire.WIRE_OPS

    def test_derived_op_sets(self):
        kinds = {op: row.kind for op, row in wire.OPS.items()}
        assert set(kinds.values()) == {"read", "write", "control", "stream"}
        assert wire.READ_OPS.isdisjoint(wire.WRITE_OPS)
        assert {"promote", "fence", "subscribe"}.isdisjoint(
            wire.READ_OPS | wire.WRITE_OPS
        )
        assert wire.INLINE_OPS <= wire.READ_OPS | wire.WRITE_OPS
        assert wire.WIRE_OPS == set(wire.OPS)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_method_row_matches_the_oracle(shape):
    with contextlib.ExitStack() as stack:
        client, between_calls = build_shape(shape, stack)
        oracle = LocalClient(Journal())
        write_script(oracle)
        write_script(client)
        mismatches = {}
        for name, probe in PROBES.items():
            between_calls()
            expected = probe(getattr(oracle, name), oracle)
            method = getattr(client, name, None)
            if method is None:
                mismatches[name] = "missing"
                continue
            answer = probe(method, client)
            if answer != expected:
                mismatches[name] = (answer, expected)
        assert mismatches == {}
