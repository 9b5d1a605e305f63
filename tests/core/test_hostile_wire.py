"""Hostile wire input: every op row under junk payloads, hostile
``ensure_subnet`` stats, and the removed ``save`` op.

The fuzz draws its ops from the op table in ``wire.py``, so a row added
there is fuzzed without touching this file.  Each request goes over a
real connection to a running server, which must answer it exactly once
(by request id) and keep serving the connection afterwards; write rows
sent to a standby must be refused by epoch fencing, whatever their
payload.
"""

import contextlib
import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Journal, JournalServer, LocalClient, RemoteClient, StandbyReplica
from repro.core import wire

#: request fields the handlers read, so junk lands where it hurts
FIELDS = (
    "a", "b", "by", "coalesced", "epoch", "gateway_id", "high", "interface_id_map",
    "interface_ids", "key", "kind", "low", "name", "observation", "older_than",
    "path", "quality", "record", "record_id", "requests", "since", "source",
    "spans", "stats", "subnet", "target", "ttl", "where",
)
#: strings a handler might take for meaningful input
WORDS = (
    "ip", "mac", "name", "all", "stale", "ip_range", "modified_since",
    "interfaces", "gateways", "subnets", "observe", "ping", "10.0.0.1",
    "10.0.0.0/24", "gw-a", "and",
)

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(WORDS)
)
junk = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS + WORDS), children, max_size=3),
    max_leaves=8,
)
payloads = st.dictionaries(st.sampled_from(FIELDS), junk, max_size=4)


@contextlib.contextmanager
def _server():
    server = JournalServer(Journal())
    server.start()
    try:
        yield server
    finally:
        server.stop()


def _exchange(address, request, *, timeout=10.0):
    """Send *request* (id 1) then a ping (id 2) on one fresh connection.
    Returns ``(replies to 1, ping reply)`` once the ping is answered
    and request 1 has had its reply."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            wire.encode_message(dict(request, id=1))
            + wire.encode_message({"op": "ping", "id": 2})
        )
        frames = sock.makefile("rb")
        replies, ping = [], None
        deadline = time.monotonic() + timeout
        while ping is None or not replies:
            assert time.monotonic() < deadline, "server went quiet"
            line = frames.readline()
            assert line, "server closed the connection"
            frame = json.loads(line)
            if frame.get("id") == 1:
                replies.append(frame)
            elif frame.get("id") == 2:
                ping = frame
        return replies, ping


class TestOpRowFuzz:
    def test_junk_payloads_get_one_reply_and_keep_the_connection(self):
        ops = st.sampled_from(sorted(wire.OPS)) | junk
        with _server() as server:

            @settings(
                max_examples=300,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )
            @given(op=ops, payload=payloads)
            def run(op, payload):
                replies, ping = _exchange(server.address, dict(payload, op=op))
                assert len(replies) == 1
                assert ping["ok"] is True

            run()

    def test_write_rows_to_a_standby_are_fenced(self):
        with _server() as primary:
            with StandbyReplica(primary.address, poll_interval=0.05) as standby:

                @settings(
                    max_examples=150,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow],
                )
                @given(op=st.sampled_from(sorted(wire.WRITE_OPS)), payload=payloads)
                def run(op, payload):
                    (reply,), ping = _exchange(
                        standby.address, dict(payload, op=op)
                    )
                    assert reply.get("fenced") is True, reply
                    assert ping["ok"] is True

                run()
            assert primary.journal.revision == 0


class TestHostileSubnetStats:
    HOSTILE = {"subnet": "10.9.9.0/24", "bogus": [1, 2]}

    def test_local_rejects_unknown_stats(self):
        journal = Journal()
        client = LocalClient(journal)
        with pytest.raises(ValueError, match="bogus, subnet"):
            client.ensure_subnet("10.0.0.0/24", source="x", **self.HOSTILE)
        assert journal.counts()["subnets"] == 0

    def test_remote_gets_an_error_reply(self):
        with _server() as server:
            (reply,), _ping = _exchange(
                server.address,
                {"op": "ensure_subnet", "subnet": "10.0.0.0/24", "stats": self.HOSTILE},
            )
            assert reply["ok"] is False
            assert "unknown subnet stat" in reply["error"]
            assert server.journal.counts()["subnets"] == 0
            with RemoteClient(*server.address) as client:
                with pytest.raises(RuntimeError, match="unknown subnet stat"):
                    client.ensure_subnet("10.0.0.0/24", source="x", bogus=1)
                record, created = client.ensure_subnet(
                    "10.0.0.0/24", source="x", mask="255.255.255.0", host_count=3
                )
            assert created and record.subnet == "10.0.0.0/24"
            assert record.get("host_count") == 3
            assert "bogus" not in record.attributes


class TestSaveOpRemoved:
    def test_save_is_an_unknown_op_and_writes_nothing(self, tmp_path):
        target = tmp_path / "written-by-peer.json"
        assert "save" not in wire.WIRE_OPS
        with _server() as server:
            (reply,), ping = _exchange(
                server.address, {"op": "save", "path": str(target)}
            )
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]
        assert ping["ok"] is True
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
