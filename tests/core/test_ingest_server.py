"""Server-side ingest pipeline: the read/write lock, the batch op,
the changes_since/subscribe wire ops, and connection reaping."""

import threading
import time

import pytest

from repro.core import (
    BatchingSink,
    FailoverClient,
    Journal,
    JournalServer,
    LocalClient,
    ReadWriteLock,
    RemoteClient,
    StandbyReplica,
)
from repro.core import wire
from repro.core.records import Observation


def _obs(**fields):
    fields.setdefault("source", "test")
    return Observation(**fields)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def served():
    journal = Journal()
    server = JournalServer(journal)
    server.start()
    host, port = server.address
    client = RemoteClient(host, port)
    yield journal, server, client
    client.close()
    server.stop()


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        entered = threading.Event()

        def second_reader():
            with lock.read_locked():
                entered.set()

        threading.Thread(target=second_reader, daemon=True).start()
        assert entered.wait(2.0), "second reader blocked behind the first"
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        progressed = threading.Event()

        def reader():
            with lock.read_locked():
                progressed.set()

        threading.Thread(target=reader, daemon=True).start()
        assert not progressed.wait(0.2)
        lock.release_write()
        assert progressed.wait(2.0)

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        order = []

        def writer():
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            with lock.read_locked():
                order.append("reader")

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        _wait_for(lambda: lock._writers_waiting == 1)
        reader_thread = threading.Thread(target=late_reader, daemon=True)
        reader_thread.start()
        time.sleep(0.1)
        lock.release_read()
        writer_thread.join(2.0)
        reader_thread.join(2.0)
        assert order == ["writer", "reader"]


class TestServerLockModes:
    def test_readers_overlap_while_rw(self, served):
        journal, server, client = served
        for index in range(20):
            client.submit(_obs(ip=f"10.0.0.{index + 1}"))
        host, port = server.address
        errors = []

        def dumper():
            try:
                with RemoteClient(host, port) as mine:
                    for _ in range(5):
                        assert len(mine.all_interfaces()) == 20
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=dumper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestBatchIngest:
    def test_observe_batch_one_round_trip(self, served):
        journal, server, client = served
        flags = client.observe_batch(
            [_obs(ip="10.0.0.1"), _obs(ip="10.0.0.2"), _obs(ip="10.0.0.1")],
            coalesced=4,
        )
        assert flags == [True, True, False]
        counts = journal.counts()
        assert counts["interfaces"] == 2
        assert counts["batches_flushed"] == 1
        assert counts["observations_coalesced"] == 4
        assert counts["observations_submitted"] == 7  # 3 applied + 4 merged

    def test_batching_sink_over_remote(self, served):
        journal, server, client = served
        sink = BatchingSink(client, max_batch=50)
        for _ in range(5):
            sink.submit(_obs(ip="10.0.0.1", mac="aa:00:00:00:00:01"))
        sink.submit(_obs(ip="10.0.0.2"))
        requests_before = server.requests_served
        sink.flush()
        assert server.requests_served == requests_before + 1
        counts = journal.counts()
        assert counts["interfaces"] == 2
        assert counts["observations_submitted"] == 6
        assert counts["observations_coalesced"] == 4
        assert sink.take_changes() == 2

    def test_resolve_through_remote_sink_returns_canonical_id(self, served):
        journal, server, client = served
        sink = BatchingSink(client, max_batch=50)
        sink.submit(_obs(ip="10.0.0.1"))
        record, changed = sink.resolve(_obs(ip="10.0.0.1", dns_name="h.test"))
        assert changed is True
        assert record.record_id in journal.interfaces
        assert journal.counts()["interfaces"] == 1


def _flag_stream():
    """Sightings whose changed flags mix True and False: first sightings,
    exact repeats, and repeats that add a DNS name."""
    stream = []
    for index in range(12):
        ip = f"10.0.{index % 3}.{index + 1}"
        mac = f"08:00:20:00:00:{index:02x}"
        stream.append(_obs(ip=ip, mac=mac))
        stream.append(_obs(ip=ip, mac=mac))
        if index % 4 == 0:
            stream.append(_obs(ip=ip, dns_name=f"h{index}.test"))
    return stream


def _local_flags(observations):
    """Changed flags from an in-process journal: the reference every
    remote batch path must reproduce."""
    return LocalClient(Journal()).observe_batch(observations)


class TestBatchReplyContract:
    """``observe`` items in an ``observe_batch`` reply carry the changed
    flag only; every other item answers exactly as it would alone."""

    def _observe_request(self, ip):
        return {"op": "observe", "observation": wire.observation_to_dict(_obs(ip=ip))}

    def test_observe_items_carry_only_the_flag(self, served):
        journal, server, client = served
        response = client._call(
            wire.batch_request(
                [self._observe_request("10.0.0.1"), self._observe_request("10.0.0.1")]
            )
        )
        assert response["responses"] == [
            {"ok": True, "changed": True},
            {"ok": True, "changed": False},
        ]

    def test_single_observe_still_returns_the_record(self, served):
        journal, server, client = served
        response = client._call(self._observe_request("10.0.0.1"))
        assert set(response) - {"id"} == {"ok", "changed", "record"}
        record = wire.interface_from_dict(response["record"])
        assert record.record_id in journal.interfaces

    def test_other_items_and_errors_reply_as_before(self, served):
        journal, server, client = served
        negative = {"op": "negative_put", "kind": "dns", "key": "x.test", "ttl": 60.0}
        response = client._call(
            wire.batch_request(
                [
                    self._observe_request("10.0.0.1"),
                    {"op": "counts"},
                    negative,
                    {"op": "observe", "observation": {"source": "t", "ip": 7}},
                    {"op": "no-such-op"},
                    "not-a-request",
                    {"op": "observe_batch", "requests": []},
                ]
            )
        )
        items = response["responses"]
        assert items[0] == {"ok": True, "changed": True}
        alone = client._call({"op": "counts"})
        assert set(items[1]) == {"ok", "counts"}
        assert set(items[1]["counts"]) == set(alone["counts"])
        assert items[1]["counts"]["interfaces"] == 1
        assert items[2] == {"ok": True}
        assert set(client._call(negative)) - {"id"} == {"ok"}
        assert items[3]["ok"] is False and items[3]["error"]
        assert items[4] == {"ok": False, "error": "unknown op: 'no-such-op'"}
        assert items[5] == {"ok": False, "error": "unknown op: None"}
        assert items[6] == {"ok": False, "error": "unknown op: 'observe_batch'"}
        assert journal.negative_check("dns", "x.test")

    def test_remote_batch_flags_match_local(self, served):
        journal, server, client = served
        stream = _flag_stream()
        assert client.observe_batch(stream) == _local_flags(stream)

    def test_pipelined_batch_flags_match_local(self, served):
        journal, server, client = served
        stream = _flag_stream()
        reply = client.observe_batch_nowait(stream).wait()
        assert [item["changed"] for item in reply["responses"]] == _local_flags(stream)

    def test_batching_sink_counts_the_same_changes(self, served):
        journal, server, client = served
        stream = _flag_stream()

        def changes(target, pipeline_depth):
            sink = BatchingSink(target, max_batch=5, pipeline_depth=pipeline_depth)
            for observation in stream:
                sink.submit(observation)
            sink.flush()
            sink.settle()
            return sink.take_changes()

        expected = changes(LocalClient(Journal()), 1)
        assert changes(client, 1) == expected
        other_server = JournalServer(Journal()).start()
        try:
            with RemoteClient(*other_server.address) as pipelined:
                assert changes(pipelined, 4) == expected
        finally:
            other_server.stop()

    def test_failover_client_batch_flags_match_local(self, served):
        journal, server, client = served
        stream = _flag_stream()
        with StandbyReplica(server.address, poll_interval=0.05) as standby:
            failover = FailoverClient([server.address, standby.address])
            try:
                assert failover.observe_batch(stream) == _local_flags(stream)
            finally:
                failover.close()


class TestChangesSinceOp:
    def test_remote_polling_fallback(self, served):
        journal, server, client = served
        base = client.revision()
        record, _ = client.submit(_obs(ip="10.0.0.1"))
        changes = client.changes_since(base)
        assert changes.complete is True
        assert record.record_id in changes.interfaces
        assert client.changes_since(changes.revision).empty()

    def test_missing_since_is_an_error(self, served):
        journal, server, client = served
        with pytest.raises(RuntimeError):
            client._call({"op": "changes_since"})


class TestSubscribeStream:
    def test_writes_push_frames_to_subscriber(self, served):
        journal, server, client = served
        with client.subscribe(since=journal.revision) as feed:
            record, _ = client.submit(_obs(ip="10.0.0.1"))
            changes = feed.poll(timeout=5.0)
            assert changes is not None
            assert record.record_id in changes.interfaces
            assert feed.revision == changes.revision
            # Quiet journal: poll times out without a frame.
            assert feed.poll(timeout=0.1) is None

    def test_backlog_delivered_after_handshake(self, served):
        journal, server, client = served
        record, _ = client.submit(_obs(ip="10.0.0.1"))
        with client.subscribe(since=0) as feed:
            changes = feed.poll(timeout=5.0)
            assert changes is not None
            assert record.record_id in changes.interfaces

    def test_drain_collapses_a_burst(self, served):
        journal, server, client = served
        with client.subscribe(since=journal.revision) as feed:
            for index in range(5):
                client.submit(_obs(ip=f"10.0.0.{index + 1}"))
            merged = feed.drain(timeout=5.0)
            total = set(merged.interfaces)
            # Frames may still be in flight; keep draining until the
            # stream is quiet.
            while True:
                more = feed.drain(timeout=0.3)
                if more is None:
                    break
                total |= more.interfaces
            assert len(total) == 5

    def test_dead_subscriber_does_not_wedge_writes(self, served):
        journal, server, client = served
        feed = client.subscribe(since=journal.revision)
        feed.close()
        for index in range(3):
            client.submit(_obs(ip=f"10.0.1.{index + 1}"))
        assert journal.counts()["interfaces"] == 3
        assert _wait_for(lambda: journal.feed_subscribers == 0)


class TestConnectionReaping:
    def test_stop_reaps_everything_async(self):
        journal = Journal()
        server = JournalServer(journal)
        server.start()
        host, port = server.address
        with RemoteClient(host, port) as client:
            client.submit(_obs(ip="10.0.0.1"))
        server.stop()
        assert server.live_connections == 0
