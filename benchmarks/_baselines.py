"""Measured baselines that the Journal Server no longer ships.

Two perf benchmarks compare the server against designs it replaced:

* :class:`ThreadedJournalServer` — the thread-per-connection transport
  with strict request/response, the baseline of
  ``bench_perf_fanin.py``.  It dispatches through the same
  :class:`~repro.core.server.JournalDispatcher` as the asyncio server
  and keeps the ``subscribe`` push, because the fan-in workload drives
  feed subscribers on both sides.  It has no checkpoint watchdog and
  no persistence on stop: the benchmark never uses either.
* :class:`ExclusiveLock` — a single mutex in place of the read/write
  lock, the baseline of ``bench_perf_ingest.py``'s read-latency run,
  which installs it as ``server.dispatcher.rwlock`` before ``start()``.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional, Tuple

from repro.core import Journal, JournalDispatcher, wire
from repro.core.locks import ReadWriteLock

__all__ = ["ExclusiveLock", "ThreadedJournalServer"]


class ExclusiveLock(ReadWriteLock):
    """Every request serialises: the read side takes the write side."""

    def acquire_read(self) -> None:
        self.acquire_write()

    def release_read(self) -> None:
        self.release_write()

    def try_acquire_read(self) -> bool:
        return self.try_acquire_write()


class ThreadedJournalServer:
    """One thread per connection; nothing runs concurrently on a
    connection (request ids are echoed, never pipelined)."""

    def __init__(self, journal: Journal) -> None:
        self.dispatcher = JournalDispatcher(journal)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._conn_lock = threading.Lock()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    @property
    def requests_served(self) -> int:
        return self.dispatcher.requests_served

    def start(self) -> "ThreadedJournalServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="threaded-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        self._listener.close()
        # Sever live connections, or their threads would keep serving.
        with self._conn_lock:
            connections, threads = list(self._connections), list(self._threads)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        for thread in threads:
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while self._running:
            try:
                connection, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="threaded-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._connections.append(connection)
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        # Feed pushes arrive from other connections' threads, so every
        # send on this socket shares one lock with them.
        send_lock = threading.Lock()
        subscription = None

        def send(frame: bytes) -> None:
            with send_lock:
                connection.sendall(frame)

        def send_quietly(frame: bytes) -> None:
            # Feed pushes and the subscribe ack run under the write lock:
            # a dead peer must not fail the publishing writer.  This
            # thread sees EOF next and unsubscribes.
            try:
                send(frame)
            except OSError:
                pass

        def push(changes) -> None:
            send_quietly(self.dispatcher.encoded_changes_frame(changes))

        try:
            with connection:
                for line in connection.makefile("rb"):
                    if not line.strip():
                        continue
                    rid = None
                    try:
                        request = wire.decode_message(line)
                        rid = request.get("id")
                        if request.get("op") == "subscribe" and subscription is None:
                            # The ack goes out under the write lock, ahead
                            # of the backlog and of any later write's push.
                            ack = {"ok": True} if rid is None else {"ok": True, "id": rid}
                            subscription = self.dispatcher.subscribe(
                                push,
                                since=int(request.get("since", 0)),
                                on_registered=lambda revision: send_quietly(
                                    wire.encode_message({**ack, "revision": revision})
                                ),
                            )
                            continue
                        response = self.dispatcher.dispatch(request)
                    except wire.WireError as error:
                        response = {"ok": False, "error": str(error)}
                    except Exception as error:  # keep serving
                        response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                    if rid is not None:
                        response["id"] = rid
                    send(wire.encode_message(response))
        except OSError:
            pass  # client hung up mid-request; nothing left to answer
        finally:
            if subscription is not None:
                self.dispatcher.unsubscribe(subscription)
