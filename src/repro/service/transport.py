"""The socket tier, written once: the line daemon and the dialer it meets.

Both wire protocols — the query service's JSON lines
(:mod:`repro.service.protocol`) and the shard workers' lines + blobs
(:mod:`repro.distributed.protocol`) — are a TCP listener that greets
every connection with a ``hello`` line and then answers messages until
EOF.  :class:`LineDaemon` is that listener, with the codec as its one
point of variation; :class:`~repro.service.server.QueryServer` and
:class:`~repro.distributed.worker.ShardWorker` subclass it and supply
only what a message *means*.  :func:`dial` is the other end — connect,
read the hello, check who answered — under the service client, the shard
coordinator and :func:`acknowledged`, the one-shot exchange behind the
worker's announcer and ``stop_worker``.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
import time
from typing import Any, BinaryIO, Callable, ContextManager, Self

from repro.service import protocol
from repro.service.protocol import ProtocolError

__all__ = ["LineDaemon", "acknowledged", "dial", "wait_until_serving"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: hello, then read and answer messages until EOF."""

    server: "_TCPServer"
    #: TCP_NODELAY: both protocols answer small writes with small writes
    #: (a push line then the reply, a batch of task results), and with
    #: Nagle on the second write waits out the peer's delayed ACK —
    #: ~40 ms an ingest or a batch.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        daemon = self.server.daemon
        codec = daemon.codec
        # Responses and lines pushed by other threads share the
        # connection; the lock keeps their framing from interleaving.
        write_lock = threading.Lock()

        def send(message: dict) -> None:
            with write_lock:
                codec.write_message(self.wfile, message)

        try:
            send(daemon._hello())
        except OSError:
            # e.g. a readiness probe that connected and hung up.
            return
        with daemon._connection(send, self.connection) as answer:
            while True:
                try:
                    message = codec.read_message(self.rfile)
                except (ProtocolError, OSError) as exc:
                    # The stream position is lost: say why where a line
                    # can still be written, and hang up.
                    try:
                        send(codec.error_response(None, str(exc)))
                    except OSError:
                        pass
                    return
                if message is None:
                    return
                if not message:  # blank keep-alive line
                    continue
                response = answer(message)
                if response is None:
                    continue
                try:
                    send(response)
                except OSError:
                    return
                if response.get("kind") == "bye":
                    daemon._request_shutdown()
                    return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    daemon: "LineDaemon"


class LineDaemon:
    """A TCP listener speaking one of the line protocols.

    The socket is bound at construction (``port=0`` binds an ephemeral
    port; read the actual one from :attr:`address`).  Use :meth:`start`
    for a background daemon (tests, notebooks) or :meth:`serve_forever`
    to block (the CLI); either way :meth:`close` — or a peer's
    ``shutdown`` op — stops the accept loop and tears the daemon down.

    A subclass names its :attr:`codec`, says :meth:`_hello`, answers
    messages through :meth:`_connection`, and extends :meth:`_launch` /
    :meth:`_teardown` with what it owns besides the listener.
    """

    #: The wire codec: a module with ``read_message``, ``write_message``
    #: and ``error_response``.
    codec: Any = protocol

    def __init__(self, host: str, port: int, *, name: str):
        self._tcp = _TCPServer((host, int(port)), _Handler)
        self._tcp.daemon = self
        #: The serve thread of :meth:`start` (never started under
        #: :meth:`serve_forever`, which serves on its caller's).
        self._thread = threading.Thread(
            target=self._accept, name=name, daemon=True
        )
        self._closed = False
        #: True once a serve loop was launched; close() must only call
        #: _tcp.shutdown() then — shutdown() waits on an event that only
        #: serve_forever() sets, so it would hang for a never-started
        #: daemon (e.g. Session.serve(start=False) closed unused).
        self._serving = False
        # close() can race: the shutdown op runs it on a daemon thread
        # while the owning `with daemon:` exits.  Serialize the whole
        # teardown so the loser blocks until the winner has fully closed.
        self._close_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        return self._tcp.server_address[:2]

    def start(self) -> Self:
        """Serve on a daemon thread; returns immediately."""
        if self._thread.ident is None:
            self._launch()
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving peers until :meth:`close` or a shutdown op."""
        self._launch()
        self._accept()

    def _launch(self) -> None:
        """A serve loop is about to start."""
        self._serving = True

    def _accept(self) -> None:
        # close() waits out one poll of the loop's shutdown flag, and at
        # socketserver's default 0.5 s that wait was most of the wall
        # time of every test that closes a daemon.
        self._tcp.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Stop accepting, release the socket, tear the daemon down.

        Idempotent and thread-safe: concurrent callers (the ``shutdown``
        op's daemon thread vs. the owner's context exit) serialize, and
        every caller returns only once the teardown has fully finished.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._teardown()

    def _teardown(self) -> None:
        """Stop the listener (under the close lock, exactly once)."""
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread.ident is not None:
            self._thread.join()

    def _request_shutdown(self) -> None:
        """Shutdown initiated from a handler thread (the ``shutdown`` op)."""
        threading.Thread(target=self.close, daemon=True).start()

    def __enter__(self) -> Self:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _hello(self) -> dict[str, Any]:
        """The greeting: ``kind: "hello"``, ``version``, maybe ``role``."""
        raise NotImplementedError

    def _connection(
        self, send: Callable[[dict], None], sock: socket.socket
    ) -> "ContextManager[Callable[[dict], dict | None]]":
        """Per-connection state, as a context manager around its life.

        Entered after the hello went out, it yields ``answer(message)``:
        the response to send now, or ``None`` when the answer follows
        later through ``send`` (which any thread may call).  A response
        of kind ``bye`` shuts the daemon down.
        """
        raise NotImplementedError


def dial(
    address: tuple[str, int],
    *,
    timeout: float | None,
    role: str | None,
    version: int | None,
) -> tuple[socket.socket, BinaryIO, BinaryIO, dict[str, Any]]:
    """Connect to a line daemon and check its hello.

    Returns ``(sock, rfile, wfile, hello)``.  ``role`` is what the hello
    must say it is (``None`` for a query server, whose hello carries no
    role) and ``version`` the protocol version it must speak (``None``
    accepts any).  ``timeout`` bounds the connect and stays on the
    socket.  A failed connect is an ``OSError``; whatever else answered
    is a :class:`ProtocolError` that names it; either way nothing is
    left open.
    """
    host, port = address
    name = f"{host}:{port}"
    peer, dialer = (
        ("query server", "client") if role is None
        else (role.replace("-", " "), "coordinator")
    )
    with contextlib.ExitStack() as opened:
        sock = opened.enter_context(
            socket.create_connection(address, timeout=timeout)
        )
        # Nagle off on this end too: see _Handler.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = opened.enter_context(sock.makefile("rb"))
        wfile = opened.enter_context(sock.makefile("wb"))
        try:
            hello = protocol.read_message(rfile)
        except ProtocolError:
            hello = None  # something answered, but not a protocol line
        if not hello or hello.get("kind") != "hello":
            raise ProtocolError(
                f"no protocol hello from {name}; is that a repro {peer}?"
            )
        if hello.get("role") != role:
            raise ProtocolError(
                f"{name} is a {hello.get('role', 'unknown')!r} endpoint, "
                f"not a {peer}"
            )
        if version is not None and hello.get("version") != version:
            raise ProtocolError(
                f"protocol version mismatch at {name}: {peer.split()[-1]} "
                f"speaks {hello.get('version')}, {dialer} {version}"
            )
        opened.pop_all()
    return sock, rfile, wfile, hello


def acknowledged(
    address: tuple[str, int], message: dict[str, Any], **expected: Any
) -> bool:
    """Dial, send one plain message, read one reply, hang up: was it ``ok``?

    ``expected`` is :func:`dial`'s ``timeout`` / ``role`` / ``version``.
    False when nothing answered, when what answered is not the daemon
    expected (or said garbage), and when the reply was an error.
    """
    try:
        sock, rfile, wfile, _ = dial(address, **expected)
        with sock, rfile, wfile:
            protocol.write_message(wfile, message)
            reply = protocol.read_message(rfile)
    except (OSError, ProtocolError):
        return False
    return bool(reply and reply.get("ok"))


def wait_until_serving(
    address: tuple[str, int], timeout: float = 10.0
) -> None:
    """Block until something accepts connections at ``address`` (or raise).

    Convenience for scripts that background ``repro serve`` or ``repro
    worker`` and need a readiness gate sturdier than sleeping.
    """
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(address, timeout=1.0):
                return
        except OSError as exc:
            last_error = exc
            time.sleep(0.05)
    raise TimeoutError(
        f"nothing answering at {address} after {timeout}s: {last_error}"
    )
