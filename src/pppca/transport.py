"""Message delivery between protocol roles.

Two interchangeable transports expose the same endpoint surface:

* :class:`SimulatedNetwork` delivers frames in process, deterministically.
* :class:`TcpNetwork` runs the identical frames over length-prefixed TCP,
  one connection per ordered (sender, receiver) channel.

Neither knows the frame layout: both read frames through
:func:`pppca.messages.read_frame`, so a bad frame reads the same on both.
Both build one endpoint per party of the list they are given, and
log every delivered message into a shared :class:`Transcript` at the moment
the receiving role consumes it, so a transcript records exactly what each
party saw, in a canonical order that is identical across transports.

``timeout`` bounds each receive, and each attempt to reach a TCP peer.
``None`` means no bound: a receive blocks until a frame arrives or the
network is aborted, and a TCP endpoint makes one blocking connect attempt,
for peers whose listeners already exist.  That suits sessions whose roles
all run in one process, which watch for stalls themselves.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from collections import defaultdict, deque

from .errors import FrameFormatError, TransportClosed, TransportTimeout
from .messages import (
    ProtocolMessage,
    Transcript,
    frame_header,
    read_frame,
)

DEFAULT_TIMEOUT = 30.0
CONNECT_RETRY = 0.05  # seconds between attempts to reach a peer not yet listening
LOOPBACK = "127.0.0.1"  # where TcpNetwork's endpoints listen


class _BufferedReceiver:
    """One FIFO of frames per sender, all under one condition.

    Each frame goes into its sender's FIFO, and ``recv(sender)`` takes the
    next one from that FIFO only, so frames from other senders wait in
    theirs.  Frames buffered before a sender's channel ends, or before the
    whole receiver closes (an abort, a malformed frame or a frame cut
    short), still arrive; after them ``recv`` raises ``TransportClosed``
    every time, with the first reason given: the channel's own if it ended
    first, so that other senders are unaffected, or else the close's.  A
    closed receiver takes in no more frames.
    """

    def __init__(self, party: int, transcript: Transcript, timeout: float | None):
        self.party = party
        self.transcript = transcript
        self.timeout = timeout
        self._frames: dict[int, deque] = defaultdict(deque)
        self._ended: dict[int, str] = {}  # sender -> why its channel ended
        self._closed: str | None = None
        self._ready = threading.Condition()

    def _push(self, msg: ProtocolMessage):
        with self._ready:
            if self._closed is None:
                self._frames[msg.sender].append(msg)
                self._ready.notify_all()

    def _end(self, sender: int, reason: str):
        with self._ready:
            if self._closed is None:
                self._ended.setdefault(sender, reason)
                self._ready.notify_all()

    def _close(self, reason: str):
        with self._ready:
            if self._closed is None:
                self._closed = reason
                self._ready.notify_all()

    def recv(self, sender: int) -> ProtocolMessage:
        with self._ready:
            frames = self._frames[sender]
            if not self._ready.wait_for(
                lambda: frames or sender in self._ended or self._closed is not None,
                self.timeout,
            ):
                raise TransportTimeout(f"no message from party {sender} within {self.timeout:g}s")
            if not frames:
                raise TransportClosed(self._ended.get(sender, self._closed))
            msg = frames.popleft()
        self.transcript.append(msg)
        return msg


class _Network:
    """The endpoints of a fixed party list, which share one transcript."""

    endpoints: dict

    def endpoint(self, party: int):
        return self.endpoints[party]

    def abort(self, reason: str):
        """Fail every receive of every endpoint, now and later."""
        for ep in self.endpoints.values():
            ep._close(reason)

    def leave(self, party: int, reason: str):
        """End every channel from ``party``, as its process ending would:
        receives from it fail with ``reason`` once its frames are taken, and
        frames from other senders still arrive."""
        opened = self.endpoints[party]._shut_channels()
        for receiver, ep in self.endpoints.items():
            if receiver not in opened:
                ep._end(party, reason)

    def close(self):
        pass


class SimEndpoint(_BufferedReceiver):
    def __init__(self, network: "SimulatedNetwork", party: int, timeout: float | None):
        super().__init__(party, network.transcript, timeout)
        self._network = network

    def send(self, msg: ProtocolMessage):
        # Read the frame's header and payload through the wire format, as TCP
        # carries and reads them, without joining them.  The payload arrives
        # as bytes, copied only if it is not bytes already.
        parts = iter((frame_header(msg), bytes(msg.payload)))
        self._network.deliver(read_frame(lambda count: next(parts)))

    def _shut_channels(self) -> set[int]:
        return set()  # every frame sent was delivered at once


class SimulatedNetwork(_Network):
    """Deterministic in-process bus: send delivers immediately, in order."""

    def __init__(self, parties: list[int], timeout: float | None = DEFAULT_TIMEOUT):
        self.transcript = Transcript()
        self.endpoints = {party: SimEndpoint(self, party, timeout) for party in parties}

    def deliver(self, msg: ProtocolMessage):
        target = self.endpoints.get(msg.receiver)
        if target is None:
            raise TransportClosed(f"no endpoint for party {msg.receiver}")
        target._push(msg)


class TcpEndpoint(_BufferedReceiver):
    """One party's network presence: a listener plus outbound channels."""

    def __init__(
        self,
        party: int,
        listen: tuple[str, int],
        transcript: Transcript | None = None,
        timeout: float | None = DEFAULT_TIMEOUT,
    ):
        super().__init__(party, transcript if transcript is not None else Transcript(), timeout)
        self._peers: dict[int, tuple[str, int]] = {}
        self._out: dict[int, socket.socket] = {}
        self._accepted: set[socket.socket] = set()
        self._out_lock = threading.Lock()  # guards _out, _accepted and _shutdown
        self._shutdown = False
        self._listener = socket.create_server(listen)
        self.address = self._listener.getsockname()
        threading.Thread(
            target=self._accept_loop, name=f"pppca-accept-{party}", daemon=True
        ).start()

    def set_peers(self, peers: dict[int, tuple[str, int]]):
        self._peers.update(peers)

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # close() shut the listener down
                return
            with self._out_lock:
                if self._shutdown:  # accepted while close() ran
                    conn.close()
                    return
                self._accepted.add(conn)
            threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"pppca-read-{self.party}",
                daemon=True,
            ).start()

    def _read_loop(self, conn: socket.socket):
        def read(count: int) -> bytes:
            # Each recv waits for all it asks for, so one usually returns it
            # all, and joining one chunk copies nothing.  A failed recv (a
            # reset) ends the stream there, behind the bytes that arrived.
            chunks, got = [], 0
            with contextlib.suppress(OSError):
                while got < count and (chunk := conn.recv(count - got, socket.MSG_WAITALL)):
                    chunks.append(chunk)
                    got += len(chunk)
            return b"".join(chunks)

        sender = None  # each connection carries one sender's frames
        with conn:
            try:
                while (msg := read_frame(read)) is not None:
                    if msg.receiver != self.party:
                        raise FrameFormatError(
                            f"a frame from party {msg.sender} addressed to party {msg.receiver}"
                        )
                    if sender not in (None, msg.sender):
                        raise FrameFormatError(
                            f"party {sender}'s channel carried a frame from party {msg.sender}"
                        )
                    sender = msg.sender
                    self._push(msg)
            except FrameFormatError as exc:
                self._close(f"malformed frame: {exc}")
                return
        if sender is not None:
            self._end(sender, f"party {sender} closed its channel")

    def _channel(self, receiver: int) -> socket.socket:
        with self._out_lock:
            if self._shutdown:
                raise TransportClosed(f"party {self.party}'s endpoint is closed")
            sock = self._out.get(receiver)
            if sock is not None:
                return sock
            if receiver not in self._peers:
                raise TransportClosed(f"no address known for party {receiver}")
            # With no timeout, the one attempt below is the last.
            deadline = time.monotonic() + (self.timeout or 0.0)
            while True:
                try:
                    sock = socket.create_connection(self._peers[receiver], timeout=self.timeout)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise TransportTimeout(f"could not reach party {receiver}") from None
                    time.sleep(CONNECT_RETRY)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._out[receiver] = sock
            return sock

    def send(self, msg: ProtocolMessage):
        header = frame_header(msg)
        sock = self._channel(msg.receiver)
        try:
            # Two writes, so the payload is not copied behind the header.
            sock.sendall(header)
            sock.sendall(msg.payload)
        except OSError as exc:
            raise TransportClosed(f"send to party {msg.receiver} failed: {exc}") from exc

    def _shut_channels(self) -> set[int]:
        """Shut the sending side of each channel opened so far, so that its
        receiver ends it behind its frames; returns their receivers."""
        with self._out_lock:
            for sock in self._out.values():
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_WR)
            return set(self._out)

    def close(self):
        """Fail every receive once its frames are taken, refuse every send, and
        shut every socket, the accepted ones too, so that their readers end."""
        self._close(f"party {self.party}'s endpoint is closed")
        with self._out_lock:
            self._shutdown = True
            # close() alone leaves a blocked accept or recv waiting; shutdown wakes it.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
                self._listener.close()
            for sock in self._accepted:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)  # its reader closes it
            for sock in self._out.values():
                with contextlib.suppress(OSError):
                    sock.close()
            self._out.clear()


class TcpNetwork(_Network):
    """Helper for in-process multi-endpoint TCP sessions (tests, demos)."""

    def __init__(self, parties: list[int], timeout: float | None = DEFAULT_TIMEOUT):
        self.transcript = Transcript()
        self.endpoints: dict[int, TcpEndpoint] = {}
        try:
            for party in parties:
                self.endpoints[party] = TcpEndpoint(party, (LOOPBACK, 0), self.transcript, timeout)
        except BaseException:
            self.close()  # the listeners made so far, and their accept threads
            raise
        addresses = {party: ep.address for party, ep in self.endpoints.items()}
        for ep in self.endpoints.values():
            ep.set_peers(addresses)

    def close(self):
        for ep in self.endpoints.values():
            ep.close()
