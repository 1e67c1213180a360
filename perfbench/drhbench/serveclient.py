"""A single-threaded closed-loop client for ``deeprh serve``.

``clients`` connections each hold at most one campaign request in flight:
a connection sends its next request only after the previous one
concluded (``result``, ``error`` or ``rejected``).  All connections are
multiplexed with :mod:`selectors` in the calling thread, so the client
adds no threads of its own that would compete with the service.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from drhbench.checks import canonical

FINAL_EVENTS = ("result", "error", "rejected")


@dataclass
class Outcome:
    """What one campaign request got back, with client-side timestamps."""

    request: dict
    sent_ns: int
    accepted_ns: Optional[int] = None
    done_ns: Optional[int] = None
    status: str = "missing"
    reason: str = ""
    result_bytes: Optional[bytes] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """Send → final event; a request that never concluded is infinite."""
        if self.done_ns is None:
            return float("inf")
        return (self.done_ns - self.sent_ns) / 1e9


def outcome_from_event(outcome: Outcome, event: dict) -> None:
    """Fold one final event into ``outcome``."""
    kind = event.get("event")
    if kind == "result":
        outcome.status = "ok" if event.get("ok") else "not-ok"
        outcome.result_bytes = canonical(event.get("result"))
        outcome.stats = dict(event.get("stats") or {})
    else:
        outcome.status = kind
        outcome.reason = str(event.get("reason", ""))


class _Conn:
    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buffer = b""
        self.current: Optional[Outcome] = None

    def send(self, outcome: Outcome) -> None:
        self.current = outcome
        data = (json.dumps(outcome.request) + "\n").encode()
        self.sock.setblocking(True)
        outcome.sent_ns = time.monotonic_ns()
        self.sock.sendall(data)
        self.sock.setblocking(False)


def closed_loop(path: str, requests: Sequence[dict], clients: int,
                timeout_s: float) -> List[Outcome]:
    """Serve ``requests`` in order from ``clients`` closed-loop connections.

    Returns one :class:`Outcome` per request, in request order.  Requests
    still unanswered at ``timeout_s`` keep status ``missing``.
    """
    outcomes = [Outcome(request=r, sent_ns=0) for r in requests]
    pending = iter(outcomes)
    selector = selectors.DefaultSelector()
    conns = [_Conn(path) for _ in range(clients)]
    deadline = time.monotonic() + timeout_s
    try:
        active = 0
        for conn in conns:
            nxt = next(pending, None)
            if nxt is None:
                break
            conn.send(nxt)
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            active += 1
        while active and time.monotonic() < deadline:
            for key, _ in selector.select(timeout=1.0):
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    selector.unregister(conn.sock)
                    active -= 1
                    continue
                conn.buffer += chunk
                while b"\n" in conn.buffer:
                    line, conn.buffer = conn.buffer.split(b"\n", 1)
                    event = json.loads(line)
                    current = conn.current
                    if current is None or event.get("id") != \
                            current.request["id"]:
                        continue
                    if event.get("event") == "accepted":
                        current.accepted_ns = time.monotonic_ns()
                    elif event.get("event") in FINAL_EVENTS:
                        current.done_ns = time.monotonic_ns()
                        outcome_from_event(current, event)
                        conn.current = None
                        nxt = next(pending, None)
                        if nxt is None:
                            selector.unregister(conn.sock)
                            active -= 1
                            break
                        conn.send(nxt)
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return outcomes


def ask(path: str, payload: dict, want: str, timeout_s: float) -> dict:
    """Send one non-campaign op and return its ``want`` event."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout_s)
        sock.connect(path)
        sock.sendall((json.dumps(payload) + "\n").encode())
        buffer = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError(f"server closed before {want!r}")
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                event = json.loads(line)
                if event.get("event") == want:
                    return event
