"""The `dpcore serve` daemon: line-delimited JSON requests over a unix
socket, one thread per connection.  Only `dpcore serve` imports this module,
so no other command loads `socketserver`.
"""

from __future__ import annotations

import contextlib
import json
import socketserver
import threading

from .service import ERROR_CODE

#: The one reply to every request that fails or is refused.
_REJECTED = {"status": "error", "code": ERROR_CODE}

#: Longest request line, newline included, that `serve` reads.  A longer one
#: is answered with the one error and its connection closed.
MAX_REQUEST_LINE = 1 << 20

#: Most connections `serve` holds at once, each on its own thread.  One more
#: is answered with the one error and closed.
MAX_CONNECTIONS = 64


def _line(out: dict) -> bytes:
    return json.dumps(out, sort_keys=True).encode("utf-8") + b"\n"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        # A client that hung up ends its connection quietly.
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            while raw := self.rfile.readline(MAX_REQUEST_LINE + 1):
                if len(raw) > MAX_REQUEST_LINE:
                    self.wfile.write(_line(_REJECTED))
                    return
                if raw.strip():
                    try:
                        out = self.server.state.answer(json.loads(raw))
                    except Exception:
                        out = _REJECTED
                    self.wfile.write(_line(out))


class Server(socketserver.ThreadingUnixStreamServer):
    """Answers each request line with `state.answer`, a `CliState`'s."""

    allow_reuse_address = True

    def __init__(self, path: str, state) -> None:
        super().__init__(path, _Handler)
        self.state = state
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            with contextlib.suppress(OSError):
                request.sendall(_line(_REJECTED))
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will free the slot
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()
