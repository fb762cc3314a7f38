"""A small asyncio HTTP/1.1 transport for the serve app.

Hand-rolled on :func:`asyncio.start_server` — no dependencies beyond the
stdlib — and deliberately thin: parse a request, hand it to
:meth:`~repro.serve.app.ServeApp.handle`, write the response.  Normal
responses use ``Content-Length`` and keep-alive; streaming responses use
chunked transfer encoding and close the connection when the stream ends.

Handlers run synchronously on the event loop, so one long engine step
blocks other clients for its duration.  That is the documented
trade-off of the single-writer design (see :mod:`repro.serve.sessions`):
requests serialize, state never tears.  A ``None`` item from a response
stream means "no data yet"; the transport sleeps :data:`STREAM_POLL_S`
and polls again, which is what keeps follow-mode streams cooperative.

:class:`ServeServer` wraps the transport two ways: ``serve_forever()``
runs in the current thread (the ``python -m repro serve`` path), and
``start()``/``stop()`` run the loop on a daemon thread — the harness
tests, the load benchmark, and the operator demo use to host a real
server next to blocking clients.
"""

from __future__ import annotations

import asyncio
import threading
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServeError
from repro.serve.app import (
    MAX_BODY_BYTES,
    Request,
    Response,
    ServeApp,
    error_response,
)

#: Follow-mode poll cadence (real seconds) when a stream has no news.
STREAM_POLL_S = 0.05

#: Maximum bytes in a request line or header line.
_MAX_LINE = 16 * 1024

#: Maximum header lines in one request.
_MAX_HEADERS = 100

#: How long (real seconds) a refused connection is drained before close.
_LINGER_S = 1.0


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off the wire, refusing anything over :data:`_MAX_LINE`."""
    try:
        line = await reader.readline()
    except ValueError:
        # The StreamReader's own buffer limit, hit before ours.
        raise ServeError(f"{what} too long") from None
    if len(line) > _MAX_LINE:
        raise ServeError(f"{what} too long")
    return line


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the wire; ``None`` on a clean EOF.

    Raises:
        ServeError: on malformed framing (the connection cannot be
            resynchronized; the caller answers 400 and closes).
    """
    try:
        line = await _read_line(reader, "request line")
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise ServeError(f"malformed request line {line[:80]!r}") from None
    headers: dict[str, str] = {}
    while True:
        header = await _read_line(reader, "header line")
        if header in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= _MAX_HEADERS:
            raise ServeError(f"more than {_MAX_HEADERS} header lines")
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ServeError(f"malformed Content-Length {raw_length[:80]!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body of {length} bytes exceeds the cap")
    body = await reader.readexactly(length) if length else b""
    parts = urlsplit(target)
    query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
    return Request(
        method=method.upper(),
        path=parts.path,
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: str = "") -> bytes:
    reason = {
        200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found"
    }.get(status, "")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{extra}"
    ).encode("ascii")


async def _write_response(
    writer: asyncio.StreamWriter, response: Response, *, close: bool = False
) -> bool:
    """Send one response; returns whether the connection may be reused.

    ``close`` announces ``Connection: close`` on a plain response (the
    caller is about to hang up); streams always close.
    """
    if response.stream is None:
        connection = "Connection: close\r\n" if close else ""
        writer.write(
            _head(
                response.status,
                response.content_type,
                f"Content-Length: {len(response.body)}\r\n{connection}\r\n",
            )
            + response.body
        )
        await writer.drain()
        return not close
    writer.write(
        _head(
            response.status,
            response.content_type,
            "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )
    )
    await writer.drain()
    try:
        for item in response.stream:
            if item is None:
                await asyncio.sleep(STREAM_POLL_S)
                continue
            writer.write(f"{len(item):x}\r\n".encode("ascii") + item + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        close = getattr(response.stream, "close", None)
        if close is not None:
            close()
    return False


async def _refuse(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, message: str
) -> None:
    """Answer malformed framing with a 400, then hang up.

    The stream cannot be resynchronized, so the connection closes — but
    closing with the rest of the bad request unread makes the kernel
    reset the peer, which can cost it the answer.  Half-close, then
    discard what is still arriving for at most :data:`_LINGER_S`.
    """
    try:
        await _write_response(
            writer, error_response(400, message), close=True
        )
        if writer.can_write_eof():
            writer.write_eof()
        await asyncio.wait_for(_discard(reader), timeout=_LINGER_S)
    except (ConnectionError, asyncio.TimeoutError):
        pass


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(_MAX_LINE):
        pass


async def handle_connection(
    app: ServeApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection (keep-alive until close/stream)."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except ServeError as exc:
                await _refuse(reader, writer, str(exc))
                break
            except asyncio.IncompleteReadError:
                break
            except asyncio.CancelledError:
                # Server shutdown while idle between requests; finish
                # the task cleanly so the streams-module done-callback
                # doesn't log the cancellation as an error.
                break
            if request is None:
                break
            try:
                response = app.handle(request)
            except Exception as exc:  # the app maps its own errors; this
                # is the transport-level belt-and-braces 500.
                response = Response(
                    status=500,
                    body=(
                        f'{{"error": "internal error: {type(exc).__name__}"}}\n'
                    ).encode("utf-8"),
                )
            try:
                reusable = await _write_response(writer, response)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                break
            if not reusable or request.headers.get("connection") == "close":
                break
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass


class ServeServer:
    """Hosts a :class:`ServeApp` over the asyncio transport."""

    def __init__(
        self,
        app: ServeApp | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.app = app if app is not None else ServeApp()
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Foreground (CLI) path
    # ------------------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                lambda r, w: handle_connection(self.app, r, w),
                host=self.host,
                port=self.port,
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._shutdown.wait()
        self.app.manager.close_all()

    def serve_forever(self) -> None:
        """Run the server in the current thread until interrupted."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            self.app.manager.close_all()

    # ------------------------------------------------------------------
    # Background-thread harness
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Run the server on a daemon thread; returns (host, port)."""
        if self._thread is not None:
            raise ServeError("server already started")
        self._ready.clear()
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServeError("server failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise ServeError(
                f"server failed to bind: {self._startup_error}"
            )
        return self.host, self.port

    def stop(self) -> None:
        """Signal shutdown and join the server thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.app.manager.close_all()

    def __enter__(self) -> "ServeServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
