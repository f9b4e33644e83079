"""Live protocol handlers: the virtual protocol layer (paper, §3).

Each handler owns one client connection, performs its own
authentication (GSI for Chirp and GridFTP, anonymous for the rest --
exactly the paper's policy), parses its wire format into the common
request interface, and routes requests: metadata operations go
synchronously to the storage manager, data movement goes through the
transfer manager.  The handlers share *no* data-path code with each
other -- everything common lives behind the common request interface,
which is the point of the design.
"""

from __future__ import annotations

import base64
import io
import json
import socket
import threading
import time
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, BinaryIO

from repro.nest import io as fastio
from repro.nest.auth import AuthError, GSIContext
from repro.nest.storage import StorageError
from repro.nest.transfer import TransferError
from repro.obs import spans as _spans
from repro.protocols import chirp, ftp, gridftp, http, nfs
from repro.protocols.common import (
    ProtocolError,
    Request,
    RequestType,
    Response,
    Status,
    read_exact,
    read_line,
    write_line,
)
from repro.protocols.xdr import Packer, Unpacker

if TYPE_CHECKING:  # pragma: no cover
    from repro.nest.server import NestServer


#: Exceptions that end a connection like a wire error: the connection
#: closes, the cause is span-annotated, nothing propagates.  The
#: threaded ``run`` and the event loop's ``step`` share this contract.
WIRE_ERRORS = (ProtocolError, ConnectionError, OSError, ValueError,
               TransferError)


class ConnectionHandler:
    """Base: owns sockets/streams and the authenticated identity.

    ``busy`` is True while the handler is processing one request (as
    opposed to parked on a blocking read between requests); the
    server's graceful drain closes idle connections immediately and
    only waits for busy ones.

    Handlers whose wire format is a clean request-at-a-time loop set
    ``event_capable`` and implement :meth:`serve_one`; the server may
    then park their connections in the event loop instead of
    dedicating a thread (``unbuffered`` read streams keep pipelined
    bytes in the kernel buffer where the selector can see them).
    """

    protocol = "base"
    #: True when serve() is a pure serve_one() loop the event loop can
    #: drive one request at a time (Chirp, HTTP).  Session-stateful
    #: wire formats (FTP's greeting + data channels, NFS, IBP) stay
    #: thread-per-connection.
    event_capable = False

    def __init__(self, server: "NestServer", sock: socket.socket, addr,
                 *, unbuffered: bool = False):
        self.server = server
        self.sock = sock
        self.addr = addr
        # Event mode must not read ahead: a buffered rfile would slurp
        # pipelined requests into userspace where the selector cannot
        # see them, leaving the connection parked with work pending.
        self.rfile: BinaryIO = sock.makefile(
            "rb", buffering=0 if unbuffered else -1)
        self.wfile: BinaryIO = sock.makefile("wb")
        self.user = "anonymous"
        self.busy = False
        #: which server architecture is driving this connection
        #: ("threads" or "events"); feeds the adaptive switcher.
        self.concurrency_model = "threads"
        #: root span of this connection's trace, opened at accept;
        #: every request on the connection is a child.
        self.conn_span = server.obs.tracer.start_trace(
            "accept", protocol=self.protocol, peer=str(addr))

    def run(self) -> None:
        """Serve the connection until EOF or error, then clean up."""
        try:
            self.serve()
        except WIRE_ERRORS:
            # A failed transfer closes the connection like any wire
            # error; its cause is recorded in ``transfers.failures()``.
            self.conn_span.set(wire_error=True)
        finally:
            self.finish()

    def serve_one(self) -> bool:  # pragma: no cover - interface
        """Serve exactly one request (the event loop's dispatch unit).

        Returns True if the connection should stay open for another
        request, False at EOF/quit.  May raise ``WIRE_ERRORS``.
        """
        raise NotImplementedError

    def step(self) -> bool:
        """One event-loop dispatch: :meth:`serve_one` under the same
        error contract as the threaded :meth:`run`.  Returns whether
        the connection should be re-parked."""
        try:
            return self.serve_one()
        except WIRE_ERRORS:
            self.conn_span.set(wire_error=True)
            return False

    def finish(self) -> None:
        """Tear down and end the connection trace (idempotent: the
        span's end() is a no-op the second time)."""
        self.force_close()
        self.conn_span.set(user=self.user).end()

    def fileno(self) -> int:
        """The connection's descriptor (selector registration)."""
        return self.sock.fileno()

    @contextmanager
    def request_scope(self, op: str, path: str = "",
                      trace: tuple[str, str] | None = None):
        """Wrap one request: the busy flag, a ``request`` child span
        pushed onto this thread's trace stack (so storage/ACL/transfer
        layers attach their own children), and request metrics plus the
        health feed on the way out.

        With ``trace`` (a parsed wire trace context), the request span
        *adopts* the caller's trace -- its id is the remote trace's and
        its parent is the remote span -- so merged fleet documents show
        one tree across processes.  The local connection trace id is
        kept as an attribute for correlation.
        """
        user_class = ("anonymous" if self.user == "anonymous"
                      else "authenticated")
        if trace is not None:
            span = self.server.obs.tracer.adopt(
                "request", trace[0], trace[1], op=op,
                protocol=self.protocol, user_class=user_class,
                conn_trace=self.conn_span.trace_id)
        else:
            span = self.conn_span.child(
                "request", op=op, protocol=self.protocol,
                user_class=user_class)
        if path:
            span.set(path=path)
        self.busy = True
        started = time.perf_counter()
        ok = False
        try:
            with span:
                yield span
            ok = span.status == "ok"
        finally:
            self.busy = False
            self.server.observe_request(
                self.protocol, op, ok, time.perf_counter() - started,
                model=self.concurrency_model)

    def mark_request_error(self) -> None:
        """Flag the active request span (and its metric outcome) as an
        error, for handlers that report failures as in-band protocol
        replies rather than exceptions."""
        span = _spans.current_span()
        if span is not None:
            span.end(status="error")

    def force_close(self) -> None:
        """Tear the connection down (idempotent; any thread may call).

        Shuts the socket down first so a handler thread blocked in a
        read wakes immediately -- this is what the server's drain uses
        on stragglers.
        """
        try:
            self.wfile.flush()
        except (OSError, ValueError):
            pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for stream in (self.wfile, self.rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    def serve(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # -- shared plumbing ---------------------------------------------------
    def _send_ticket(self, ticket, path: str) -> int:
        """Stream an approved GET ticket through the transfer manager."""
        try:
            moved = self.server.transfers.transfer_sync(
                ticket.stream, self.wfile, ticket.size,
                protocol=self.protocol, user=self.user, path=path,
            )
        finally:
            ticket.settle(ticket.size)
        self.wfile.flush()
        self.server.graybox.observe_read(path, 0, ticket.size)
        return moved

    def _recv_file(self, path: str, length: int, source: BinaryIO | None = None) -> int:
        """PUT data path; ``length`` may be -1 for read-to-EOF."""
        ticket = self.server.storage.approve_put(self.user, path, max(length, 0))
        moved = 0
        try:
            moved = self.server.transfers.transfer_sync(
                source or self.rfile, ticket.stream, length,
                protocol=self.protocol, user=self.user, path=path,
            )
        finally:
            ticket.settle(moved)
        self.server.graybox.observe_write(path, 0, moved)
        return moved


# ---------------------------------------------------------------------------
# Chirp
# ---------------------------------------------------------------------------


class ChirpHandler(ConnectionHandler):
    """NeST's native protocol: full feature set, GSI authentication."""

    protocol = "chirp"
    event_capable = True

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One Chirp request: read a line, decode, dispatch."""
        try:
            line = read_line(self.rfile)
        except ProtocolError:
            return False
        parse = self.conn_span.child("parse", protocol=self.protocol)
        try:
            request = chirp.decode_request(line)
        except ProtocolError as exc:
            parse.end(status="error")
            self.server.observe_request(self.protocol, "parse",
                                        False, 0.0)
            write_line(self.wfile, chirp.encode_response(
                Response(Status.BAD_REQUEST, message=str(exc))))
            return True
        parse.end()
        request.user = self.user
        trace = _spans.parse_trace_context(request.params.get("trace"))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace):
            keep = self._handle(request)
        return keep

    def _handle(self, request: Request) -> bool:
        if request.rtype is RequestType.QUIT:
            write_line(self.wfile, "ok")
            return False
        if request.rtype is RequestType.AUTH:
            self._authenticate(request)
            return True
        if request.rtype is RequestType.GET:
            return self._get(request)
        if request.rtype is RequestType.PUT:
            return self._put(request)
        if request.rtype is RequestType.READ:
            return self._block_read(request)
        if request.rtype is RequestType.WRITE:
            return self._block_write(request)
        if request.rtype is RequestType.QUERY:
            payload = self.server.advertisement().external_repr().encode()
            write_line(self.wfile, chirp.encode_response(
                Response(Status.OK), [str(len(payload))]))
            self.wfile.write(payload)
            self.wfile.flush()
            return True
        if request.rtype is RequestType.THIRDPUT:
            self._thirdput(request)
            return True
        if request.rtype is RequestType.CHECKSUM:
            self._checksum(request)
            return True
        response = self.server.storage.execute(request)
        self._reply(request, response)
        return True

    def _authenticate(self, request: Request) -> None:
        mechanism = request.params.get("mechanism", "gsi")
        if mechanism != "gsi":
            write_line(self.wfile, chirp.encode_response(
                Response(Status.BAD_REQUEST, message="only gsi supported")))
            return
        write_line(self.wfile, "ok")
        auth_span = _spans.maybe_span("auth", mechanism=mechanism)
        try:
            cert = base64.b64decode(read_line(self.rfile))
            challenge = self.server.gsi.challenge()
            write_line(self.wfile, base64.b64encode(challenge).decode())
            response = base64.b64decode(read_line(self.rfile))
            subject = self.server.gsi.accept(cert, challenge, response)
        except (AuthError, ProtocolError, ValueError) as exc:
            auth_span.end(status="error")
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(Status.NOT_AUTHENTICATED, message=str(exc))))
            return
        self.user = self.server.map_subject(subject)
        auth_span.set(user=self.user).end()
        write_line(self.wfile, chirp.encode_response(
            Response(Status.OK), [self.user]))

    def _get(self, request: Request) -> bool:
        try:
            # Approve (permissions + existence) before promising data.
            ticket = self.server.storage.approve_get(self.user, request.path)
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return True
        write_line(self.wfile, chirp.encode_response(
            Response(Status.OK), [str(ticket.size)]))
        self._send_ticket(ticket, request.path)
        return True

    def _put(self, request: Request) -> bool:
        try:
            # Approve before telling the client to send.
            ticket = self.server.storage.approve_put(
                self.user, request.path, request.length
            )
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return True
        write_line(self.wfile, "ok")
        moved = 0
        try:
            moved = self.server.transfers.transfer_sync(
                self.rfile, ticket.stream, request.length,
                protocol=self.protocol, user=self.user, path=request.path,
            )
        finally:
            ticket.settle(moved)
        self.server.graybox.observe_write(request.path, 0, moved)
        write_line(self.wfile, "ok")
        return True

    def _block_read(self, request: Request) -> bool:
        """Chirp ``read <path> <offset> <len>``: partial-file read."""
        try:
            ticket = self.server.storage.approve_read(
                self.user, request.path, request.offset, request.length
            )
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return True
        write_line(self.wfile, chirp.encode_response(
            Response(Status.OK), [str(ticket.size)]))
        try:
            self.server.transfers.transfer_sync(
                ticket.stream, self.wfile, ticket.size,
                protocol=self.protocol, user=self.user, path=request.path,
            )
        finally:
            ticket.settle(ticket.size)
        self.wfile.flush()
        self.server.graybox.observe_read(request.path, request.offset,
                                         ticket.size)
        return True

    def _block_write(self, request: Request) -> bool:
        """Chirp ``write <path> <offset> <len>``: partial-file write."""
        try:
            ticket = self.server.storage.approve_write(
                self.user, request.path, request.offset, request.length
            )
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return True
        write_line(self.wfile, "ok")
        moved = 0
        try:
            transfer = self.server.transfers.run(
                self.rfile, ticket.stream, request.length,
                protocol=self.protocol, user=self.user, path=request.path,
            )
            moved = transfer.moved
        finally:
            ticket.settle(moved)
        self.server.graybox.observe_write(request.path, request.offset, moved)
        # Ack with the CRC32 folded into the receive loop: the client
        # verifies its upload end to end with zero extra read passes.
        crc = "-" if transfer.crc is None else str(transfer.crc)
        write_line(self.wfile, f"ok {crc} {moved}")
        return True

    def _checksum(self, request: Request) -> None:
        """Chirp ``checksum <path>``: CRC32 over the file's contents.

        Runs the contents through the same read-approval gate as a GET
        (permissions and existence checked first), so a replica manager
        can verify a third-party copy end to end without pulling the
        bytes over the wide area.  Replies ``ok <crc32> <size>``.
        """
        try:
            ticket = self.server.storage.approve_get(self.user, request.path)
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return
        try:
            crc, _ = fastio.stream_crc32(ticket.stream, ticket.size)
        finally:
            ticket.settle(ticket.size)
        self.server.graybox.observe_read(request.path, 0, ticket.size)
        write_line(self.wfile, chirp.encode_response(
            Response(Status.OK), [str(crc), str(ticket.size)]))

    def _thirdput(self, request: Request) -> None:
        """Three-party transfer: push one of our files to another
        server, data flowing server-to-server (paper, §2.1: the
        transfer manager allows "transparent three- and four-party
        transfers")."""
        from repro.client.chirp import ChirpClient
        from repro.client.errors import ClientError
        from repro.client.retry import NO_RETRY

        try:
            ticket = self.server.storage.approve_get(self.user, request.path)
        except StorageError as exc:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(
                Response(exc.status, message=exc.message)))
            return
        moved = 0
        try:
            try:
                # Fail fast: the requesting client owns the retry
                # decision, not a handler thread holding the control
                # connection.  The file streams straight from the
                # storage ticket to the remote's data connection --
                # bounded memory no matter the file size.
                remote = ChirpClient(request.params["host"],
                                     int(request.params["port"]),
                                     timeout=10.0, retry=NO_RETRY)
                try:
                    moved = remote.put_stream(request.params["remote_path"],
                                              ticket.stream, ticket.size)
                finally:
                    remote.close()
            except (ClientError, OSError, ProtocolError) as exc:
                self.mark_request_error()
                write_line(self.wfile, chirp.encode_response(
                    Response(Status.SERVER_ERROR, message=str(exc))))
                return
        finally:
            ticket.settle(moved)
        self.server.graybox.observe_read(request.path, 0, ticket.size)
        write_line(self.wfile, chirp.encode_response(
            Response(Status.OK), [str(ticket.size)]))

    def _reply(self, request: Request, response: Response) -> None:
        if not response.ok:
            self.mark_request_error()
            write_line(self.wfile, chirp.encode_response(response))
            return
        if request.rtype is RequestType.STAT:
            write_line(self.wfile, chirp.encode_response(
                response, chirp.encode_stat(response.data)))
        elif request.rtype in (RequestType.LIST, RequestType.ACL_GET,
                               RequestType.LOT_STAT, RequestType.LOT_LIST,
                               RequestType.LOT_DELETE):
            payload = json.dumps(response.data).encode()
            write_line(self.wfile, chirp.encode_response(
                response, [str(len(payload))]))
            self.wfile.write(payload)
            self.wfile.flush()
        elif request.rtype in (RequestType.LOT_CREATE, RequestType.LOT_RENEW):
            write_line(self.wfile, chirp.encode_response(
                response, [str(response.data["lot_id"]),
                           str(response.data["capacity"]),
                           str(response.data["expires_at"])]))
        else:
            write_line(self.wfile, "ok")


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


class HttpHandler(ConnectionHandler):
    """HTTP/1.0 subset; anonymous only."""

    protocol = "http"
    event_capable = True

    def serve(self) -> None:
        while self.serve_one():
            pass

    def serve_one(self) -> bool:
        """One HTTP request/response exchange."""
        try:
            request = http.read_request(self.rfile)
        except ProtocolError:
            return False
        if request is None:
            return False
        request.user = self.user
        keep_alive = request.params.get("keep_alive", False)
        headers = request.params.get("headers", {})
        trace = _spans.parse_trace_context(
            headers.get(http.TRACE_HEADER.lower()))
        with self.request_scope(request.rtype.value, request.path,
                                trace=trace) as sp:
            try:
                self._handle(request, keep_alive)
            except StorageError as exc:
                sp.end(status="error")
                http.write_response_head(
                    self.wfile, Response(exc.status, message=exc.message),
                    keep_alive=keep_alive,
                )
        return bool(keep_alive)

    def _handle(self, request: Request, keep_alive: bool) -> None:
        storage = self.server.storage
        if request.rtype is RequestType.GET:
            # Approve before the status line goes out, so a denial is a
            # clean 403 rather than a corrupted body.
            ticket = storage.approve_get(self.user, request.path)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     content_length=ticket.size,
                                     keep_alive=keep_alive)
            self._send_ticket(ticket, request.path)
        elif request.rtype is RequestType.STAT:  # HEAD
            size = storage.stat(self.user, request.path)["size"]
            http.write_response_head(self.wfile, Response(Status.OK),
                                     content_length=size, keep_alive=keep_alive)
        elif request.rtype is RequestType.PUT:
            self._recv_file(request.path, request.length)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        elif request.rtype is RequestType.DELETE:
            storage.delete(self.user, request.path)
            http.write_response_head(self.wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        else:
            http.write_response_head(self.wfile, Response(Status.BAD_REQUEST),
                                     keep_alive=keep_alive)


# ---------------------------------------------------------------------------
# FTP
# ---------------------------------------------------------------------------


class FtpHandler(ConnectionHandler):
    """FTP subset: control + passive/active data connections."""

    protocol = "ftp"
    greeting = "NeST FTP ready"

    def __init__(self, server, sock, addr):
        super().__init__(server, sock, addr)
        self.cwd = "/"
        self.logged_in = False
        self._pasv_listener: socket.socket | None = None
        self._port_target: tuple[str, int] | None = None

    def reply(self, code: int, text: str) -> None:
        write_line(self.wfile, ftp.format_reply(code, text))

    def resolve(self, path: str) -> str:
        if not path.startswith("/"):
            path = self.cwd.rstrip("/") + "/" + path
        return path

    def serve(self) -> None:
        self.reply(ftp.READY, self.greeting)
        while True:
            try:
                line = read_line(self.rfile)
            except ProtocolError:
                return
            try:
                verb, arg = ftp.parse_command(line)
            except ProtocolError:
                self.reply(ftp.SYNTAX_ERROR, "bad command")
                continue
            with self.request_scope(verb.lower()):
                keep = self.dispatch(verb, arg)
            if not keep:
                return

    def dispatch(self, verb: str, arg: str) -> bool:
        handler = getattr(self, f"cmd_{verb.lower()}", None)
        if handler is None:
            self.reply(ftp.NOT_IMPLEMENTED, f"{verb} not implemented")
            return True
        try:
            return handler(arg)
        except StorageError as exc:
            self.mark_request_error()
            self.reply(ftp.STATUS_TO_REPLY.get(exc.status, ftp.ACTION_FAILED),
                       exc.message or exc.status.value)
            return True

    # -- session -------------------------------------------------------------
    def cmd_user(self, arg: str) -> bool:
        if arg.lower() in ("anonymous", "ftp"):
            self.reply(ftp.NEED_PASSWORD, "anonymous ok, send email as pass")
        else:
            self.reply(ftp.NOT_LOGGED_IN, "anonymous only")
        return True

    def cmd_pass(self, arg: str) -> bool:
        self.logged_in = True
        self.reply(ftp.LOGGED_IN, "logged in anonymously")
        return True

    def cmd_type(self, arg: str) -> bool:
        self.reply(200, f"type set to {arg or 'I'}")
        return True

    def cmd_noop(self, arg: str) -> bool:
        self.reply(200, "ok")
        return True

    def cmd_syst(self, arg: str) -> bool:
        self.reply(215, "UNIX Type: L8 (NeST)")
        return True

    def cmd_quit(self, arg: str) -> bool:
        self.reply(ftp.GOODBYE, "goodbye")
        return False

    # -- navigation -----------------------------------------------------------
    def cmd_cwd(self, arg: str) -> bool:
        target = self.resolve(arg)
        stat = self.server.storage.stat(self.user, target) if target != "/" else {
            "type": "dir"
        }
        if stat["type"] != "dir":
            self.reply(ftp.ACTION_FAILED, "not a directory")
            return True
        self.cwd = target
        self.reply(ftp.ACTION_OK, f"cwd {self.cwd}")
        return True

    def cmd_pwd(self, arg: str) -> bool:
        self.reply(ftp.PATH_CREATED, f'"{self.cwd}"')
        return True

    def cmd_mkd(self, arg: str) -> bool:
        self.server.storage.mkdir(self.user, self.resolve(arg))
        self.reply(ftp.PATH_CREATED, f'"{arg}" created')
        return True

    def cmd_rmd(self, arg: str) -> bool:
        self.server.storage.rmdir(self.user, self.resolve(arg))
        self.reply(ftp.ACTION_OK, "removed")
        return True

    def cmd_dele(self, arg: str) -> bool:
        self.server.storage.delete(self.user, self.resolve(arg))
        self.reply(ftp.ACTION_OK, "deleted")
        return True

    def cmd_size(self, arg: str) -> bool:
        stat = self.server.storage.stat(self.user, self.resolve(arg))
        self.reply(213, str(stat["size"]))
        return True

    # -- data connections -----------------------------------------------------
    def cmd_pasv(self, arg: str) -> bool:
        if self._pasv_listener is not None:
            self._pasv_listener.close()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((self.server.host, 0))
        listener.listen(4)
        self._pasv_listener = listener
        self._port_target = None
        host, port = listener.getsockname()
        write_line(self.wfile, ftp.format_pasv_reply(host, port))
        return True

    def cmd_port(self, arg: str) -> bool:
        try:
            nums = [int(x) for x in arg.split(",")]
            host = ".".join(str(n) for n in nums[:4])
            port = nums[4] * 256 + nums[5]
        except (ValueError, IndexError):
            self.reply(ftp.SYNTAX_ERROR, "bad PORT")
            return True
        self._port_target = (host, port)
        if self._pasv_listener is not None:
            self._pasv_listener.close()
            self._pasv_listener = None
        self.reply(200, "PORT ok")
        return True

    def open_data_connection(self) -> socket.socket:
        if self._pasv_listener is not None:
            self._pasv_listener.settimeout(10)
            conn, _ = self._pasv_listener.accept()
        elif self._port_target is not None:
            conn = socket.create_connection(self._port_target, timeout=10)
        else:
            raise ProtocolError("no data connection configured")
        if self.server.faults is not None:
            conn = self.server.faults.wrap_socket(
                conn, label=f"{self.protocol}-data")
        return conn

    def close_data_state(self) -> None:
        if self._pasv_listener is not None:
            self._pasv_listener.close()
            self._pasv_listener = None
        self._port_target = None

    # -- transfers ----------------------------------------------------------
    def cmd_retr(self, arg: str) -> bool:
        path = self.resolve(arg)
        ticket = self.server.storage.approve_get(self.user, path)
        self.reply(ftp.OPENING_DATA, "opening data connection")
        conn = self.open_data_connection()
        data_out = conn.makefile("wb")
        try:
            self.server.transfers.transfer_sync(
                ticket.stream, data_out, ticket.size,
                protocol=self.protocol, user=self.user, path=path,
            )
            data_out.flush()
        finally:
            ticket.settle(ticket.size)
            data_out.close()
            conn.close()
            self.close_data_state()
        self.server.graybox.observe_read(path, 0, ticket.size)
        self.reply(ftp.TRANSFER_OK, "transfer complete")
        return True

    def cmd_stor(self, arg: str) -> bool:
        path = self.resolve(arg)
        ticket = self.server.storage.approve_put(self.user, path, 0)
        self.reply(ftp.OPENING_DATA, "opening data connection")
        conn = self.open_data_connection()
        data_in = conn.makefile("rb")
        moved = 0
        try:
            moved = self.server.transfers.transfer_sync(
                data_in, ticket.stream, -1,
                protocol=self.protocol, user=self.user, path=path,
            )
        finally:
            ticket.settle(moved)
            data_in.close()
            conn.close()
            self.close_data_state()
        self.server.graybox.observe_write(path, 0, moved)
        self.reply(ftp.TRANSFER_OK, f"received {moved} bytes")
        return True

    def cmd_list(self, arg: str) -> bool:
        path = self.resolve(arg) if arg else self.cwd
        entries = self.server.storage.listdir(self.user, path)
        listing = "".join(
            f"{e['type']:<4} {e['size']:>12} {e['name']}\r\n" for e in entries
        ).encode()
        self.reply(ftp.OPENING_DATA, "here comes the listing")
        conn = self.open_data_connection()
        try:
            conn.sendall(listing)
        finally:
            conn.close()
            self.close_data_state()
        self.reply(ftp.TRANSFER_OK, "listing sent")
        return True


# ---------------------------------------------------------------------------
# GridFTP
# ---------------------------------------------------------------------------


class GridFtpHandler(FtpHandler):
    """FTP + GSI (ADAT), extended-block mode, parallel streams."""

    protocol = "gridftp"
    greeting = "NeST GridFTP ready"

    def __init__(self, server, sock, addr):
        super().__init__(server, sock, addr)
        self.mode = "S"
        self.parallelism = 1
        self._gsi_challenge: bytes | None = None
        self._gsi_cert: bytes | None = None
        self._spas_listeners: list[socket.socket] = []

    def cmd_auth(self, arg: str) -> bool:
        if arg.upper() not in ("GSSAPI", "GSI"):
            self.reply(ftp.NOT_IMPLEMENTED, "only GSSAPI")
            return True
        self.reply(334, "ADAT must follow")
        return True

    def cmd_adat(self, arg: str) -> bool:
        try:
            payload = base64.b64decode(arg)
        except ValueError:
            self.reply(ftp.SYNTAX_ERROR, "bad base64")
            return True
        if self._gsi_challenge is None:
            # Step 1: certificate in, challenge out.
            self._gsi_cert = payload
            self._gsi_challenge = self.server.gsi.challenge()
            token = base64.b64encode(self._gsi_challenge).decode()
            self.reply(ftp.AUTH_CONTINUE, f"ADAT={token}")
            return True
        # Step 2: challenge response in.
        try:
            subject = self.server.gsi.accept(
                self._gsi_cert, self._gsi_challenge, payload
            )
        except AuthError as exc:
            self.reply(ftp.NOT_LOGGED_IN, str(exc))
            self._gsi_challenge = None
            return True
        self.user = self.server.map_subject(subject)
        self.logged_in = True
        self.reply(ftp.AUTH_OK, f"authenticated as {self.user}")
        return True

    def cmd_mode(self, arg: str) -> bool:
        mode = arg.upper()
        if mode not in ("S", "E"):
            self.reply(ftp.NOT_IMPLEMENTED, "modes S and E only")
            return True
        self.mode = mode
        self.reply(200, f"mode {mode}")
        return True

    def cmd_opts(self, arg: str) -> bool:
        try:
            opts = gridftp.parse_opts_retr(arg)
        except ProtocolError as exc:
            self.reply(ftp.SYNTAX_ERROR, str(exc))
            return True
        self.parallelism = max(1, opts.get("parallelism", 1))
        self.reply(200, f"parallelism {self.parallelism}")
        return True

    def cmd_spas(self, arg: str) -> bool:
        """Striped passive: one listener per parallel stream."""
        for listener in self._spas_listeners:
            listener.close()
        self._spas_listeners = []
        lines = []
        for _ in range(self.parallelism):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((self.server.host, 0))
            listener.listen(2)
            self._spas_listeners.append(listener)
            host, port = listener.getsockname()
            h = host.split(".")
            lines.append(f" {h[0]},{h[1]},{h[2]},{h[3]},{port // 256},{port % 256}")
        write_line(self.wfile, "229-Entering Striped Passive Mode")
        for line in lines:
            write_line(self.wfile, line)
        write_line(self.wfile, "229 End")
        return True

    def _data_connections(self) -> list[socket.socket]:
        if self._spas_listeners:
            conns = []
            for listener in self._spas_listeners:
                listener.settimeout(10)
                conn, _ = listener.accept()
                if self.server.faults is not None:
                    conn = self.server.faults.wrap_socket(
                        conn, label="gridftp-stripe")
                conns.append(conn)
            return conns
        return [self.open_data_connection()]

    def _close_spas(self) -> None:
        for listener in self._spas_listeners:
            listener.close()
        self._spas_listeners = []

    def cmd_retr(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_retr(arg)
        path = self.resolve(arg)
        ticket = self.server.storage.approve_get(self.user, path)
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        conns = self._data_connections()
        size = ticket.size
        lanes = gridftp.stripe_ranges(size, len(conns), 256 * 1024)
        errors: list[BaseException] = []
        # Lanes share the storage ticket's stream: each extent is one
        # bounded seek+read under this lock, so memory per lane is one
        # stripe block -- never the whole file.
        source_lock = threading.Lock()

        def send_lane(conn: socket.socket, extents, last: bool) -> None:
            out = conn.makefile("wb")
            try:
                for offset, length in extents:
                    with source_lock:
                        ticket.stream.seek(offset)
                        payload = read_exact(ticket.stream, length)
                    gridftp.write_block(out, offset, payload)
                gridftp.write_eod(out, eof=last)
                out.flush()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                out.close()
                conn.close()

        threads = [
            threading.Thread(target=send_lane,
                             args=(conn, lanes[i], i == 0), daemon=True)
            for i, conn in enumerate(conns)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        if any(t.is_alive() for t in threads):
            errors.append(TimeoutError("parallel send lane hung"))
        ticket.settle(size)
        self._close_spas()
        self.close_data_state()
        self.server.graybox.observe_read(path, 0, size)
        if errors:
            self.reply(ftp.ACTION_FAILED, f"transfer failed: {errors[0]}")
        else:
            self.reply(ftp.TRANSFER_OK, "transfer complete")
        return True

    def cmd_stor(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_stor(arg)
        path = self.resolve(arg)
        ticket = self.server.storage.approve_put(self.user, path, 0)
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        conns = self._data_connections()
        errors: list[BaseException] = []
        # Blocks land directly at their offsets in the storage
        # ticket's stream (one seek+write per block under this lock):
        # memory per lane is one wire block, never the whole file, and
        # sparse regions zero-fill exactly as the old staging buffer
        # did.
        sink_lock = threading.Lock()
        high_water = [0]

        def recv_lane(conn: socket.socket) -> None:
            stream = conn.makefile("rb")
            try:
                for offset, payload in gridftp.iter_blocks(stream):
                    with sink_lock:
                        ticket.stream.seek(offset)
                        ticket.stream.write(payload)
                        high_water[0] = max(high_water[0],
                                            offset + len(payload))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stream.close()
                conn.close()

        threads = [threading.Thread(target=recv_lane, args=(c,), daemon=True)
                   for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        if any(t.is_alive() for t in threads):
            # A hung receive lane means missing stripes: fail the STOR
            # rather than commit a silently truncated file.
            errors.append(TimeoutError("parallel receive lane hung"))
        self._close_spas()
        self.close_data_state()
        moved = high_water[0] if not errors else 0
        ticket.settle(moved)
        self.server.graybox.observe_write(path, 0, moved)
        if errors:
            self.reply(ftp.ACTION_FAILED, f"transfer failed: {errors[0]}")
        else:
            self.reply(ftp.TRANSFER_OK, f"received {moved} bytes")
        return True


# ---------------------------------------------------------------------------
# NFS
# ---------------------------------------------------------------------------


class NfsHandler(ConnectionHandler):
    """Restricted NFS subset over TCP; anonymous only.

    MOUNT is handled here too ("mount is handled by the NFS handler",
    paper footnote 1).
    """

    protocol = "nfs"

    def serve(self) -> None:
        while True:
            try:
                record = nfs.read_record(self.rfile)
            except ProtocolError:
                return
            try:
                xid, prog, proc, args = nfs.unpack_call(record)
            except ProtocolError:
                return
            op = ("mount" if prog == nfs.PROG_MOUNT
                  else _NFS_OPS.get(proc, "other"))
            with self.request_scope(op):
                results = self._dispatch(prog, proc, args)
                nfs.write_record(self.wfile, nfs.pack_reply(xid, results))

    def _dispatch(self, prog: int, proc: int, args: Unpacker) -> bytes:
        try:
            if prog == nfs.PROG_MOUNT:
                if proc == nfs.MOUNTPROC_MNT:
                    return self._mnt(args)
                if proc == nfs.MOUNTPROC_UMNT:
                    return b""
                return self._status_only(nfs.NFSERR_IO)
            handlers = {
                nfs.PROC_NULL: lambda a: b"",
                nfs.PROC_GETATTR: self._getattr,
                nfs.PROC_LOOKUP: self._lookup,
                nfs.PROC_READ: self._read,
                nfs.PROC_WRITE: self._write,
                nfs.PROC_CREATE: self._create,
                nfs.PROC_REMOVE: self._remove,
                nfs.PROC_MKDIR: self._mkdir,
                nfs.PROC_RMDIR: self._rmdir,
                nfs.PROC_READDIR: self._readdir,
            }
            handler = handlers.get(proc)
            if handler is None:
                return self._status_only(nfs.NFSERR_IO)
            return handler(args)
        except StorageError as exc:
            self.mark_request_error()
            return self._status_only(_STATUS_TO_NFS.get(exc.status,
                                                        nfs.NFSERR_IO))
        except ProtocolError:
            self.mark_request_error()
            return self._status_only(nfs.NFSERR_IO)

    # -- helpers ----------------------------------------------------------
    def _status_only(self, status: int) -> bytes:
        p = Packer()
        p.pack_uint(status)
        return p.get_buffer()

    def _path_of(self, handle: bytes) -> str:
        path = self.server.fhandles.path_of(nfs.fhandle_token(handle))
        if path is None:
            # Unknown token, or one minted before a server restart (the
            # registry's epoch changed): the NFS client must LOOKUP the
            # path again, exactly as with a real ESTALE.
            raise StorageError(Status.STALE, "stale file handle")
        return path

    def _fh_for(self, path: str) -> bytes:
        return nfs.make_fhandle(self.server.fhandles.token_for(path))

    def _pack_attr_reply(self, path: str) -> bytes:
        stat = self.server.storage.stat(self.user, path) if path != "/" else {
            "type": "dir", "size": 0,
        }
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        ftype = nfs.NFDIR if stat["type"] == "dir" else nfs.NFREG
        nfs.pack_fattr(p, ftype, stat["size"])
        return p.get_buffer()

    # -- procedures ----------------------------------------------------------
    def _mnt(self, args: Unpacker) -> bytes:
        dirpath = args.unpack_string()
        p = Packer()
        if dirpath != "/" and not self.server.storage.exists(dirpath):
            p.pack_uint(nfs.NFSERR_NOENT)
            return p.get_buffer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(dirpath if dirpath else "/"))
        return p.get_buffer()

    def _getattr(self, args: Unpacker) -> bytes:
        path = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        return self._pack_attr_reply(path)

    def _lookup(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        name = args.unpack_string()
        path = (dirpath.rstrip("/") + "/" + name) if dirpath != "/" else "/" + name
        stat = self.server.storage.stat(self.user, path)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(path))
        ftype = nfs.NFDIR if stat["type"] == "dir" else nfs.NFREG
        nfs.pack_fattr(p, ftype, stat["size"])
        return p.get_buffer()

    def _read(self, args: Unpacker) -> bytes:
        path = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        offset = args.unpack_hyper()
        count = args.unpack_uint()
        ticket = self.server.storage.approve_read(self.user, path, offset,
                                                  min(count, nfs.BLOCK_SIZE))
        sink = io.BytesIO()
        try:
            self.server.transfers.transfer_sync(
                ticket.stream, sink, ticket.size,
                protocol=self.protocol, user=self.user, path=path,
            )
        finally:
            ticket.settle(ticket.size)
        self.server.graybox.observe_read(path, offset, ticket.size)
        data = sink.getvalue()
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        size = self.server.storage.stat(self.user, path)["size"]
        nfs.pack_fattr(p, nfs.NFREG, size)
        p.pack_opaque(data)
        return p.get_buffer()

    def _write(self, args: Unpacker) -> bytes:
        path = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        offset = args.unpack_hyper()
        data = args.unpack_opaque()
        ticket = self.server.storage.approve_write(self.user, path, offset,
                                                   len(data))
        moved = 0
        try:
            moved = self.server.transfers.transfer_sync(
                io.BytesIO(data), ticket.stream, len(data),
                protocol=self.protocol, user=self.user, path=path,
            )
        finally:
            ticket.settle(moved)
        self.server.graybox.observe_write(path, offset, moved)
        return self._pack_attr_reply(path)

    def _create(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        name = args.unpack_string()
        path = (dirpath.rstrip("/") + "/" + name) if dirpath != "/" else "/" + name
        ticket = self.server.storage.approve_put(self.user, path, 0)
        ticket.settle(0)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(path))
        nfs.pack_fattr(p, nfs.NFREG, 0)
        return p.get_buffer()

    def _remove(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        name = args.unpack_string()
        path = (dirpath.rstrip("/") + "/" + name) if dirpath != "/" else "/" + name
        self.server.storage.delete(self.user, path)
        return self._status_only(nfs.NFS_OK)

    def _mkdir(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        name = args.unpack_string()
        path = (dirpath.rstrip("/") + "/" + name) if dirpath != "/" else "/" + name
        self.server.storage.mkdir(self.user, path)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_fixed(self._fh_for(path))
        nfs.pack_fattr(p, nfs.NFDIR, 0)
        return p.get_buffer()

    def _rmdir(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        name = args.unpack_string()
        path = (dirpath.rstrip("/") + "/" + name) if dirpath != "/" else "/" + name
        self.server.storage.rmdir(self.user, path)
        return self._status_only(nfs.NFS_OK)

    def _readdir(self, args: Unpacker) -> bytes:
        dirpath = self._path_of(args.unpack_fixed(nfs.FHSIZE))
        entries = self.server.storage.listdir(self.user, dirpath)
        p = Packer()
        p.pack_uint(nfs.NFS_OK)
        p.pack_uint(len(entries))
        for entry in entries:
            p.pack_string(entry["name"])
            p.pack_uint(nfs.NFDIR if entry["type"] == "dir" else nfs.NFREG)
        return p.get_buffer()


# ---------------------------------------------------------------------------
# IBP
# ---------------------------------------------------------------------------


class IbpHandler(ConnectionHandler):
    """IBP depot dialect: capability-named byte-array allocations.

    The extension protocol the paper plans for ("data movement
    protocols such as IBP"); see :mod:`repro.nest.ibp` for how
    allocations map onto lots.  IBP's trust model is capability
    possession, so there is no authentication step at all.
    """

    protocol = "ibp"

    def serve(self) -> None:
        from repro.nest.ibp import IbpDepot  # local import: optional protocol
        from repro.protocols import ibp

        depot: "IbpDepot" = self.server.ibp_depot
        while True:
            try:
                line = read_line(self.rfile)
            except ProtocolError:
                return
            try:
                verb, args = ibp.parse_command(line)
            except ProtocolError as exc:
                write_line(self.wfile, ibp.format_err("bad-command", str(exc)))
                continue
            if verb == "quit":
                write_line(self.wfile, ibp.format_ok())
                return
            with self.request_scope(verb) as sp:
                try:
                    self._dispatch(depot, verb, args)
                except ibp.IbpError as exc:
                    sp.end(status="error")
                    write_line(self.wfile, ibp.format_err(exc.code, str(exc)))
                except (ProtocolError, ValueError, IndexError) as exc:
                    sp.end(status="error")
                    write_line(self.wfile,
                               ibp.format_err("bad-arguments", str(exc)))

    def _dispatch(self, depot, verb: str, args: list[str]) -> None:
        from repro.protocols import ibp

        if verb == "allocate":
            size, duration, atype = int(args[0]), float(args[1]), args[2]
            alloc = depot.allocate(size, duration, atype)
            write_line(self.wfile, ibp.format_ok(
                depot.capability(alloc, ibp.READ),
                depot.capability(alloc, ibp.WRITE),
                depot.capability(alloc, ibp.MANAGE),
            ))
        elif verb == "store":
            cap = ibp.parse_capability(args[0])
            nbytes = int(args[1])
            data = read_exact(self.rfile, nbytes)
            used = depot.store(cap, data)
            write_line(self.wfile, ibp.format_ok(used))
        elif verb == "load":
            cap = ibp.parse_capability(args[0])
            offset, nbytes = int(args[1]), int(args[2])
            data = depot.load(cap, offset, nbytes)
            write_line(self.wfile, ibp.format_ok(len(data)))
            self.wfile.write(data)
            self.wfile.flush()
        elif verb == "probe":
            info = depot.probe(ibp.parse_capability(args[0]))
            write_line(self.wfile, ibp.format_ok(
                info["size"], info["used"], info["expires_at"],
                info["type"], info["refcount"],
            ))
        elif verb == "extend":
            expires = depot.extend(ibp.parse_capability(args[0]),
                                   float(args[1]))
            write_line(self.wfile, ibp.format_ok(expires))
        elif verb == "increment":
            write_line(self.wfile, ibp.format_ok(
                depot.increment(ibp.parse_capability(args[0]))))
        elif verb == "decrement":
            write_line(self.wfile, ibp.format_ok(
                depot.decrement(ibp.parse_capability(args[0]))))
        elif verb == "status":
            info = depot.status()
            write_line(self.wfile, ibp.format_ok(
                info["total"], info["used"], info["volatile"]))
        else:
            write_line(self.wfile, ibp.format_err("bad-command", verb))


#: NFS procedure number -> request-op label (bounded by construction).
_NFS_OPS = {
    nfs.PROC_NULL: "null", nfs.PROC_GETATTR: "getattr",
    nfs.PROC_LOOKUP: "lookup", nfs.PROC_READ: "read",
    nfs.PROC_WRITE: "write", nfs.PROC_CREATE: "create",
    nfs.PROC_REMOVE: "remove", nfs.PROC_MKDIR: "mkdir",
    nfs.PROC_RMDIR: "rmdir", nfs.PROC_READDIR: "readdir",
}

_STATUS_TO_NFS = {
    Status.NOT_FOUND: nfs.NFSERR_NOENT,
    Status.DENIED: nfs.NFSERR_ACCES,
    Status.NOT_AUTHENTICATED: nfs.NFSERR_PERM,
    Status.EXISTS: nfs.NFSERR_EXIST,
    Status.NO_SPACE: nfs.NFSERR_NOSPC,
    Status.NOT_DIR: nfs.NFSERR_NOTDIR,
    Status.IS_DIR: nfs.NFSERR_ISDIR,
    Status.NOT_EMPTY: nfs.NFSERR_NOTEMPTY,
    Status.BAD_REQUEST: nfs.NFSERR_IO,
    Status.SERVER_ERROR: nfs.NFSERR_IO,
    Status.STALE: nfs.NFSERR_STALE,
}


#: Handler class per protocol name (the dispatcher's routing table).
HANDLERS = {
    "chirp": ChirpHandler,
    "http": HttpHandler,
    "ftp": FtpHandler,
    "gridftp": GridFtpHandler,
    "nfs": NfsHandler,
    "ibp": IbpHandler,
}
