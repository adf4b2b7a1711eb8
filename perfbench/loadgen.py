"""Open-loop request generator and wire client for the serve_repeat workload.

Requests fall due on a fixed schedule, whatever the daemon is doing. A
request goes out on a free connection as soon as it is due; when every
connection is waiting for a reply, the next request goes out late, when one
frees. Latency is timed from the due time, so a stall that delays later
sends is charged to the requests it delayed, and lateness (send time minus
due time) says how far behind the generator ran. One thread drives every
connection, so the generator adds no lock or scheduler hand-off of its own
to the latencies it measures.
"""

import json
import selectors
import socket
import time


class Record:
    """One scheduled request: its due, send and reply times (seconds)."""

    __slots__ = ("index", "due", "sent", "done", "reply", "error")

    def __init__(self, index, due):
        self.index = index
        self.due = due
        self.sent = None
        self.done = None
        self.reply = None
        self.error = None

    @property
    def latency(self):
        """Reply time minus due time, or None if the request got no reply."""
        return None if self.done is None or self.error else self.done - self.due

    @property
    def lateness(self):
        """Send time minus due time (never negative: sends wait until due)."""
        return None if self.sent is None else self.sent - self.due


def run_open_loop(due_offsets, transport, connections, clock=time.monotonic):
    """Send request i at due_offsets[i] seconds after the start.

    transport.send(conn, i) writes request i on connection conn without
    waiting; transport.wait(timeout) blocks up to timeout seconds (None:
    until something happens) and returns [(conn, reply)] for the replies
    that arrived, an Exception standing for the reply of a request that
    will get none; that connection is not used again. Returns one Record
    per request, in due order.
    """
    start = clock()
    records = [Record(i, start + d) for i, d in enumerate(due_offsets)]
    free = list(range(connections))
    busy = {}
    nxt = 0
    while nxt < len(records) or busy:
        while nxt < len(records) and free and records[nxt].due <= clock():
            conn = free.pop(0)
            rec = records[nxt]
            nxt += 1
            rec.sent = clock()
            try:
                transport.send(conn, rec.index)
            except Exception as exc:  # a broken connection is not reused
                rec.error = str(exc) or type(exc).__name__
                rec.done = rec.sent
                continue
            busy[conn] = rec
        if not free and not busy:
            for rec in records[nxt:]:
                rec.error = "no connection left"
            break
        timeout = None
        if nxt < len(records) and free:
            timeout = max(records[nxt].due - clock(), 0.0)
        for conn, reply in transport.wait(timeout):
            rec = busy.pop(conn, None)
            if rec is None:
                continue
            rec.done = clock()
            if isinstance(reply, Exception):
                rec.error = str(reply) or type(reply).__name__
            else:
                rec.reply = reply
                free.append(conn)
    return records


class Connection:
    """A blocking newline-JSON client connection to the daemon's socket."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def send(self, message):
        self.sock.sendall(message)

    def read_line(self):
        """The next reply line, decoded; blocks up to the socket timeout."""
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, message):
        self.send(json.dumps(message).encode() + b"\n")
        return self.read_line()

    def close(self):
        self.sock.close()


class SocketTransport:
    """run_open_loop's transport over daemon connections: requests are
    pre-encoded lines, replies are read as they arrive."""

    def __init__(self, connections, lines, reply_timeout):
        self.conns = connections
        self.lines = lines
        self.reply_timeout = reply_timeout
        self.selector = selectors.DefaultSelector()
        for i, c in enumerate(connections):
            self.selector.register(c.sock, selectors.EVENT_READ, i)

    def send(self, conn, index):
        self.conns[conn].send(self.lines[index])

    def wait(self, timeout):
        # Replies come whole in practice; read_line blocks (bounded by the
        # socket timeout) for the rest of a line that arrived in pieces.
        cap = self.reply_timeout if timeout is None else timeout
        events = self.selector.select(cap)
        if not events and timeout is None:
            return [(i, TimeoutError("no reply within %gs" % cap))
                    for i in range(len(self.conns))]
        out = []
        for key, _ in events:
            try:
                out.append((key.data, self.conns[key.data].read_line()))
            except (OSError, ValueError) as exc:
                self.selector.unregister(key.fileobj)
                out.append((key.data, exc))
        return out

    def close(self):
        self.selector.close()


def wait_until_ready(path, timeout, is_alive):
    """Ping the daemon until it answers; False if it died or time ran out."""
    end = time.monotonic() + timeout
    while time.monotonic() < end and is_alive():
        try:
            conn = Connection(path, 5.0)
            try:
                if conn.call({"type": "ping"}).get("type") == "pong":
                    return True
            finally:
                conn.close()
        except OSError:
            time.sleep(0.005)
    return False
