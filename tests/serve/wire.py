"""Raw HTTP exchanges with a front end, below the client helpers.

A *target* is what the client helpers take: a unix socket path or an
``http://host:port`` URL.  These helpers write hand-made request bytes
(a missing or oversized ``Content-Length``, a body that is not JSON) and
read the one reply back.
"""

import http.client
import json
import socket
from urllib.parse import urlsplit


def connect(target, timeout=30.0):
    """An open stream socket to ``target``."""
    if target.startswith("http://"):
        url = urlsplit(target)
        return socket.create_connection((url.hostname, url.port),
                                        timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(target)
    return sock


def exchange(target, request, timeout=30.0):
    """Send ``request`` bytes; return ``(status, reply dict)``."""
    sock = connect(target, timeout)
    try:
        sock.sendall(request)
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        return reply.status, json.loads(reply.read())
    finally:
        sock.close()


def post(target, path, body, timeout=30.0):
    """POST ``body`` with an honest ``Content-Length``."""
    head = ("POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            "Connection: close\r\n\r\n" % (path, len(body)))
    return exchange(target, head.encode() + body, timeout)


def head_only(target, path, headers):
    """POST a header block with no body (the server must not wait for
    one); ``headers`` is the raw text of the extra header lines."""
    return exchange(target, ("POST %s HTTP/1.1\r\nHost: x\r\n%s"
                             "Connection: close\r\n\r\n"
                             % (path, headers)).encode())
