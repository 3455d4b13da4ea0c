"""The HTTP protocol of ``python -m repro serve``, as pure functions (sans-IO).

Every decision about a request is made here over bytes and values — no
network read, no await — so every answer, refusals included, is checked
without a server.  :func:`parse_head` takes the request line, the headers and
the body length, :func:`route` the reply or the run:

``GET /health``
    The app's ``health`` document (``status``, cache counters, executor depth).
``GET /scenarios``
    The registered workload names.
``POST /run``
    A JSON body validated by :class:`~repro.serve.procrun.RunRequest` (the
    validator ``python -m repro run`` uses) and its scenario resolved, both
    before :data:`STREAM_HEADER` commits the reply to ``200``; then one
    :func:`encode_event` line per event — ``start`` (with the cache verdict),
    one ``iteration`` per pipeline iteration as it completes, and
    ``summary`` (``repro run``'s contract) or a terminal ``error`` whose
    ``reason`` is ``"timeout"``, ``"shutdown"`` or ``"exception"``.

Refusals: a request line that is not ``METHOD PATH VERSION``, a
``Content-Length`` that is not a plain number and a refused ``/run`` body are
``400``; an unregistered scenario (naming the registered ones) and any other
route ``404``; a body above :data:`MAX_BODY_BYTES` ``413``, unread; a head
above :data:`MAX_HEAD_BYTES` ``431``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable, Dict, Union

from repro.scenarios import ScenarioConfig, scenario_names
from repro.serve.procrun import RunRequest, _json_default

__all__ = [
    "HEAD_END", "HEAD_TOO_LARGE", "MAX_BODY_BYTES", "MAX_HEAD_BYTES", "STREAM_HEADER",
    "Head", "Response", "RunPlan", "encode_event", "parse_head", "route",
]

#: Largest request body read; a longer ``Content-Length`` is answered ``413``.
MAX_BODY_BYTES = 64 * 1024

#: Largest request head (request line + headers): the stream limit the server
#: listens with.  A longer one is answered ``431``.
MAX_HEAD_BYTES = 64 * 1024

#: What ends a request head.
HEAD_END = b"\r\n\r\n"

#: The reply head of an accepted run; its NDJSON events follow.
STREAM_HEADER = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
    b"Cache-Control: no-store\r\nConnection: close\r\n\r\n"
)


@dataclass(frozen=True)
class Head:
    """A request head the server takes a body of ``length`` bytes for."""

    method: str
    path: str
    headers: Dict[str, str]
    length: int


@dataclass(frozen=True)
class Response:
    """A whole reply: ``status`` and a JSON ``payload``."""

    status: int
    payload: Dict[str, object]

    def encode(self) -> bytes:
        body = encode_event(self.payload)
        return (
            f"HTTP/1.1 {self.status} {HTTPStatus(self.status).phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n".encode("latin-1")
            + body
        )


@dataclass(frozen=True)
class RunPlan:
    """An accepted ``POST /run``: the validated request and its workload."""

    request: RunRequest
    config: ScenarioConfig


#: The answer to a head longer than :data:`MAX_HEAD_BYTES`.
HEAD_TOO_LARGE = Response(431, {"error": f"request head exceeds {MAX_HEAD_BYTES} bytes"})


def parse_head(raw: bytes) -> Union[Head, Response]:
    """The request line, headers and body length of ``raw``, or the refusal.

    ``raw`` is the head as read through its blank line (which may also be
    left off).  Never raises: any bytes give a :class:`Head` or a
    :class:`Response` with status 400, 413 or 431.
    """
    if raw.endswith(HEAD_END):
        raw = raw[: -len(HEAD_END)]
    if len(raw) > MAX_HEAD_BYTES:
        return HEAD_TOO_LARGE
    lines = raw.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        return Response(400, {"error": f"malformed request line: {lines[0]!r}"})
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        return Response(400, {"error": f"malformed Content-Length {length!r}"})
    if int(length) > MAX_BODY_BYTES:
        return Response(413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
    return Head(method.upper(), path, headers, int(length))


def route(
    head: Head, body: bytes, health: Callable[[], Dict[str, object]]
) -> Union[Response, RunPlan]:
    """The reply to a request, or the run to stream for it.

    Everything that can refuse a ``POST /run`` does so here, before the
    streaming header commits the reply to ``200``.
    """
    endpoint = (head.method, head.path)
    if endpoint == ("GET", "/health"):
        return Response(200, health())
    if endpoint == ("GET", "/scenarios"):
        return Response(200, {"scenarios": scenario_names()})
    if endpoint != ("POST", "/run"):
        return Response(404, {"error": f"no route {head.method} {head.path}"})
    try:
        payload = json.loads(body.decode("utf-8") or "null")
        request = RunRequest.from_payload(payload)
        return RunPlan(request, request.scenario_config())
    except ValueError as exc:  # includes a body that is not UTF-8 JSON
        return Response(400, {"error": str(exc)})
    except KeyError:
        error = f"unknown scenario {request.scenario!r}"
        return Response(404, {"error": error, "available": scenario_names()})


def encode_event(event: Dict[str, object]) -> bytes:
    """One NDJSON line: an event of a run's stream, or a reply's body."""
    return json.dumps(event, default=_json_default).encode("utf-8") + b"\n"
