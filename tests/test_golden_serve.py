"""Golden serve streams: what both tiers and ``repro run`` answer, pinned.

For each tier and each of ``tiny`` and ``decaying_storm`` (3 snapshots, 50 %,
``round_robin``) one fresh server answers four requests in order — a VAR
miss, a VAR hit and two PYVAR hits — and ``repro run`` answers VAR, PYVAR
and LZ on each scenario, the last two through the scoring step's pool
fan-out wherever it may be taken (``repro.utils.procpool.pool_pays``).
Every NDJSON line and every top-level block of a ``repro run`` document is
pinned by its sha256 (plus one digest of the whole document), so a refactor
that claims "no behaviour change" is checked byte for byte, and a mismatch
names the case and the first event that differs.

The record is keyed by numpy ``major.minor``: float formatting of the
modelled seconds may move with numpy, so an unrecorded version skips.
Re-recording is one command, and its diff is reviewed like code::

    PYTHONPATH=src python tests/test_golden_serve.py
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.cli import main
from repro.serve import ServeApp

RECORD = Path(__file__).parent / "golden" / "serve_streams.json"
RECORD_COMMAND = "PYTHONPATH=src python tests/test_golden_serve.py"
NUMPY = ".".join(np.__version__.split(".")[:2])

TIERS = ("thread", "process")
SCENARIOS = ("tiny", "decaying_storm")
#: The requests each fresh server answers, in order.
REQUESTS = (("VAR", "miss"), ("VAR", "hit"), ("PYVAR", "hit"), ("PYVAR", "hit-2"))
METRICS = ("VAR", "PYVAR", "LZ")


def _payload(scenario: str, metric: str) -> Dict[str, object]:
    return {
        "scenario": scenario, "snapshots": 3, "percent": 50,
        "redistribution": "round_robin", "metric": metric,
    }


def _stream_case(tier: str, scenario: str, index: int) -> str:
    metric, verdict = REQUESTS[index]
    return f"serve/{tier}/{scenario}/{index}-{metric}-{verdict}"


def _run_case(scenario: str, metric: str) -> str:
    return f"run/{scenario}/{metric}"


CASES = [
    _stream_case(tier, scenario, index)
    for tier in TIERS
    for scenario in SCENARIOS
    for index in range(len(REQUESTS))
] + [_run_case(scenario, metric) for scenario in SCENARIOS for metric in METRICS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


async def _post(port: int, payload: Dict[str, object]) -> bytes:
    """One ``POST /run``; the NDJSON body, read to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode("utf-8")
    writer.write(
        f"POST /run HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode("latin-1")
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, stream = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 "), head
    return stream


def _served(tier: str, scenario: str, cache_dir: Path) -> List[bytes]:
    """The four NDJSON bodies one fresh server of ``tier`` streams."""

    async def body() -> List[bytes]:
        app = ServeApp(cache_dir, execution=tier, max_workers=2)
        server = await app.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return [await _post(port, _payload(scenario, metric)) for metric, _ in REQUESTS]
        finally:
            server.close()
            await server.wait_closed()
            app.close()

    return asyncio.run(body())


def _run_document(scenario: str, metric: str) -> bytes:
    """``repro run``'s standard output for the same request."""
    out = io.StringIO()
    argv = ["run", scenario, "--snapshots", "3", "--percent", "50",
            "--redistribution", "round_robin", "--metric", metric]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


def _stream_digests(stream: bytes) -> List[List[str]]:
    """``[label, sha256]`` per NDJSON line; the label names the event."""
    digests = []
    for index, line in enumerate(stream.splitlines()):
        event = json.loads(line)
        digests.append([f"{index}:{event['type']}", _sha(line)])
    return digests


def _document_digests(document: bytes) -> List[List[str]]:
    """``[key, sha256]`` per top-level block, then one for the whole text."""
    parsed = json.loads(document)
    digests = [[key, _sha(json.dumps(value).encode("utf-8"))] for key, value in parsed.items()]
    return digests + [["document", _sha(document)]]


def record_digests() -> Dict[str, List[List[str]]]:
    """Every case's digests, generated now."""
    digests: Dict[str, List[List[str]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tier in TIERS:
            for scenario in SCENARIOS:
                streams = _served(tier, scenario, Path(tmp) / f"{tier}-{scenario}")
                for index, stream in enumerate(streams):
                    digests[_stream_case(tier, scenario, index)] = _stream_digests(stream)
    for scenario in SCENARIOS:
        for metric in METRICS:
            digests[_run_case(scenario, metric)] = _document_digests(
                _run_document(scenario, metric)
            )
    return digests


def _recorded() -> Dict[str, List[List[str]]]:
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if NUMPY not in record:
        pytest.skip(f"no golden serve record for numpy {NUMPY}; re-record with: {RECORD_COMMAND}")
    return record[NUMPY]


@pytest.fixture(scope="module")
def generated():
    _recorded()  # skip before paying for the runs
    return record_digests()


@pytest.mark.parametrize("case", CASES)
def test_matches_the_golden_record(generated, case):
    """Fails on any changed byte of any event, e.g. an ``iteration`` event
    built with ``nreduced + 1`` or a ``start`` event without ``execution``."""
    expected, actual = _recorded()[case], generated[case]
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, (
            f"{case}: event {index} ({want[0]}) differs from the golden record; "
            f"if the change is intended, re-record with: {RECORD_COMMAND}"
        )
    assert len(actual) == len(expected), (
        f"{case}: {len(actual)} events, the golden record has {len(expected)}"
    )


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


if __name__ == "__main__":
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record[NUMPY] = record_digests()
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record[NUMPY])} cases for numpy {NUMPY} in {RECORD}", file=sys.stderr)
