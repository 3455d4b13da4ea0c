"""The module hygiene check of ``tests/conftest.py`` (``leaks_since``, which
the autouse ``module_hygiene`` fixture runs around every test module) reports
each leak planted here, and nothing once the leak is cleaned up."""

from __future__ import annotations

import socket
import subprocess
import sys
import threading


def test_an_unwaited_popen_is_reported(hygiene_check):
    leaks = hygiene_check()
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        assert leaks(grace=0.0) == [f"child process {proc.pid} left"]
    finally:
        proc.wait()
    assert leaks(grace=0.0) == []


def test_a_thread_never_joined_is_reported(hygiene_check):
    leaks = hygiene_check()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="planted")
    thread.start()
    try:
        assert leaks(grace=0.05) == ["thread 'planted' still running"]
    finally:
        release.set()
        thread.join()
    assert leaks(grace=0.0) == []


def test_an_unclosed_socket_is_reported(hygiene_check):
    leaks = hygiene_check()
    sock = socket.socket()
    try:
        assert leaks(grace=0.0) == ["1 descriptors open beyond the baseline"]
    finally:
        sock.close()
    assert leaks(grace=0.0) == []
