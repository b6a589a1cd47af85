"""SIGTERM on a foreground sweep server with a client connection open.

``serve()`` turns SIGTERM into a loop-level stop: the listener closes,
every open connection closes as a normal close, then the pool and the
store stop.  Raising the signal into whatever task was running instead
logged "Unhandled exception in client_connected_cb" / ``CancelledError``
tracebacks on stderr.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

from repro.service import protocol

SRC = Path(__file__).resolve().parents[2] / "src"


def test_sigterm_with_an_idle_client_connection_exits_clean(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_RESULTS_DIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.bench", "--serve", "127.0.0.1:0",
         "--jobs", "1", "--cache", str(tmp_path / "cache.checkpoint.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout is not None
        banner = proc.stdout.readline()
        assert banner.startswith("sweep server listening on "), banner
        host, port = banner.split()[-1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            with sock.makefile("rwb") as fh:
                # One answered request proves a handler owns the
                # connection; it then sits idle in its next read.
                fh.write(protocol.format_frame({"op": "ping"}))
                fh.flush()
                assert protocol.parse_frame(fh.readline())["op"] == "pong"
                proc.send_signal(signal.SIGTERM)
                _out, err = proc.communicate(timeout=60)
                # the server closed the idle connection on its way out
                assert fh.readline() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "Traceback" not in err, err
    assert "Unhandled exception" not in err, err
