"""``python -m repro.auto.server`` with the benchmark's spans installed.

Usage: ``traced_server.py SPANS_FILE [server arguments...]``.  SIGTERM
ends the accept loop the way Ctrl-C does, then the spans, the counters
and the daemon's peak RSS are written to SPANS_FILE.
"""

from __future__ import annotations

import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Recorder  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_file, server_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from repro.auto import server

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return server.main(server_args)
    finally:
        recorder.counters["auto.server.rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        recorder.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
