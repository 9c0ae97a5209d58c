"""``python perfbench/traced_server.py --spans FILE [serve args...]``

Launches the same server as ``python -m repro serve`` (through the
CLI, so every default is the user's), with the layer wrappers of
:mod:`tracing` installed first.  The spans stay in memory and are
written to ``FILE`` once the server has drained.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_server.py --spans FILE [serve args...]",
              file=sys.stderr)
        return 2
    spans_path, serve_args = argv[1], argv[2:]
    from repro import cli

    rec = tracing.Recorder()
    tracing.install(rec)
    asyncio.set_event_loop_policy(tracing.traced_loop_policy(rec))
    status = cli.main(["serve", *serve_args])
    tracing.dump(rec, spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
