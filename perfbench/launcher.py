"""Start ``repro.netproto.server.main`` with the benchmark's layer wrappers.

    python3 perfbench/launcher.py --spans SPANS.json -- <server arguments>

The wrappers record spans in memory.  On ``SIGUSR1`` the launcher writes
``{"spans": [...], "absent": [...]}`` to the ``--spans`` file (atomically,
via a temporary file and a rename), so the benchmark can collect them
before it kills the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        own, server_argv = argv[:split], argv[split + 1:]
    else:
        own, server_argv = argv, []
    if len(own) != 2 or own[0] != "--spans":
        print("usage: launcher.py --spans PATH -- <server arguments>",
              file=sys.stderr)
        return 2
    spans_path = Path(own[1])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing

    tracer = tracing.Tracer("server")
    tracing.install(tracer)

    def dump(signum: int, frame: object) -> None:
        temporary = spans_path.with_suffix(".tmp")
        temporary.write_text(json.dumps({"spans": tracer.closed_spans(),
                                         "absent": tracer.absent}))
        os.replace(temporary, spans_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.netproto import server

    return server.main(server_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
