"""Open a killed server's files until the first query answers.

    python3 perfbench/reopen.py SPEC.json

``SPEC`` names the image (its WAL sits beside it), the first query and its
expected rows, further ``[sql, rows]`` checks, an optional function that
must have survived, and whether to trace.  The last line of standard
output is ``{"seconds", "ok", "spans", "absent"}``: ``seconds`` runs from
``Database(path=...)`` until the first query's rows are decoded.  Running
in a fresh process keeps the generator's heap out of the timing.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing
    from perfbench.workloads import rows_match

    tracer = tracing.Tracer("reopen")
    if spec["trace"]:
        tracing.install(tracer)
    from repro.sqldb.database import Database
    # Database imports the persist package lazily on its first durable
    # open; import it here so the timing is the open, not module loading
    import repro.sqldb.persist  # noqa: F401

    started = time.perf_counter()
    database = Database(path=spec["path"], workers=spec["workers"])
    try:
        rows = database.execute(spec["first_sql"]).fetchall()
        seconds = time.perf_counter() - started
        ok = rows_match(rows, spec["expect_first"])
        for sql, expected in spec["checks"]:
            ok = ok and rows_match(database.execute(sql).fetchall(), expected)
        if spec.get("function"):
            ok = ok and database.has_function(spec["function"])
    finally:
        # the files are a throwaway copy: close without a checkpoint
        database.persistence.close(checkpoint=False)
        database.scheduler.shutdown()
    print(json.dumps({"seconds": seconds, "ok": ok,
                      "spans": tracer.closed_spans(),
                      "absent": tracer.absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
