"""Seeded inputs for the four workloads and the NumPy references that check them.

Everything here is a pure function of ``(seed, sizes)``: the same seed gives
the same table contents, the same statement streams and the same expected
answers.  The engine under test only ever receives the generated inputs
(table images, SQL text); the references are computed from the generated
NumPy columns, never from the engine's own output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

NAMES = tuple(f"name_{i:02d}" for i in range(64))
NAME_INDEX = {name: index for index, name in enumerate(NAMES)}
GROUPS = tuple(f"grp_{i}" for i in range(8))
#: Keys of ingested rows start here, above every generated ``big.k``, so the
#: durability check can find exactly the acknowledged rows.
INGEST_K_BASE = 10_000_000
OLAP_KINDS = ("scan_agg", "string_group", "null_agg", "join_probe", "point")
#: The ``mean_deviation`` line that differs between the buggy and fixed body.
BUGGY_LINE = "column[i] - mean"
FIXED_LINE = "abs(column[i] - mean)"


@dataclass(frozen=True)
class Sizes:
    """Data sizes and mix parameters of one benchmark configuration."""

    big_rows: int = 500_000
    k_range: int = 100_000
    dim_rows: int = 500
    numbers_rows: int = 100_000
    export_rows: tuple[int, int] = (20_000, 100_000)
    ingest_batch: int = 500
    ingest_read_every: int = 20
    ingest_checkpoint_rows: int = 20_000
    ingest_tail_batches: int = 10
    olap_hot: int = 20
    olap_cold: int = 20_000
    olap_hot_share: float = 0.25
    olap_check_share: float = 0.125
    setup_reps: int = 3


FULL = Sizes()
#: A configuration small enough for the benchmark's own smoke tests.
SMOKE = Sizes(big_rows=4_000, k_range=800, dim_rows=50, numbers_rows=2_000,
              export_rows=(200, 1_000), ingest_batch=50,
              ingest_checkpoint_rows=1_000, ingest_tail_batches=5,
              olap_hot=5, olap_cold=200,
              olap_check_share=0.5, setup_reps=2)


@dataclass(frozen=True)
class Statement:
    kind: str
    sql: str
    params: tuple


# --------------------------------------------------------------------------- #
# table data
# --------------------------------------------------------------------------- #
@dataclass
class BigData:
    """``big(k, name, v, nv)`` and ``dim(id, grp, w)`` as NumPy columns."""

    k: np.ndarray
    name: np.ndarray      # index into NAMES
    v: np.ndarray
    nv: np.ndarray        # value at non-NULL positions
    nv_null: np.ndarray   # True where nv IS NULL
    dim_id: np.ndarray
    dim_grp: np.ndarray   # index into GROUPS
    dim_w: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.k) + len(self.dim_id)


def big_data(seed: int, sizes: Sizes) -> BigData:
    rng = np.random.default_rng([seed, 1])
    n = sizes.big_rows
    return BigData(
        k=rng.integers(0, sizes.k_range, n),
        name=rng.integers(0, len(NAMES), n),
        v=np.round(rng.random(n) * 1000.0, 3),
        nv=np.round(rng.random(n) * 100.0, 3),
        nv_null=rng.random(n) < 0.2,
        dim_id=np.arange(sizes.dim_rows),
        dim_grp=rng.integers(0, len(GROUPS), sizes.dim_rows),
        dim_w=np.round(rng.random(sizes.dim_rows) * 1000.0, 3),
    )


def numbers_data(seed: int, sizes: Sizes) -> np.ndarray:
    return np.random.default_rng([seed, 4]).integers(
        -1000, 1000, sizes.numbers_rows)


def _with_nulls(values: np.ndarray, nulls: np.ndarray) -> list[Any]:
    out = values.tolist()
    for index in np.flatnonzero(nulls).tolist():
        out[index] = None
    return out


def _load_columns(database: Any, table: str,
                  columns: Sequence[list[Any]]) -> None:
    """Bulk-load value lists straight into storage (made durable by the
    checkpoint that follows, like any storage-level bulk loader)."""
    stored = database.storage.table(table)
    for column, values in zip(stored.columns, columns):
        column.values = values
        column.mark_dirty()


def _finish_image(database: Any) -> None:
    database.checkpoint()
    # the checkpoint above already wrote the image; close without a second
    database.persistence.close(checkpoint=False)
    database.scheduler.shutdown()


def build_big_image(path: Path, data: BigData) -> None:
    """Write the ``big`` + ``dim`` image the olap, export and ingest
    servers open with ``--db``."""
    from repro.sqldb.database import Database

    database = Database(path=str(path))
    database.execute(
        "CREATE TABLE big (k INTEGER, name STRING, v DOUBLE, nv DOUBLE)")
    database.execute("CREATE TABLE dim (id INTEGER, grp STRING, w DOUBLE)")
    names = np.array(NAMES, dtype=object)
    groups = np.array(GROUPS, dtype=object)
    _load_columns(database, "big", [
        data.k.tolist(), names[data.name].tolist(), data.v.tolist(),
        _with_nulls(data.nv, data.nv_null)])
    _load_columns(database, "dim", [
        data.dim_id.tolist(), groups[data.dim_grp].tolist(),
        data.dim_w.tolist()])
    _finish_image(database)


def build_numbers_image(path: Path, values: np.ndarray) -> None:
    """Write the ``numbers`` image with the buggy ``mean_deviation`` UDF."""
    from repro.sqldb.database import Database
    from repro.workloads.udf_corpus import mean_deviation_create_sql

    database = Database(path=str(path))
    database.execute("CREATE TABLE numbers (i INTEGER)")
    _load_columns(database, "numbers", [values.tolist()])
    database.execute(mean_deviation_create_sql())
    _finish_image(database)


# --------------------------------------------------------------------------- #
# olap: a finite, skewed statement pool
# --------------------------------------------------------------------------- #
def _olap_statement(rng: random.Random, sizes: Sizes,
                    kind: str) -> Statement:
    if kind == "scan_agg":
        lo = rng.randrange(0, 900)
        hi = lo + rng.randrange(50, 100)
        return Statement(kind, "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) "
                         f"FROM big WHERE v BETWEEN {lo} AND {hi}", (lo, hi))
    if kind == "string_group":
        width = rng.randrange(sizes.k_range // 20, sizes.k_range // 5)
        lo = rng.randrange(0, sizes.k_range - width)
        hi = lo + width
        return Statement(kind, "SELECT name, COUNT(*), SUM(v) FROM big "
                         f"WHERE k BETWEEN {lo} AND {hi} GROUP BY name",
                         (lo, hi))
    if kind == "null_agg":
        name = rng.randrange(len(NAMES))
        bound = rng.randrange(100, 1000)
        return Statement(kind, "SELECT COUNT(nv), SUM(nv), AVG(nv), COUNT(*) "
                         f"FROM big WHERE name = '{NAMES[name]}' "
                         f"AND v < {bound}", (name, bound))
    if kind == "join_probe":
        w_min = rng.randrange(0, 900)
        v_max = rng.randrange(100, 1000)
        return Statement(kind, "SELECT d.grp, COUNT(*), SUM(b.v) FROM big b "
                         f"JOIN dim d ON b.k = d.id WHERE d.w > {w_min} "
                         f"AND b.v < {v_max} GROUP BY d.grp", (w_min, v_max))
    key = rng.randrange(0, sizes.k_range)
    return Statement(kind, f"SELECT k, name, v, nv FROM big WHERE k = {key}",
                     (key,))


@dataclass
class OlapPool:
    """Per statement kind, a small hot set and a large cold set."""

    hot: dict[str, list[Statement]]
    cold: dict[str, list[Statement]]


def olap_pool(seed: int, sizes: Sizes) -> OlapPool:
    rng = random.Random(seed * 1_000 + 11)
    kinds = len(OLAP_KINDS)
    return OlapPool(
        hot={kind: [_olap_statement(rng, sizes, kind)
                    for _ in range(max(1, sizes.olap_hot // kinds))]
             for kind in OLAP_KINDS},
        cold={kind: [_olap_statement(rng, sizes, kind)
                     for _ in range(max(1, sizes.olap_cold // kinds))]
              for kind in OLAP_KINDS})


def olap_stream(seed: int, client: int, pool: OlapPool,
                sizes: Sizes) -> Iterator[tuple[Statement, bool]]:
    """One client's statements, each with whether its answer is checked.

    Statement kinds rotate in a fixed order (client ``c`` starts ``c``
    kinds in), so every run has the same mix.  Every
    ``1 / olap_hot_share``-th statement comes from its kind's small hot
    set and so repeats; the rest come from the large cold set and rarely
    repeat.
    """
    rng = random.Random(seed * 1_000 + 100 + client)
    hot_every = max(1, round(1 / sizes.olap_hot_share))
    position = client
    while True:
        kind = OLAP_KINDS[position % len(OLAP_KINDS)]
        source = pool.hot if position % hot_every == hot_every - 1 \
            else pool.cold
        yield (rng.choice(source[kind]),
               rng.random() < sizes.olap_check_share)
        position += 1


def _none_if_empty(count: int, value: float) -> float | None:
    return float(value) if count else None


def olap_reference(statement: Statement, data: BigData) -> list[tuple]:
    """The expected rows of one olap statement, from the NumPy columns."""
    kind, params = statement.kind, statement.params
    if kind == "scan_agg":
        lo, hi = params
        selected = data.v[(data.v >= lo) & (data.v <= hi)]
        count = len(selected)
        return [(count, _none_if_empty(count, selected.sum()),
                 _none_if_empty(count, selected.min() if count else 0),
                 _none_if_empty(count, selected.max() if count else 0))]
    if kind == "string_group":
        lo, hi = params
        mask = (data.k >= lo) & (data.k <= hi)
        return _grouped(data.name[mask], data.v[mask], NAMES)
    if kind == "null_agg":
        name, bound = params
        mask = (data.name == name) & (data.v < bound)
        present = data.nv[mask & ~data.nv_null]
        count = len(present)
        total = present.sum()
        return [(count, _none_if_empty(count, total),
                 _none_if_empty(count, total / count if count else 0),
                 int(mask.sum()))]
    if kind == "join_probe":
        w_min, v_max = params
        probe = (data.k < len(data.dim_id)) & (data.v < v_max)
        keys = data.k[probe]
        matched = data.dim_w[keys] > w_min
        return _grouped(data.dim_grp[keys][matched], data.v[probe][matched],
                        GROUPS)
    (key,) = params
    mask = data.k == key
    return [(int(k), NAMES[n], float(v), None if null else float(nv))
            for k, n, v, nv, null in zip(data.k[mask], data.name[mask],
                                         data.v[mask], data.nv[mask],
                                         data.nv_null[mask])]


def _grouped(codes: np.ndarray, values: np.ndarray,
             labels: Sequence[str]) -> list[tuple]:
    counts = np.bincount(codes, minlength=len(labels))
    sums = np.bincount(codes, weights=values, minlength=len(labels))
    return [(labels[index], int(counts[index]), float(sums[index]))
            for index in np.flatnonzero(counts).tolist()]


def _value_key(value: Any) -> tuple:
    return (value is None, "" if value is None else value)


def rows_match(actual: Sequence[Sequence[Any]],
               expected: Sequence[Sequence[Any]]) -> bool:
    """Order-insensitive row comparison; floats to 1e-9 relative."""
    if len(actual) != len(expected):
        return False

    def key(row: Sequence[Any]) -> tuple:
        return tuple(_value_key(value) for value in row)

    for got, want in zip(sorted(actual, key=key), sorted(expected, key=key)):
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if a is None or b is None or isinstance(a, str) \
                    or isinstance(b, str):
                if a != b:
                    return False
            elif not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                return False
    return True


# --------------------------------------------------------------------------- #
# export: distinct large range fetches, checked by per-column checksums
# --------------------------------------------------------------------------- #
def export_stream(seed: int, sizes: Sizes) -> Iterator[Statement]:
    """Distinct ``k`` ranges returning ``export_rows`` rows each.

    Result sizes rotate through five evenly spaced steps of the
    ``export_rows`` range, so every run fetches the same size mix.
    """
    rng = random.Random(seed * 1_000 + 21)
    rows_per_key = sizes.big_rows / sizes.k_range
    low, high = sizes.export_rows
    steps = [low + (high - low) * step // 4 for step in range(5)]
    seen: set[tuple[int, int]] = set()
    position = 0
    while True:
        width = max(1, round(steps[position % len(steps)] / rows_per_key))
        lo = rng.randrange(0, sizes.k_range - width)
        hi = lo + width - 1
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        position += 1
        yield Statement("export", "SELECT k, name, nv FROM big "
                        f"WHERE k BETWEEN {lo} AND {hi}", (lo, hi))


def export_checksum(rows: Sequence[Sequence[Any]]) -> tuple:
    """``(rows, sum k, sum name index, non-NULL nv count, sum nv)``."""
    present = [row[2] for row in rows if row[2] is not None]
    return (len(rows), sum(row[0] for row in rows),
            sum(NAME_INDEX[row[1]] for row in rows), len(present),
            math.fsum(present))


def export_reference(statement: Statement, data: BigData) -> tuple:
    lo, hi = statement.params
    mask = (data.k >= lo) & (data.k <= hi)
    present = data.nv[mask & ~data.nv_null]
    return (int(mask.sum()), int(data.k[mask].sum()),
            int(data.name[mask].sum()), len(present), math.fsum(present))


def checksums_match(actual: tuple, expected: tuple) -> bool:
    return actual[:4] == expected[:4] and math.isclose(
        actual[4], expected[4], rel_tol=1e-9, abs_tol=1e-6)


# --------------------------------------------------------------------------- #
# ingest: 500-row INSERT batches with keys above INGEST_K_BASE
# --------------------------------------------------------------------------- #
@dataclass
class IngestBatch:
    index: int
    sql: str
    name: np.ndarray
    v: np.ndarray


def ingest_batches(seed: int, sizes: Sizes) -> Iterator[IngestBatch]:
    rng = np.random.default_rng([seed, 3])
    rows = sizes.ingest_batch
    index = 0
    while True:
        names = rng.integers(0, len(NAMES), rows)
        v = np.round(rng.random(rows) * 1000.0, 3)
        nv = np.round(rng.random(rows) * 100.0, 3)
        nulls = rng.random(rows) < 0.2
        first = INGEST_K_BASE + index * rows
        values = ",".join(
            f"({first + offset},'{NAMES[name]}',{value!r},"
            f"{'NULL' if null else repr(extra)})"
            for offset, (name, value, extra, null) in enumerate(zip(
                names.tolist(), v.tolist(), nv.tolist(), nulls.tolist())))
        yield IngestBatch(index, f"INSERT INTO big VALUES {values}", names, v)
        index += 1


INGEST_READ_SQL = "SELECT name, COUNT(*), SUM(v) FROM big GROUP BY name"


class IngestExpectation:
    """Running per-name counts and sums of the base table plus every
    acknowledged batch: what ``INGEST_READ_SQL`` must return."""

    def __init__(self, data: BigData) -> None:
        self.counts = np.bincount(data.name, minlength=len(NAMES))
        self.sums = np.bincount(data.name, weights=data.v,
                                minlength=len(NAMES))
        self.base_rows = len(data.k) + len(data.dim_id)
        self.acked: list[int] = []
        self.batch_rows = 0

    def ack(self, batch: IngestBatch) -> None:
        self.counts += np.bincount(batch.name, minlength=len(NAMES))
        self.sums += np.bincount(batch.name, weights=batch.v,
                                 minlength=len(NAMES))
        self.acked.append(batch.index)
        self.batch_rows = len(batch.name)

    @property
    def acked_rows(self) -> int:
        return len(self.acked) * self.batch_rows

    def grouped(self) -> list[tuple]:
        return [(NAMES[index], int(self.counts[index]),
                 float(self.sums[index]))
                for index in np.flatnonzero(self.counts).tolist()]

    def key_summary(self) -> tuple:
        """``(count, sum k)`` of the ingested keys (``k >= INGEST_K_BASE``)."""
        total = 0
        for index in self.acked:
            first = INGEST_K_BASE + index * self.batch_rows
            total += self.batch_rows * first \
                + self.batch_rows * (self.batch_rows - 1) // 2
        return (self.acked_rows, total)


INGEST_KEY_SQL = (f"SELECT COUNT(*), SUM(k) FROM big "
                  f"WHERE k >= {INGEST_K_BASE}")


# --------------------------------------------------------------------------- #
# udf_debug: the paper's loop on mean_deviation
# --------------------------------------------------------------------------- #
UDF_NAME = "mean_deviation"
UDF_DEBUG_QUERY = "SELECT mean_deviation(i) FROM numbers"


def toggle_udf_source(source: str) -> tuple[str, bool]:
    """Swap the buggy and fixed ``mean_deviation`` line; returns the new
    source and whether it is now the fixed body."""
    if FIXED_LINE in source:
        return source.replace(FIXED_LINE, BUGGY_LINE), False
    return source.replace(BUGGY_LINE, FIXED_LINE), True


def mean_deviation_reference(values: np.ndarray, fixed: bool) -> float:
    column = values.astype(np.float64)
    deviations = column - column.mean()
    return float(np.abs(deviations).mean() if fixed else deviations.mean())
