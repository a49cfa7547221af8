"""Row fetching builds rows a column at a time: any interleaving of
``fetchone``/``fetchmany``/``fetchall`` (and ``result()``) over any chunking,
on every protocol version, returns exactly the engine's own rows in order.

The table mixes NULLs into every column kind the wire decodes differently:
fixed-width BIGINT/DOUBLE/BOOLEAN buffers with a mask, a low-cardinality
STRING shipped as a dictionary (v3+), and a unique STRING shipped as
offsets + blob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netproto.client import Connection
from repro.netproto.columnar import TAG_DICT, TAG_UTF8
from repro.netproto.messages import ColumnarResultAssembler
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType
from repro.sqldb.vector import Vector

SQL = "SELECT b, f, flag, d, p FROM t"
COLORS = ["red", "green", "blue"]

#: (protocol version, stream_results): v1 ships one payload, v2/v3 counted
#: chunks, v4 either streamed (unknown count, ``last`` flag) or counted.
PROTOCOLS = [(1, False), (2, False), (3, False), (4, False), (4, True)]


def maybe(strategy):
    return st.one_of(st.none(), strategy)


row_values = st.tuples(
    maybe(st.integers(-2**63, 2**63 - 1)),
    maybe(st.floats(allow_nan=False)),
    maybe(st.booleans()),
    maybe(st.sampled_from(COLORS)),
    st.booleans(),  # whether the unique STRING cell is NULL
)


def table_rows(drawn):
    """Give each row a unique plain string so that column never qualifies
    for dictionary encoding."""
    return [(b, f, flag, d, None if null else f"p{index}-{b}")
            for index, (b, f, flag, d, null) in enumerate(drawn)]


def make_server(rows, *, chunk_rows, stream_results):
    server = DatabaseServer(result_chunk_rows=chunk_rows,
                            stream_results=stream_results)
    server.database.execute(
        "CREATE TABLE t (b BIGINT, f DOUBLE, flag BOOLEAN, d STRING, p STRING)")
    server.database.storage.table("t").insert_rows(rows)
    return server


operations = st.lists(st.one_of(
    st.just(("one",)),
    st.tuples(st.just("many"), st.integers(0, 70)),
    st.just(("all",)),
    st.just(("result",)),
), max_size=12)


class TestFetchInterleavings:
    @settings(max_examples=80, deadline=None)
    @given(drawn=st.lists(row_values, max_size=60),
           data=st.data(),
           protocol=st.sampled_from(PROTOCOLS),
           ops=operations)
    def test_any_interleaving_returns_the_engine_rows(self, drawn, data,
                                                      protocol, ops):
        rows = table_rows(drawn)
        chunk_rows = data.draw(st.integers(1, len(rows) + 1), label="chunk_rows")
        version, streamed = protocol
        server = make_server(rows, chunk_rows=chunk_rows,
                             stream_results=streamed)
        expected = server.database.execute(SQL).fetchall()
        assert expected == rows  # the oracle is the inserted data itself
        connection = Connection.connect_in_process(
            server, max_protocol_version=version)
        stream = connection.execute_stream(SQL)
        position = 0
        for op in ops:
            if op[0] == "one":
                row = stream.fetchone()
                assert row == (expected[position]
                               if position < len(expected) else None)
                position += row is not None
            elif op[0] == "many":
                got = stream.fetchmany(op[1])
                assert got == expected[position:position + op[1]]
                position += len(got)
            elif op[0] == "all":
                assert stream.fetchall() == expected[position:]
                position = len(expected)
            else:
                # the complete result, whatever was fetched before
                assert stream.result().fetchall() == expected
                assert stream.complete
        assert stream.fetchall() == expected[position:]

        def no_reads():
            raise AssertionError("fetch on an exhausted stream read the transport")

        connection._transport.receive = no_reads
        assert stream.fetchone() is None
        assert stream.fetchmany(5) == []
        assert stream.fetchmany(0) == []
        assert stream.fetchall() == []
        assert stream.result().row_count == len(expected)

    @pytest.mark.parametrize("version,streamed", PROTOCOLS)
    def test_fetch_sizes_that_straddle_chunks(self, version, streamed):
        rows = table_rows([(i, i / 4, i % 2 == 0, COLORS[i % 3], False)
                           for i in range(50)])
        server = make_server(rows, chunk_rows=7, stream_results=streamed)
        connection = Connection.connect_in_process(
            server, max_protocol_version=version)
        cursor = connection.cursor()
        cursor.execute(SQL)
        got = [cursor.fetchone()]
        for size in (0, 6, 3, 11, 1, 20):  # 7 and 21 end on a chunk edge
            got.extend(cursor.fetchmany(size))
            if version > 1 and not streamed:
                # only the chunks that hold the requested rows were read
                assert cursor._stream.chunks_received == -(-len(got) // 7)
        got.extend(cursor.fetchall())
        assert got == rows

    def test_negative_size_fetches_nothing(self):
        server = make_server(table_rows([(1, 1.0, True, "red", False)] * 3),
                             chunk_rows=2, stream_results=True)
        stream = Connection.connect_in_process(server).execute_stream(SQL)
        assert stream.fetchmany(-1) == []
        assert len(stream.fetchall()) == 3

    def test_low_cardinality_column_ships_as_a_dictionary(self, monkeypatch):
        """Guards the premise above: ``d`` takes the dictionary decode path
        and ``p`` the offsets + blob path."""
        tags: list[dict[str, int]] = []
        add_chunk = ColumnarResultAssembler.add_chunk

        def spy(self, message):
            columns = add_chunk(self, message)
            tags.append({column.name: column.tag for column in columns})
            return columns

        monkeypatch.setattr(ColumnarResultAssembler, "add_chunk", spy)
        rows = table_rows([(i, None, None, COLORS[i % 3] if i % 5 else None,
                            i % 4 == 0) for i in range(40)])
        server = make_server(rows, chunk_rows=40, stream_results=False)
        stream = Connection.connect_in_process(server).execute_stream(SQL)
        assert stream.fetchall() == rows
        assert [(tag["d"], tag["p"]) for tag in tags] == [(TAG_DICT, TAG_UTF8)]


class TestQueryResultRowEdges:
    def test_zero_column_result(self):
        result = QueryResult.empty()
        assert list(result.rows()) == []
        assert result.fetchone() is None
        assert result.fetchall() == []

    def test_zero_row_result(self):
        database = Database()
        database.execute("CREATE TABLE t (a BIGINT, s STRING)")
        result = database.execute("SELECT a, s FROM t")
        assert result.column_names == ["a", "s"]
        assert list(result.rows()) == []
        assert result.fetchone() is None
        assert result.fetchall() == []

    def test_zero_row_lazy_columns(self):
        result = QueryResult([
            ResultColumn.lazy("a", SQLType.BIGINT, 0, lambda: ([], None)),
            ResultColumn("b", SQLType.DOUBLE, []),
        ])
        assert result.fetchall() == []
        assert result.fetchone() is None

    def test_rows_zip_every_column_backing(self):
        result = QueryResult([
            ResultColumn("l", SQLType.BIGINT, [1, None, 3]),
            ResultColumn.from_arrays("a", SQLType.DOUBLE,
                                     np.array([0.5, 0.0, 2.5]),
                                     np.array([False, True, False])),
            ResultColumn.from_vector(
                "v", SQLType.STRING,
                Vector.from_values(["x", "y", None], SQLType.STRING)),
        ])
        assert result.fetchone() == (1, 0.5, "x")
        assert result.fetchall() == [(1, 0.5, "x"), (None, None, "y"),
                                     (3, 2.5, None)]
        assert list(result.rows()) == result.fetchall()
