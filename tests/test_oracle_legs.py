"""Every oracle leg of the union queries produces rows (DuckDB only).

A leg whose SQL selects nothing, or a count row that counts nothing,
checks nothing: a branch on ``x % b`` inside a subsample on ``x % a``
where a and b share a factor reads 0 on working code. Each leg of each
``LegTable`` in ``__ray_entry__`` runs alone against the sf0.001 tables
and must return rows, and every count row of the two count-shaped
queries must count at least one event.
"""

import os

import duckdb
import pytest

import __ray_entry__ as entry

# the driver's sf0.001 tables (TESTDATA.md)
SF_DIR = os.environ.get("GRAFT_SF0001_DIR", os.path.expanduser("~/testdata/sf0.001"))
pytestmark = pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="no sf0.001 tables")

# each union query's LegTable in __ray_entry__
TABLES = {
    "carbon_parse": "_CARBON",
    "trace_decoders": "_TRACE",
    "loki_streams": "_LOKI",
    "scraper_parse": "_SCRAPER",
    "llm_ops": "_LLM",
}


@pytest.fixture(scope="module")
def run():
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    corpus = entry._ensure_corpus_inline(entry._corpus_rows(SF_DIR))

    def sql(text: str):
        text = text.replace("__CORPUS__", f"read_parquet('{corpus}/*.parquet')")
        return con.sql(text.replace("/tmp/otelray_corpus_10000", corpus)).df()

    return sql


@pytest.mark.parametrize("query", sorted(TABLES))
def test_every_leg_returns_rows(run, query):
    table = getattr(entry, TABLES[query])
    empty = [leg.name for leg in table.legs if len(run(table.sql([leg.name]))) == 0]
    assert not empty, f"{query}: legs with no rows at sf0.001: {empty}"
    if table.named:
        got = set(run(entry.oracle_sql()[query])[table.schema.names[0]])
        assert got == {leg.name for leg in table.legs}


@pytest.mark.parametrize("query", ["trace_decoders", "scraper_parse"])
def test_every_count_row_counts(run, query):
    df = run(entry.oracle_sql()[query])
    zero = df[df["count"] <= 0]
    assert zero.empty, f"{query}: count rows that count nothing at sf0.001:\n{zero}"
