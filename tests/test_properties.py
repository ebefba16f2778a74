"""Property-based tests (hypothesis) for core kernels: the Router against
a per-row reference, severity conversion totality, token checksum sensitivity,
the Arrow aggregate and histogram combines against their pandas
predecessors;
and metamorphic tests of the keyed shuffle (``keyed_apply``,
``two_phase_agg``, ``bucketed_hash_join``, exact dedup's drop ids) and
of the LLM-data keyed jobs (line and passage discovery, token packing)
and of the exact distinct counts (``distinct_count``,
``token_corpus_stats``):
results do not depend on bucket count, input order, block layout or key
skew."""

import collections

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opentelemetry_collector_contrib_ray._util import splitmix64
from opentelemetry_collector_contrib_ray.functions.severity import convert_severity
from opentelemetry_collector_contrib_ray.functions.tokens import token_checksum
from opentelemetry_collector_contrib_ray.stages.parse import Chain, Router


def _add(name, fn):
    """A row-local stage: column ``name`` = ``fn(raw)``."""

    def stage(t: pa.Table) -> pa.Table:
        return t.append_column(name, fn(t["raw"]))

    return stage


# "x" is int32 from branch a and int64 from the default (int64 when both
# take rows); "y" comes from branch b only; branch n has no chain
_ROUTER_CHAINS = {
    "a": Chain([_add("x", pc.utf8_length), _add("shared", pc.utf8_upper)]),
    "b": Chain([_add("y", pc.utf8_reverse), _add("shared", pc.utf8_lower)]),
    "n": None,
    "default": Chain([_add("x", lambda c: pc.cast(pc.utf8_length(c), pa.int64()))]),
}
_ROUTER_PATTERNS = [("a", "^a"), ("b", "b"), ("n", "^n")]


def _router(with_default: bool) -> Router:
    routes = [(name, pat, _ROUTER_CHAINS[name]) for name, pat in _ROUTER_PATTERNS]
    return Router(routes, default=_ROUTER_CHAINS["default"] if with_default else None)


def _router_reference(raw: list, with_default: bool) -> pa.Table:
    """Row by row: the first route whose regex matches, its chain run on
    that row alone; columns in the order the taking branches produce
    them, branches in route order, nulls where a row's branch lacks one."""
    import re

    routes = _ROUTER_PATTERNS + [("default", None)]
    chains = dict(_ROUTER_CHAINS, default=_ROUTER_CHAINS["default"] if with_default else None)
    taken = [
        next(name for name, pat in routes if pat is None or (v is not None and re.search(pat, v)))
        for v in raw
    ]
    row_out = [
        chains[name](pa.table({"raw": pa.array([v], pa.string())})) if chains[name] else None
        for name, v in zip(taken, raw)
    ]
    fields: dict = {}
    for name, _ in routes:
        for r, o in zip(taken, row_out):
            if r == name and o is not None:
                for f in o.schema:
                    if f.name != "raw":
                        fields.setdefault(f.name, []).append(f.type)
                break
    cols = {"raw": pa.array(raw, pa.string()), "p": pa.array(range(len(raw)), pa.int64())}
    cols["route"] = pa.array(taken, pa.string())
    for name, types in fields.items():
        typ = pa.unify_schemas([pa.schema([(name, t)]) for t in types], promote_options="permissive").field(name).type
        cols[name] = pa.array(
            [o[name][0].as_py() if o is not None and name in o.column_names else None for o in row_out], typ
        )
    return pa.table(cols)


_RAW = st.one_of(st.none(), st.text(alphabet="abn-", max_size=3))


@given(st.lists(_RAW, max_size=40), st.booleans(), st.lists(st.integers(min_value=0, max_value=40), max_size=4))
@settings(max_examples=150, deadline=None)
@example(raw=[], with_default=True, cuts=[])
@example(raw=["-", None, "--"], with_default=True, cuts=[1])
@example(raw=["n", "ab", "b", "a-", "-"], with_default=False, cuts=[2])
def test_router_matches_per_row_reference(raw, with_default, cuts):
    """The Router equals the per-row reference on any mix of branches
    (empty and all-default batches, a branch without a chain, columns
    only some branches produce, an int32/int64 column), and the concat
    of its outputs on the slices of any cut of the batch equals its
    output on the whole batch."""
    batch = pa.table({"raw": pa.array(raw, pa.string()), "p": pa.array(range(len(raw)), pa.int64())})
    router = _router(with_default)
    whole = router(batch)
    assert whole.equals(_router_reference(raw, with_default))
    bounds = [0] + sorted(min(c, len(raw)) for c in cuts) + [len(raw)]
    parts = [router(batch.slice(lo, hi - lo)) for lo, hi in zip(bounds, bounds[1:])]
    assert pa.concat_tables(parts, promote_options="permissive").select(whole.column_names).equals(whole)


@given(st.lists(st.integers(min_value=-5, max_value=120), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_severity_conversion_total(levels):
    """Every level maps to a (text, number) pair; number 0 iff Undefined
    (converter.go:532-582 is a total switch)."""
    text, num = convert_severity(np.array(levels, dtype=np.int32))
    for lv, t, n in zip(levels, text, num):
        assert t in {"Trace", "Debug", "Info", "Error", "Fatal", "Undefined"}
        assert (t == "Undefined") == (n == 0)
        if lv <= 0:
            assert t == "Undefined"
        if lv > 0:
            assert n > 0


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=50256), min_size=1, max_size=20),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_token_checksum_order_sensitive(rows):
    """Per-row checksum changes when any token changes or order flips."""
    col = pa.array(rows, pa.list_(pa.int32()))
    base = token_checksum(col)
    # mutate first row's first token
    mutated = [list(r) for r in rows]
    mutated[0][0] = (mutated[0][0] + 1) % 50257
    m1 = token_checksum(pa.array(mutated, pa.list_(pa.int32())))
    assert m1[0] != base[0]
    assert (m1[1:] == base[1:]).all()
    # swapping two distinct tokens changes the row checksum
    if len(rows[0]) >= 2 and rows[0][0] != rows[0][1]:
        swapped = [list(r) for r in rows]
        swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
        s1 = token_checksum(pa.array(swapped, pa.list_(pa.int32())))
        assert s1[0] != base[0]


@given(st.integers(min_value=0, max_value=2**63))
@settings(max_examples=200, deadline=None)
def test_splitmix_deterministic_and_mixing(x):
    a = splitmix64(np.array([x], dtype=np.uint64))
    b = splitmix64(np.array([x], dtype=np.uint64))
    assert a[0] == b[0]
    c = splitmix64(np.array([x + 1], dtype=np.uint64))
    assert a[0] != c[0]


# --------------------------------------------------- keyed shuffle invariance

# (bucket count, input layout): each case must reproduce the pandas
# ground truth of the same rows
SHUFFLE_CASES = [
    pytest.param(1, "base", id="buckets1"),
    pytest.param(7, "base", id="buckets7"),
    pytest.param(64, "base", id="buckets64"),
    pytest.param(7, "permuted", id="permuted"),
    pytest.param(7, "blocks", id="many_blocks_some_empty"),
    pytest.param(7, "hot", id="one_hot_key"),
    pytest.param(1, "permuted", id="buckets1_permuted"),
    pytest.param(1, "blocks", id="buckets1_many_blocks_some_empty"),
    pytest.param(1, "hot", id="buckets1_one_hot_key"),
]


def _events(layout: str) -> pd.DataFrame:
    i = np.arange(48)
    keys = np.full(48, "hot", dtype=object) if layout == "hot" else np.array([f"k{j % 13}" for j in i], dtype=object)
    df = pd.DataFrame({"k": keys, "k2": (i % 3).astype(np.int64), "v": ((i * 37) % 101).astype(np.int64)})
    return df.sample(frac=1.0, random_state=7) if layout == "permuted" else df


def _dataset(df: pd.DataFrame, layout: str):
    import ray.data

    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    if layout == "blocks":
        ds = ds.repartition(64).materialize()  # 48 rows → 64 blocks, some empty
        rows = [m.num_rows for bundle in ds.iter_internal_ref_bundles() for m in bundle.metadata]
        assert len(rows) == 64 and min(rows) == 0
    return ds


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _assert_same_multiset(got: pd.DataFrame, exp: pd.DataFrame):
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False)


@pytest.mark.parametrize("num_buckets, layout", SHUFFLE_CASES)
def test_keyed_apply_invariant(num_buckets, layout):
    from opentelemetry_collector_contrib_ray.stages.aggregate import keyed_apply

    df = _events(layout)

    def per_key(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["k", "k2"]).aggregate([([], "count_all"), ("v", "sum")])
        return pa.table({"k": g["k"], "k2": g["k2"], "n": g["count_all"], "s": g["v_sum"]})

    got = keyed_apply(_dataset(df, layout), ["k", "k2"], per_key, num_buckets=num_buckets).to_pandas()
    exp = df.groupby(["k", "k2"]).agg(n=("v", "size"), s=("v", "sum")).reset_index()
    _assert_same_multiset(got, exp)


# combine batches of 8 rows (ids as in SHUFFLE_CASES), whole blocks and 1 row
AGG_CASES = [pytest.param(*c.values, 8, id=c.id) for c in SHUFFLE_CASES] + [
    pytest.param(*c.values, b, id=f"{c.id}-{name}") for b, name in ((None, "batch_block"), (1, "batch1")) for c in SHUFFLE_CASES
]


@pytest.mark.parametrize("num_buckets, layout, batch_size", AGG_CASES)
def test_two_phase_agg_invariant(num_buckets, layout, batch_size, monkeypatch):
    from opentelemetry_collector_contrib_ray.stages import aggregate

    # two_phase_agg derives its bucket count; pin it per case
    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    df = _events(layout)
    # 8-row and 1-row combine batches: each key's partials span several
    # batches; None combines each block whole
    got = aggregate.two_phase_agg(
        _dataset(df, layout), ["k", "k2"], {"v": ["count", "sum", "min", "max"]}, batch_size=batch_size
    )
    g = df.groupby(["k", "k2"])["v"]
    exp = pd.DataFrame(
        {"count": g.size(), "v_count": g.count(), "v_sum": g.sum(), "v_min": g.min(), "v_max": g.max()}
    ).reset_index()
    _assert_same_multiset(got.to_pandas(), exp)


def _pandas_combine(keys, aggs, exact_sums):
    """The pandas per-batch combiner ``two_phase_agg`` used before its
    Arrow group-by, kept as the reference for ``_partial_stage``."""
    from opentelemetry_collector_contrib_ray._util import table_from_pandas

    def combine(batch: pa.Table) -> pa.Table:
        df_cols = {k: batch[k].to_numpy(zero_copy_only=False) for k in keys}
        for col, fns in aggs.items():
            if col != "*":
                df_cols[col] = batch[col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(df_cols)
        for col, scale in exact_sums.items():
            v = df[col].to_numpy(dtype=np.float64, copy=True)
            v[np.isnan(v)] = 0.0
            df[f"_int_{col}"] = np.rint(v * scale).astype(np.int64)
        g = df.groupby(list(keys), dropna=False, sort=False, observed=True)
        out = g.size().rename("_count").to_frame()
        for col, fns in aggs.items():
            if col == "*":
                continue
            for fn in fns:
                if fn == "count":
                    out[f"{col}__count"] = g[col].count()
                elif fn in ("sum", "mean"):
                    if col in exact_sums:
                        out[f"{col}__isum"] = g[f"_int_{col}"].sum()
                    else:
                        out[f"{col}__sum"] = g[col].sum().astype(np.float64)
                elif fn == "min":
                    out[f"{col}__min"] = g[col].min()
                elif fn == "max":
                    out[f"{col}__max"] = g[col].max()
        return table_from_pandas(out.reset_index())

    return combine


_COMBINE_KEYS = ["k", "fk"]
_COMBINE_AGGS = {"*": ["count"], "f": ["count", "sum", "min", "max", "mean"], "i": ["count", "sum", "min", "max"], "c": ["sum"]}
_NULLABLE_FLOAT = st.one_of(st.none(), st.just(float("nan")), st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e6]))


def _combine_batch(rows) -> pa.Table:
    k, fk, f, i, c = zip(*rows) if rows else ([], [], [], [], [])
    return pa.table(
        {
            "k": pa.array(k, pa.string()),
            "fk": pa.array(fk, pa.float64(), from_pandas=False),
            "f": pa.array(f, pa.float64(), from_pandas=False),
            "i": pa.array(i, pa.int64()),
            "c": pa.array(c, pa.float64(), from_pandas=False),
        }
    )


def _check_combine_matches_pandas(batch: pa.Table):
    from opentelemetry_collector_contrib_ray.stages.aggregate import _partial_stage

    exact = {"c": 100}
    got = _partial_stage(_COMBINE_KEYS, _COMBINE_AGGS, exact)(batch)
    exp = _pandas_combine(_COMBINE_KEYS, _COMBINE_AGGS, exact)(batch)
    assert sorted(got.column_names) == sorted(exp.column_names)
    assert got.num_rows == exp.num_rows
    # one type per partial, whatever the batch holds; min/max keep the
    # column's type (pandas widened an int column with nulls to float64)
    types = {"_count": pa.int64(), "f__count": pa.int64(), "f__sum": pa.float64(), "f__min": pa.float64(),
             "i__count": pa.int64(), "i__sum": pa.float64(), "i__min": pa.int64(), "i__max": pa.int64(),
             "c__isum": pa.int64(), "k": pa.string(), "fk": pa.float64()}
    assert {n: got.schema.field(n).type for n in types} == types
    if got.num_rows:
        # pandas retyped an all-null key column, so compare nulls as None
        def nulls_as_none(t: pa.Table) -> pd.DataFrame:
            df = t.to_pandas().astype(object)
            return df.where(df.notna(), None)

        _assert_same_multiset(nulls_as_none(got), nulls_as_none(exp))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", None]),
            st.sampled_from([1.0, float("nan"), None]),
            _NULLABLE_FLOAT,
            st.one_of(st.none(), st.integers(-3, 3)),
            _NULLABLE_FLOAT,
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_partial_stage_matches_pandas_combine(rows):
    """The Arrow combine reproduces the pandas one on nulls and NaN in
    keys and values, int columns with nulls, exact sums and all-null
    groups: NaN reads as null, null keys form one group."""
    _check_combine_matches_pandas(_combine_batch(rows))


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([], id="empty_batch"),
        pytest.param([("a", None, None, None, None), ("a", float("nan"), float("nan"), None, float("nan"))], id="all_null_group"),
        pytest.param([(None, 1.0, 1.5, 2, 0.125), (None, None, float("nan"), None, 0.135)], id="null_keys_one_group"),
        pytest.param(
            [("a", 1.0, None, None, None)] * 8 + [(None, 1.0, None, None, None)] * 2 + [("a", 1.0, None, None, None)] * 30,
            id="null_string_key_beyond_32_rows",
        ),
    ],
)
def test_partial_stage_edge_batches(rows):
    _check_combine_matches_pandas(_combine_batch(rows))


@pytest.mark.parametrize(
    "types",
    [
        pytest.param((pa.string(), pa.float64()), id="string_float"),
        pytest.param((pa.int16(), pa.int64()), id="int16_int64"),
        pytest.param((pa.bool_(), pa.string(), pa.int32()), id="bool_string_int32"),
    ],
)
@pytest.mark.parametrize("null_every", [3, 1], ids=["some_null", "all_null"])
def test_group_by_keeps_each_null_key_tuple_in_one_group(types, null_every):
    # Arrow 16's grouper alone splits these null keys over several groups
    from opentelemetry_collector_contrib_ray.stages.aggregate import _group_by

    samples = {pa.string(): ["x", ""], pa.float64(): [1.0, 2.5], pa.int16(): [5, 6], pa.int64(): [1, 7],
               pa.bool_(): [True, False], pa.int32(): [3, 4]}
    n = 100
    cols = {
        f"c{j}": [None if (i + j) % null_every == 0 else samples[ty][(i // 7 + j) % 2] for i in range(n)]
        for j, ty in enumerate(types)
    }
    t = pa.table({c: pa.array(v, ty) for (c, v), ty in zip(cols.items(), types)})
    keys = list(cols)
    got = _group_by(t, keys, [([], "count_all")])
    want = collections.Counter(zip(*cols.values()))
    assert {tuple(r[k] for k in keys): r["count_all"] for r in got.to_pylist()} == want
    assert got.num_rows == len(want)
    assert [got.schema.field(k).type for k in keys] == list(types)


def _pandas_hist_combine(keys, value_col, bounds_arr, value_scale):
    """The pandas per-batch combiner ``histogram_agg`` used before its
    Arrow group-by, kept as the reference for ``_hist_partial`` on
    null-free values (it counted a null value in the overflow bucket
    and, with ``value_scale``, in ``call_count`` and ``vsum``)."""
    from opentelemetry_collector_contrib_ray._util import table_from_pandas

    nb = len(bounds_arr) + 1

    def combine(batch: pa.Table) -> pa.Table:
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.searchsorted(bounds_arr, vals, side="left")
        df = pd.DataFrame({k: batch[k].to_numpy(zero_copy_only=False) for k in keys})
        if value_scale is not None:
            df["_v"] = np.rint(vals * value_scale).astype(np.int64)
        else:
            df["_v"] = vals
        g = df.groupby(keys, dropna=False, sort=False, observed=True)
        out = g["_v"].agg(call_count="count", vsum="sum").reset_index()
        codes = g.ngroup().to_numpy()
        mat = np.zeros((out.shape[0], nb), dtype=np.int64)
        np.add.at(mat, (codes, bucket), 1)
        for b in range(nb):
            out[f"bucket_{b}"] = mat[:, b]
        return table_from_pandas(out)

    return combine


_HIST_BOUNDS = np.array([0.5, 2.0, 100.0])


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 2),
            st.one_of(st.sampled_from([-1.0, 0.5, 2.0, 100.0, 1e9]), st.floats(-1e3, 1e3, allow_nan=False)),
        ),
        max_size=40,
    ),
    st.sampled_from([None, 100]),
)
@settings(max_examples=150, deadline=None)
def test_hist_partial_matches_pandas_combine(rows, value_scale):
    """On null-free values the Arrow histogram combine reproduces the
    pandas one: the same groups, counts, buckets (values on a bound
    land in its bucket) and sums — exact when scaled."""
    from opentelemetry_collector_contrib_ray.stages.aggregate import _hist_partial

    k, i, v = zip(*rows) if rows else ([], [], [])
    batch = pa.table({"k": pa.array(k, pa.string()), "i": pa.array(i, pa.int64()), "v": pa.array(v, pa.float64())})
    got = _hist_partial(["k", "i"], "v", _HIST_BOUNDS, value_scale)(batch)
    exp = _pandas_hist_combine(["k", "i"], "v", _HIST_BOUNDS, value_scale)(batch)
    assert got.column_names == exp.column_names
    assert got.schema.field("vsum").type == (pa.int64() if value_scale else pa.float64())
    if not rows:
        assert got.num_rows == 0
        return
    got_df, exp_df = got.to_pandas(), exp.to_pandas()
    if value_scale is None:  # pandas adds floats in compensated order
        assert np.allclose(
            got_df.sort_values(["k", "i"])["vsum"], exp_df.sort_values(["k", "i"])["vsum"], rtol=1e-12, atol=1e-9
        )
        got_df, exp_df = got_df.drop(columns="vsum"), exp_df.drop(columns="vsum")
    _assert_same_multiset(got_df, exp_df)


@pytest.mark.parametrize("num_buckets, layout", SHUFFLE_CASES)
def test_bucketed_hash_join_invariant(num_buckets, layout):
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.join import bucketed_hash_join

    # two null-key rows on each side: a null key never matches
    nulls = pd.DataFrame({"k": [None, None], "k2": np.array([1, 2], np.int64), "v": np.array([5, 6], np.int64)})
    df = pd.concat([_events(layout), nulls], ignore_index=True)
    # two right rows per key (plus one unmatched key): a many-to-many join
    keys = [f"k{j}" for j in range(13)] + ["hot", "absent", None]
    right = pd.DataFrame({"k": keys * 2, "w": np.arange(2 * len(keys), dtype=np.int64)})
    got = bucketed_hash_join(
        _dataset(df, layout), ray.data.from_arrow(pa.Table.from_pandas(right)), "k", num_buckets=num_buckets
    ).to_pandas()
    exp = df.dropna(subset=["k"]).merge(right.dropna(subset=["k"]), on="k")
    _assert_same_multiset(got, exp)
    # every left column keeps its input type
    left_cols = ["k", "k2", "v"]
    pd.testing.assert_frame_equal(_canon(got)[left_cols], _canon(exp)[left_cols], check_dtype=True)


def test_bucketed_hash_join_null_keys_never_match():
    """Both joins: a null key matches nothing, and a right int column
    stays int64 in a batch with unmatched left rows."""
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.join import broadcast_join, bucketed_hash_join

    for keys, rkeys in ((["a", None, "b"], ["a", None]), ([1, None, 2], [1, None])):
        left = ray.data.from_arrow(pa.table({"k": keys, "x": pa.array([1, 2, 3], pa.int64())}))
        small = pa.table({"k": rkeys, "y": pa.array([10, 20], pa.int64())})
        right = ray.data.from_arrow(small)
        joins = {
            "bucketed": lambda how: bucketed_hash_join(left, right, "k", how=how, num_buckets=2),
            "broadcast": lambda how: broadcast_join(left, small, "k", how=how),
        }
        for name, join in joins.items():
            inner = _arrow(join("inner"))
            assert inner.to_pydict() == {"k": [keys[0]], "x": [1], "y": [10]}, name
            lj = _arrow(join("left"))
            assert lj.to_pydict() == {"k": keys, "x": [1, 2, 3], "y": [10, None, None]}, name
            for t in (inner, lj):
                assert t.schema.field("x").type == pa.int64() and t.schema.field("y").type == pa.int64(), name


def _arrow(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None)).sort_by("x")


# (bucket count, input layout) for the per-call contract of keyed_apply
CALL_CASES = [
    pytest.param(b, layout, id=f"buckets{b}-{layout}")
    for b in (1, 2, 7)
    for layout in ("base", "permuted", "blocks", "hot")
]


@pytest.mark.parametrize("num_buckets, layout", CALL_CASES)
def test_keyed_apply_one_call_per_bucket(num_buckets, layout):
    """``fn`` runs exactly once per non-empty bucket, each call sees one
    bucket, and the rows it sees do not depend on input order, empty
    blocks or a 100% hot key."""
    from opentelemetry_collector_contrib_ray.stages.aggregate import bucket_ids, keyed_apply

    df = _events(layout)

    def tag_call(t: pa.Table) -> pa.Table:
        import uuid

        return t.append_column("_call", pa.repeat(pa.scalar(uuid.uuid4().hex), len(t)))

    got = keyed_apply(_dataset(df, layout), ["k", "k2"], tag_call, num_buckets=num_buckets).to_pandas()
    got["_b"] = bucket_ids(pa.Table.from_pandas(got, preserve_index=False), ["k", "k2"], num_buckets)
    assert (got.groupby("_call")["_b"].nunique() == 1).all()  # no call sees two buckets
    assert (got.groupby("_b")["_call"].nunique() == 1).all()  # one call per bucket
    expected = bucket_ids(pa.Table.from_pandas(df, preserve_index=False), ["k", "k2"], num_buckets)
    assert got["_call"].nunique() == len(np.unique(expected))  # every non-empty bucket is called
    _assert_same_multiset(got.drop(columns=["_call", "_b"]), df)


@pytest.mark.parametrize("num_buckets, layout", SHUFFLE_CASES)
def test_exact_drop_ids_invariant(num_buckets, layout, monkeypatch):
    # exact dedup drops every id but the smallest of each text, whatever
    # the bucket count, row order, block layout or hash skew
    from opentelemetry_collector_contrib_ray.pipelines.corpus_prep import _exact_drop_ids
    from opentelemetry_collector_contrib_ray.stages import aggregate

    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    df = _events(layout)
    df = pd.DataFrame({"doc_id": (df["v"] * 48 + df.index).astype(np.int64), "text": df["k"] + " text"})
    # a winning (text, id) row read twice is still its text's winner
    df = pd.concat([df, df.loc[df.groupby("text")["doc_id"].idxmin()]], ignore_index=True)
    got = np.sort(_exact_drop_ids(_dataset(df, layout), "text", "doc_id"))
    want = np.sort(df.loc[df["doc_id"] != df.groupby("text")["doc_id"].transform("min"), "doc_id"].to_numpy())
    assert len(want) >= 35 and got.tolist() == want.tolist()


# (bucket count, input layout) for the LLM-data keyed jobs: "hot" gives
# every document one same line and every row one group
LLM_CASES = [
    pytest.param(1, "base", id="buckets1"),
    pytest.param(7, "base", id="buckets7"),
    pytest.param(7, "permuted", id="permuted"),
    pytest.param(7, "blocks", id="many_blocks_some_empty"),
    pytest.param(7, "hot", id="one_hot_line"),
]


def _llm_docs(layout: str) -> pd.DataFrame:
    """24 documents whose lines and 4-word passages repeat inside some
    of them and across others, each with a token list and a source
    group."""
    i = np.arange(24)
    text = [f"line {j % 5} here\nown {j} words\nshared tail {j % 3} a b c d" for j in i]
    text = [t + (f"\nline {j % 5} here" if j % 6 == 0 else "") for j, t in zip(i, text)]  # repeats inside a doc
    if layout == "hot":
        text = ["the hot line\n" + t for t in text]
    df = pd.DataFrame(
        {
            "doc_id": (i * 5 + 3).astype(np.int64),
            "text": text,
            "source": ["hot"] * 24 if layout == "hot" else [f"s{j % 4}" for j in i],
            "tokens": [list(range(j, j + j % 7)) for j in i],
        }
    )
    return df.sample(frac=1.0, random_state=7) if layout == "permuted" else df


def _shared_units_reference(df: pd.DataFrame, units, min_docs: int) -> pd.DataFrame:
    """(hash, n_docs, min_doc_id) of every unit string of ``units(text)``
    seen in ``min_docs`` or more distinct documents, by a dict."""
    from opentelemetry_collector_contrib_ray._util import hash_str_u64

    owners: dict = {}
    for doc_id, text in zip(df["doc_id"], df["text"]):
        for u in units(text):
            owners.setdefault(u, set()).add(int(doc_id))
    rows = [(u, len(d), min(d)) for u, d in owners.items() if len(d) >= min_docs]
    h = hash_str_u64(np.array([u for u, _, _ in rows], dtype=object))
    return pd.DataFrame({"hash": h, "n_docs": [n for _, n, _ in rows], "min_doc_id": [m for *_, m in rows]})


def _windows(text: str, n: int) -> list:
    w = text.split(" ")
    return [" ".join(w[s : s + n]) for s in range(len(w) - n + 1)]


def _pack_reference(df: pd.DataFrame, seq_len: int) -> pd.DataFrame:
    rows = []
    for src, g in df.sort_values("doc_id").groupby("source"):
        flat = [tok for toks in g["tokens"] for tok in toks]
        for c, s in enumerate(range(0, len(flat), seq_len)):
            chunk = flat[s : s + seq_len]
            rows.append((src, c, len(chunk), chunk[0], chunk[-1], tuple(chunk)))
    return pd.DataFrame(rows, columns=["source", "chunk_id", "chunk_len", "first_tok", "last_tok", "tokens"])


@pytest.mark.parametrize("num_buckets, layout", LLM_CASES)
@pytest.mark.parametrize("job", ["lines", "passages", "pack"])
def test_llm_keyed_jobs_invariant(job, num_buckets, layout):
    # line and passage discovery and token packing give the dict
    # reference's rows whatever the bucket count, row order, block
    # layout or skew
    from opentelemetry_collector_contrib_ray.stages.llmdata import (
        duplicate_lines,
        duplicate_passages,
        pack_token_sequences,
    )

    df = _llm_docs(layout)
    ds = _dataset(df, layout)
    if job == "pack":
        got = pack_token_sequences(ds, seq_len=4, emit_tokens=True, num_buckets=num_buckets).to_pandas()
        got["tokens"] = got["tokens"].map(tuple)
        want = _pack_reference(df, 4)
        assert len(want) > 10 and (layout != "hot" or want["source"].nunique() == 1)
    else:
        if job == "lines":
            got = duplicate_lines(ds, num_buckets=num_buckets).to_pandas().rename(columns={"line_hash": "hash"})
            want = _shared_units_reference(df, lambda t: t.split("\n"), 2)
            assert layout != "hot" or want["n_docs"].max() == 24
        else:
            got = duplicate_passages(ds, window=4, num_buckets=num_buckets).to_pandas().rename(columns={"gram_hash": "hash"})
            want = _shared_units_reference(df, lambda t: _windows(t, 4), 2)
        assert len(want) >= 5
    _assert_same_multiset(got, want)


def _arrow_all(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))


@pytest.mark.parametrize("num_buckets, layout", SHUFFLE_CASES)
def test_distinct_count_matches_set_reference(num_buckets, layout, monkeypatch):
    # exact distinct values per key tuple, a null value counted once and
    # a null key tuple one group, whatever the bucket count, row order,
    # block layout or skew
    from opentelemetry_collector_contrib_ray.stages import aggregate
    from opentelemetry_collector_contrib_ray.stages.sketch import distinct_count

    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    df = _events(layout)
    pos = np.arange(len(df))
    hot = layout == "hot"  # one key tuple holds every row
    df = df.assign(
        k=df["k"] if hot else df["k"].mask(pos % 11 == 5, None),
        k2=pd.array(np.where(hot, 0, np.where(pos % 13 == 4, None, df["k2"])), "Int64"),
        v=pd.array(np.where(pos % 7 == 3, None, df["v"] % 11), "Int64"),
    )
    want: dict = collections.defaultdict(set)
    for r in pa.Table.from_pandas(df, preserve_index=False).to_pylist():
        want[(r["k"], r["k2"])].add(r["v"])
    got = _arrow_all(distinct_count(_dataset(df, layout), ["k", "k2"], "v")).to_pylist()
    assert len(got) == len(want)  # no key tuple twice
    assert {(r["k"], r["k2"]): r["distinct"] for r in got} == {k: len(v) for k, v in want.items()}
    assert len(want) == 1 if hot else sum(None in k for k in want) >= 4


def test_distinct_count_single_key_nulls():
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.sketch import distinct_count

    t = pa.table({"k": ["a", "a", "a", None, None, "b"], "v": [1, 1, None, 2, 2, None]})
    got = _arrow_all(distinct_count(ray.data.from_arrow(t).repartition(3), ["k"], "v"))
    assert got.schema.field("distinct").type == pa.int64()
    assert {r["k"]: r["distinct"] for r in got.to_pylist()} == {"a": 2, None: 1, "b": 1}


def _token_stats_reference(df: pd.DataFrame) -> dict:
    """Per source: documents, tokens, max token id, distinct token ids
    and distinct adjacent pairs inside one document."""
    out = {}
    for src, g in df.groupby("source"):
        toks = [list(t) for t in g["tokens"]]
        flat = [x for t in toks for x in t]
        out[src] = {
            "n_docs": len(toks),
            "n_tokens": len(flat),
            "max_tok": max(flat, default=-1),
            "n_distinct_tokens": len(set(flat)),
            "n_distinct_bigrams": len({p for t in toks for p in zip(t[:-1], t[1:])}),
        }
    return out


@pytest.mark.parametrize("num_buckets", [1, 7])
def test_token_corpus_stats_matches_reference(num_buckets, monkeypatch):
    # a document's first token (100 + j % 50) appears nowhere else, so
    # a bigram across a document boundary would be a new pair
    import ray.data

    from opentelemetry_collector_contrib_ray.stages import aggregate
    from opentelemetry_collector_contrib_ray.stages.llmdata import token_corpus_stats

    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    rng = np.random.default_rng(5)
    toks = [[100 + j % 50, *rng.integers(0, 20, j % 9)] if j % 10 else [] for j in range(300)]
    df = pd.DataFrame({"doc_id": np.arange(300), "source": [f"s{j % 3}" for j in range(300)], "tokens": toks})
    t = pa.Table.from_pandas(df, preserve_index=False).cast(
        pa.schema([("doc_id", pa.int64()), ("source", pa.string()), ("tokens", pa.list_(pa.int32()))])
    )
    ds = ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow", batch_size=41)
    got = token_corpus_stats(ds, vocab_size=200).set_index("source")
    assert got.astype(np.int64).to_dict("index") == _token_stats_reference(df)


@pytest.mark.parametrize("num_buckets, layout", SHUFFLE_CASES)
def test_lsh_buckets_and_pairs_invariant(num_buckets, layout, monkeypatch):
    # LSH bucket resolution and candidate pairs: band 0 buckets rows by
    # key, band 1 by (key, k2), so band 1's pairs repeat band 0's and
    # must come out once
    from opentelemetry_collector_contrib_ray.stages import aggregate
    from opentelemetry_collector_contrib_ray.stages.dedup import _resolve_buckets, lsh_candidate_pairs

    monkeypatch.setattr(aggregate, "derived_num_partitions", lambda: num_buckets)
    half = _events(layout).iloc[:24]
    h = pd.util.hash_array(half["k"].to_numpy()).view(np.int64)
    df = pd.DataFrame(
        {
            "band_id": np.repeat(np.int32([0, 1]), 24),
            "band_hash": np.concatenate([h, h ^ half["k2"].to_numpy()]),
            "doc_id": np.tile(half["v"].to_numpy(), 2),
        }
    )
    groups = df.groupby(["band_id", "band_hash"])["doc_id"].agg(lambda x: tuple(sorted(x)))
    want = {(b, h, ids) for (b, h), ids in groups.items() if len(ids) >= 2}
    got = _resolve_buckets(_dataset(df, layout), "doc_id").to_pandas()
    assert {(b, h, tuple(ids)) for b, h, ids in zip(got["band_id"], got["band_hash"], got["ids"])} == want
    assert len(got) == len(want) and (got["n"] == got["ids"].map(len)).all()
    pairs = lsh_candidate_pairs(_dataset(df, layout), "doc_id").to_pandas()
    want_pairs = sorted({(a, b) for *_, ids in want for i, a in enumerate(ids) for b in ids[i + 1 :]})
    assert want_pairs and sorted(zip(pairs["id_a"], pairs["id_b"])) == want_pairs


def test_bucket_ids_ignore_a_null_elsewhere_in_the_batch():
    # signed and unsigned integer keys past 2**53 and a string key hash
    # the same whether or not their batch also holds a null, so one key
    # never spans buckets; a null integer hashes as a null float (−1)
    from opentelemetry_collector_contrib_ray.stages.aggregate import bucket_ids

    k, u, s = [2**53 + 1, -5, 7], [2**64 - 3, 5, 2**53 + 1], ["a", "b", "a"]
    alone = pa.table({"k": pa.array(k, pa.int64()), "u": pa.array(u, pa.uint64()), "s": s})
    with_null = pa.table(
        {"k": pa.array(k + [None], pa.int64()), "u": pa.array(u + [None], pa.uint64()), "s": s + [None]}
    )
    assert bucket_ids(with_null, ["k", "u", "s"], 2**31)[:3].tolist() == bucket_ids(alone, ["k", "u", "s"], 2**31).tolist()
    null_float = bucket_ids(pa.table({"k": pa.array([None, 1.0])}), ["k"], 2**31)[0]
    for typ in (pa.int8(), pa.int64(), pa.uint16(), pa.uint64()):
        assert bucket_ids(pa.table({"k": pa.array([None, 1], typ)}), ["k"], 2**31)[0] == null_float


def test_keyed_apply_refuses_a_two_bucket_block():
    from opentelemetry_collector_contrib_ray.stages.aggregate import _per_bucket

    calls = []
    per_bucket = _per_bucket(lambda t: calls.append(len(t)) or t)
    one = pa.table({"k": ["a", "b"], "_bucket": pa.array([3, 3], pa.int64())})
    assert [t.column_names for t in per_bucket(one)] == [["k"]]
    assert list(per_bucket(one.slice(0, 0))) == []  # empty block: fn not called
    with pytest.raises(RuntimeError, match="buckets 3 to 4"):
        list(per_bucket(pa.table({"k": ["a", "b"], "_bucket": pa.array([3, 4], pa.int64())})))
    assert calls == [2]


def test_keyed_apply_refuses_a_dataframe_result():
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.aggregate import keyed_apply

    def to_frame(t: pa.Table) -> pd.DataFrame:
        return t.to_pandas()

    ds = ray.data.from_arrow(pa.table({"k": ["a", "b"], "v": [1, 2]}))
    with pytest.raises(TypeError, match="to_frame returned DataFrame, not a pyarrow.Table"):
        keyed_apply(ds, "k", to_frame, num_buckets=2).materialize()


@pytest.mark.parametrize("blocks", [1, 4], ids=["empty_dataset", "all_empty_blocks"])
def test_one_bucket_of_nothing_calls_nothing(blocks):
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.aggregate import keyed_apply

    def never(g):
        raise AssertionError("fn called on an empty bucket")

    empty = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    ds = ray.data.from_arrow([empty] * blocks).materialize()
    assert ds.num_blocks() == blocks
    assert keyed_apply(ds, "k", never, num_buckets=1).take_all() == []


def test_one_bucket_is_one_call_with_every_row():
    import ray.data

    from opentelemetry_collector_contrib_ray.stages.aggregate import keyed_apply

    sizes = [5, 0, 17, 3, 0, 40, 1, 0, 9]
    tables = [pa.table({"k": pa.array(np.arange(n) % 4), "v": pa.array(np.ones(n))}) for n in sizes]
    ds = ray.data.from_arrow(tables)

    def rows(t: pa.Table) -> pa.Table:
        return pa.table({"n": [len(t)]})

    assert keyed_apply(ds, "k", rows, num_buckets=1).take_all() == [{"n": sum(sizes)}]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 5, 8, 16, 1024, 4096])
def test_derived_num_partitions_never_exceeds_the_cpus(cpus, monkeypatch):
    # cluster_cpus is patched: no session of that size starts
    from opentelemetry_collector_contrib_ray.stages import aggregate

    monkeypatch.setattr(aggregate, "cluster_cpus", lambda: cpus)
    got = aggregate.derived_num_partitions()
    assert 1 <= got <= cpus
    if cpus >= 4:  # half the CPUs, between 4 and 512
        assert got == max(4, min(512, cpus // 2))
    else:
        assert got == cpus


# ------------------------------------------------ read block-count invariance

READ_BLOCKS = [1, 3, 16]  # fewer blocks than files, a split file, more than rows per file


def _prep_docs(n: int = 240) -> pa.Table:
    """Documents with exact duplicates (every 9th copies its neighbour's
    text) and Gopher failures (every 13th repeats one word)."""
    texts = []
    for i in range(n):
        base = i - 1 if i % 9 == 0 and i else i
        words = " ".join(f"w{(base * 7 + j) % 89}" for j in range(30))
        texts.append("spam " * 30 if i % 13 == 0 else f"Doc {base} starts. {words} mail a@b.co now.")
    return pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": texts, "source": [f"s{i % 3}" for i in range(n)]})


def _write_files(tmp_path, t: pa.Table, files: int = 4) -> str:
    import pyarrow.parquet as pq

    step = -(-len(t) // files)
    for f in range(files):
        pq.write_table(t.slice(f * step, step), tmp_path / f"part-{f}.parquet")
    return str(tmp_path)


def test_prepare_corpus_invariant_to_read_blocks(tmp_path):
    """``exact_dropped``, the vocabulary and the chunk table do not depend
    on how many blocks the read produces."""
    from opentelemetry_collector_contrib_ray.pipelines.corpus_prep import PrepConfig, prepare_corpus
    from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus

    path = _write_files(tmp_path, _prep_docs())
    outs = []
    for n in READ_BLOCKS:
        res = prepare_corpus(read_corpus(path, override_num_blocks=n), PrepConfig(seq_len=64))
        chunks = res.packed.to_pandas()
        chunks["tokens"] = chunks["tokens"].map(tuple)
        outs.append((res.stats["exact_dropped"], res.vocab, _canon(chunks)))
    assert outs[0][0] > 0 and len(outs[0][1]) > 0 and len(outs[0][2]) > 1
    for dropped, vocab, chunks in outs[1:]:
        assert dropped == outs[0][0]
        pd.testing.assert_frame_equal(vocab, outs[0][1])
        pd.testing.assert_frame_equal(chunks, outs[0][2])


def test_aggregate_sinks_invariant_to_read_blocks(tmp_path):
    """The flagship's per-sink counts do not depend on the read's block count."""
    from opentelemetry_collector_contrib_ray.pipelines import log_pipeline as lp
    from opentelemetry_collector_contrib_ray.sources.parquet import read_corpus
    from opentelemetry_collector_contrib_ray.sources.synth import write_synth_corpus

    path = write_synth_corpus(str(tmp_path / "corpus"), 3000, num_files=4)
    aggs = [
        _canon(lp.aggregate_sinks(lp.build_pipeline(read_corpus(path, override_num_blocks=n)), driver_finalize=True).to_pandas())
        for n in READ_BLOCKS
    ]
    assert aggs[0]["count"].sum() > 3000  # fan-out routes duplicate rows
    for agg in aggs[1:]:
        pd.testing.assert_frame_equal(agg, aggs[0])
