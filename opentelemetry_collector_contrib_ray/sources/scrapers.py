"""Batch parse stages for the interval scrapers' wire payloads.

The reference's interval scrapers (redisreceiver, zookeeperreceiver,
memcachedreceiver, nginxreceiver, ...) poll an endpoint every N seconds
and convert the response into metrics.  The POLLING half is out of
batch-engine scope (a source here is a Parquet scan); the PARSING half
is pure per-payload logic and is re-expressed in this module as
vectorized ``map_batches`` stages over a ``payload: string`` column —
one scrape response per row, many servers/scrapes per batch.

Reference semantics per parser (file:line under /root/reference):

* Redis INFO    — receiver/redisreceiver/info.go:32-74 (fixed metric
  table: missing key → warning+skip, empty value → skip, parse failure
  → skip; keyspace dbs probed db0..db15 with BREAK on first missing),
  keyspace.go:35-66 (``keys=1,expires=2,avg_ttl=3`` pair parse),
  metric_functions.go:23-352 (the 28-metric key→(name, units, type,
  monotonic, labels) table), pdata.go:33-80 (``redis/db/*`` triplet
  with a ``db`` label).
* ZooKeeper mntr — receiver/zookeeperreceiver/scraper.go:34 (line
  regex ``(^zk_\\w+)\\s+([\\w\\.\\-]+)``), :144-181 (zk_version /
  zk_server_state become resource attributes; keys without a metric
  descriptor and non-integer values are skipped), metrics.go:24-92
  (the 17-key name map; packets and fsync-threshold-exceeds are sums,
  the rest gauges).
* memcached stats — receiver/memcachedreceiver/scraper.go:75-92 (only
  five stats mapped: bytes / curr_connections as gauges,
  total_connections / get_hits / get_misses as sums).
* nginx stub_status — receiver/nginxreceiver/scraper.go:81-93 over the
  classic stub_status text (requests / accepted / handled sums plus a
  state-labelled current-connections gauge).

Output schema is shared by all four parsers so their outputs union:
``(<id passthrough>, name, units, mtype, monotonic, label_key,
label_value, value_int, value_double)`` where ``mtype`` is ``gauge`` /
``sum`` / ``resource`` (resource rows carry the attribute in
label_key/label_value and NULL values).
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# Redis INFO (metric_functions.go:23-352)
# ---------------------------------------------------------------------------

# key -> (name, units, value kind, metric type, monotonic, label_key, label_value)
_REDIS_METRICS = [
    ("uptime_in_seconds", "redis/uptime", "s", "int", "sum", True, None, None),
    ("used_cpu_sys", "redis/cpu/time", "s", "double", "sum", True, "state", "sys"),
    ("used_cpu_sys_children", "redis/cpu/time", "s", "double", "sum", True, "state", "children"),
    ("used_cpu_user", "redis/cpu/time", "s", "double", "sum", True, "state", "user"),
    ("connected_clients", "redis/clients/connected", None, "int", "sum", False, None, None),
    ("client_recent_max_input_buffer", "redis/clients/max_input_buffer", None, "int", "gauge", False, None, None),
    ("client_recent_max_output_buffer", "redis/clients/max_output_buffer", None, "int", "gauge", False, None, None),
    ("blocked_clients", "redis/clients/blocked", None, "int", "sum", False, None, None),
    ("expired_keys", "redis/keys/expired", None, "int", "sum", True, None, None),
    ("evicted_keys", "redis/keys/evicted", None, "int", "sum", True, None, None),
    ("rejected_connections", "redis/connections/rejected", None, "int", "sum", True, None, None),
    ("used_memory", "redis/memory/used", "By", "int", "gauge", False, None, None),
    ("used_memory_rss", "redis/memory/rss", "By", "int", "gauge", False, None, None),
    ("used_memory_peak", "redis/memory/peak", "By", "int", "gauge", False, None, None),
    ("used_memory_lua", "redis/memory/lua", "By", "int", "gauge", False, None, None),
    ("mem_fragmentation_ratio", "redis/memory/fragmentation_ratio", None, "double", "gauge", False, None, None),
    ("rdb_changes_since_last_save", "redis/rdb/changes_since_last_save", None, "int", "sum", False, None, None),
    ("instantaneous_ops_per_sec", "redis/commands", "{ops}/s", "int", "gauge", False, None, None),
    ("total_connections_received", "redis/connections/received", None, "int", "sum", True, None, None),
    ("total_commands_processed", "redis/commands/processed", None, "int", "sum", True, None, None),
    ("total_net_input_bytes", "redis/net/input", "By", "int", "sum", True, None, None),
    ("total_net_output_bytes", "redis/net/output", "By", "int", "sum", True, None, None),
    ("keyspace_hits", "redis/keyspace/hits", None, "int", "sum", True, None, None),
    ("keyspace_misses", "redis/keyspace/misses", None, "int", "sum", True, None, None),
    ("latest_fork_usec", "redis/latest_fork", "us", "int", "gauge", False, None, None),
    ("connected_slaves", "redis/slaves/connected", None, "int", "sum", False, None, None),
    ("repl_backlog_first_byte_offset", "redis/replication/backlog_first_byte_offset", None, "int", "gauge", False, None, None),
    ("master_repl_offset", "redis/replication/offset", None, "int", "gauge", False, None, None),
]

_REDIS_TABLE = pd.DataFrame(
    _REDIS_METRICS,
    columns=["key", "name", "units", "vkind", "mtype", "monotonic", "label_key", "label_value"],
)

_REDIS_MAX_DBS = 16  # info.go:58 RedisMaxDbs
_REDIS_KEY_IDX = {k: i for i, k in enumerate(_REDIS_TABLE["key"])}

_OUT_SCHEMA_TYPES = {
    "name": pa.string(),
    "units": pa.string(),
    "mtype": pa.string(),
    "monotonic": pa.bool_(),
    "label_key": pa.string(),
    "label_value": pa.string(),
    "value_int": pa.int64(),
    "value_double": pa.float64(),
}


def _explode_lines_arrow(t: pa.Table) -> tuple[np.ndarray, pa.StringArray]:
    """payload rows -> (server id per line, Arrow line array). The split runs
    in Arrow C++ (no per-line Python boxing); callers keep working on
    the Arrow array as long as possible."""
    import pyarrow.compute as pc

    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"]
    if isinstance(pay, pa.ChunkedArray):
        pay = pay.combine_chunks()
    ll = pc.split_pattern(pc.fill_null(pay, ""), "\n")
    counts = pc.list_value_length(ll).to_numpy().astype(np.int64)
    return np.repeat(ids, counts), pc.list_flatten(ll)


def _explode_extract_kv(t: pa.Table, pattern: str) -> pd.DataFrame:
    """Explode payload lines and extract a two-group ``(?P<k>)(?P<v>)``
    regex with Arrow's re2 kernel; returns only the matching lines as
    ``(_id, key, val)``. The whole path (split, match, extract) runs in
    C++ — strings are boxed to Python objects only for the final
    (usually much smaller) matched set."""
    import pyarrow.compute as pc

    line_ids, line_arr = _explode_lines_arrow(t)
    r = pc.extract_regex(line_arr, pattern)
    ok = pc.is_valid(r)
    hit = ok.to_numpy(zero_copy_only=False).astype(bool)
    matched = r.filter(ok)
    return pd.DataFrame(
        {
            "_id": line_ids[hit],
            "key": pc.struct_field(matched, "k").to_pandas().astype(object),
            "val": pc.struct_field(matched, "v").to_pandas().astype(object),
        }
    )


def _integral_mask(vals: pd.Series, pattern: str = r"^-?\d+$") -> pd.Series:
    """Arrow re2 integer-string check (ParseInt gate) as a bool Series
    aligned to ``vals`` — replaces per-row pandas fullmatch."""
    import pyarrow.compute as pc

    m = pc.match_substring_regex(
        pa.array(vals.to_numpy(dtype=object), pa.string(), from_pandas=True), pattern
    ).to_numpy(zero_copy_only=False)
    return pd.Series(m, index=vals.index).fillna(False).astype(bool)


def _finish(out: pd.DataFrame, id_type: pa.DataType) -> pa.Table:
    cols = {"server_id": pa.array(out["_id"].to_numpy(), type=id_type)}
    for c, typ in _OUT_SCHEMA_TYPES.items():
        if typ == pa.int64():
            # values are parsed integers (or NaN/None); float64 is exact
            # here and from_pandas turns NaN into null without a row loop
            cols[c] = pa.array(
                pd.to_numeric(out[c], errors="coerce"), type=typ, from_pandas=True
            )
        elif typ == pa.float64():
            cols[c] = pa.array(pd.to_numeric(out[c], errors="coerce").to_numpy(dtype=np.float64), type=typ, from_pandas=True)
        elif typ == pa.bool_():
            cols[c] = pa.array(out[c].fillna(False).to_numpy(dtype=bool), type=typ)
        else:
            cols[c] = pa.array(out[c].to_numpy(dtype=object), type=typ)
    return pa.table(cols)


def _num_split(vals: pd.Series, vkind: pd.Series):
    """Split a string value series into (value_int, value_double, ok)
    following redis_metric.parseMetric (redis_metric.go:20-80): int
    metrics use ParseInt, double metrics ParseFloat; failures skip."""
    import pyarrow.compute as pc

    as_int = pd.to_numeric(vals.where(vkind == "int"), errors="coerce")
    # ParseInt rejects floats like "1.5" — require integral strings
    # (Arrow re2 match: C++ kernel instead of a per-row Python regex)
    integral = pc.match_substring_regex(
        pa.array(vals.to_numpy(dtype=object), pa.string(), from_pandas=True),
        r"^[+-]?\d+$",
    ).to_numpy(zero_copy_only=False)
    int_ok = as_int.notna() & pd.Series(integral, index=vals.index).fillna(False)
    as_dbl = pd.to_numeric(vals.where(vkind == "double"), errors="coerce")
    dbl_ok = as_dbl.notna()
    ok = np.where(vkind == "int", int_ok, dbl_ok)
    value_int = as_int.where(int_ok & (vkind == "int"))
    value_double = as_dbl.where(dbl_ok & (vkind == "double"))
    return value_int, value_double, ok


def parse_redis_info(t: pa.Table) -> pa.Table:
    """Vectorized INFO-text → metric rows (info.go:32-74 fixed table +
    :53-74 keyspace loop with break-on-first-missing-db)."""
    import pyarrow.compute as pc

    id_type = t.schema.field("server_id").type
    # Arrow-native line/kv split (the hot path: every payload line).
    # Equivalent to rstrip("\r") + ^([^:#\s][^:]*):(.*)$ — the key is
    # everything before the FIRST colon and may not start with '#' or
    # whitespace or be empty; the value keeps any further colons.
    line_ids, line_arr = _explode_lines_arrow(t)
    kv = pc.split_pattern(line_arr, ":", max_splits=1)
    two = pc.equal(pc.list_value_length(kv), 2)
    kv2 = kv.filter(two)
    key_arr = pc.list_element(kv2, 0)
    val_arr = pc.utf8_rtrim(pc.list_element(kv2, 1), "\r")
    okkey = pc.match_substring_regex(key_arr, r"^[^#\s]")
    isdb_arr = pc.match_substring_regex(key_arr, r"^db\d+$")
    keep = okkey.to_numpy(zero_copy_only=False).astype(bool)
    flat = pd.DataFrame(
        {
            "_id": line_ids[two.to_numpy(zero_copy_only=False).astype(bool)][keep],
            "key": key_arr.filter(okkey).to_pandas().astype(object),
            "val": val_arr.filter(okkey).to_pandas().astype(object),
            "isdb": isdb_arr.filter(okkey).to_pandas().astype(bool),
        }
    )

    # --- fixed metrics: dict-map into the startup table (cheaper than
    # a hash-join merge: one lookup per line, then positional takes) ---
    ridx = flat["key"].map(_REDIS_KEY_IDX)
    hit = ridx.notna().to_numpy(dtype=bool)
    tix = ridx.to_numpy()[hit].astype(np.int64)
    fixed = pd.DataFrame(
        {
            "_id": flat["_id"].to_numpy()[hit],
            "val": flat["val"].to_numpy(dtype=object)[hit],
            **{
                c: _REDIS_TABLE[c].to_numpy()[tix]
                for c in (
                    "name", "units", "vkind", "mtype",
                    "monotonic", "label_key", "label_value",
                )
            },
        }
    )
    # empty string value → skipped entirely (info.go:40-42)
    fixed = fixed[fixed["val"] != ""]
    vi, vd, ok = _num_split(fixed["val"], fixed["vkind"])
    fixed = fixed.assign(value_int=vi, value_double=vd)[ok]

    # --- keyspace: db0..db15, break at first missing db per server ---
    ks = flat[flat["isdb"]].copy()
    rows = [
        fixed[["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"]]
    ]
    if len(ks):
        ks["db"] = ks["key"].str[2:].astype(np.int64)
        ks = ks[ks["db"] < _REDIS_MAX_DBS]
        # contiguous-prefix mask: db N survives only if db0..N all
        # present. Sort the UNIQUE (_id, db) pairs; within a server the
        # ascending unique dbs are contiguous-from-zero exactly where
        # db == rank, so one lexsort replaces the pivot/cumprod.
        u = ks[["_id", "db"]].drop_duplicates().sort_values(["_id", "db"], kind="stable")
        uid = u["_id"].to_numpy()
        udb = u["db"].to_numpy(dtype=np.int64)
        first = np.ones(len(u), dtype=bool)
        first[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(first)
        rank = np.arange(len(u), dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, len(u)))
        )
        contig = udb == rank
        # a later db after a gap has db > rank, so db==rank IS the prefix
        ks_db = ks["db"].to_numpy(dtype=np.int64)
        if np.issubdtype(np.asarray(uid).dtype, np.number):
            ok_keys = uid[contig].astype(np.int64) * _REDIS_MAX_DBS + udb[contig]
            ks_keys = ks["_id"].to_numpy().astype(np.int64) * _REDIS_MAX_DBS + ks_db
            ks = ks[np.isin(ks_keys, ok_keys)]
        else:  # non-numeric ids: string composite key, still vectorized
            ok_keys = pd.Series(uid[contig]).astype(str) + ":" + pd.Series(udb[contig]).astype(str)
            ks_keys = ks["_id"].astype(str) + ":" + pd.Series(ks_db, index=ks.index).astype(str)
            ks = ks[ks_keys.isin(set(ok_keys)).to_numpy()]
        if len(ks):
            # "keys=1,expires=2,avg_ttl=3" → wide columns, faithful to
            # keyspace.go:35-66: every comma-piece must split on '=' into
            # EXACTLY two parts (a second '=' fails the whole db string);
            # only the three known keys parse their value with Atoi
            # (signed integers; failure fails the db); unknown keys are
            # ignored whatever their value; absent keys default 0.
            ks = ks.reset_index(drop=True)
            val_a = pa.array(ks["val"].to_numpy(dtype=object), pa.string())
            pieces = pc.split_pattern(val_a, ",")
            row_of = np.repeat(
                np.arange(len(ks), dtype=np.int64),
                pc.list_value_length(pieces).to_numpy().astype(np.int64),
            )
            piece_flat = pc.list_flatten(pieces)
            eq = pc.split_pattern(piece_flat, "=")
            two = pc.list_value_length(eq).to_numpy() == 2
            eq2 = eq.filter(pa.array(two))
            pk2 = np.asarray(pc.list_element(eq2, 0).to_pandas(), dtype=object)
            pv2_arr = pc.list_element(eq2, 1)
            known2 = np.isin(pk2, ("keys", "expires", "avg_ttl"))
            intok2 = (
                pc.match_substring_regex(pv2_arr, r"^[+-]?\d+$")
                .to_numpy(zero_copy_only=False)
                .astype(bool)
            )
            bad_piece = np.ones(len(piece_flat), dtype=bool)
            bad_piece[two] = known2 & ~intok2
            bad_piece[~two] = True
            n_bad = np.zeros(len(ks), np.int64)
            np.add.at(n_bad, row_of, bad_piece.astype(np.int64))
            valid_rows = n_bad == 0
            rows2 = row_of[two]
            pv_num = pd.to_numeric(pd.Series(pv2_arr.to_pandas()), errors="coerce")
            wide = {}
            for pk_name in ("keys", "expires", "avg_ttl"):
                full = np.zeros(len(ks), np.int64)
                m = (pk2 == pk_name) & intok2
                full[rows2[m]] = pv_num[m].to_numpy(dtype=np.int64)
                wide[pk_name] = full
            ks = ks.assign(
                _keys=wide["keys"], _expires=wide["expires"], _avg_ttl=wide["avg_ttl"]
            )[valid_rows]
            triplet = []
            for pk, nm, units in (
                ("keys", "redis/db/keys", None),
                ("expires", "redis/db/expires", None),
                ("avg_ttl", "redis/db/avg_ttl", "ms"),
            ):
                full = ks[f"_{pk}"]
                triplet.append(
                    pd.DataFrame(
                        {
                            "_id": ks["_id"],
                            "name": nm,
                            "units": units,
                            "mtype": "gauge",
                            "monotonic": False,
                            "label_key": "db",
                            "label_value": ks["db"].astype(str),
                            "value_int": full,
                            "value_double": np.nan,
                        }
                    )
                )
            rows.extend(triplet)
    out = pd.concat(rows, ignore_index=True)
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# ZooKeeper mntr (scraper.go:34,144-181; metrics.go:24-92)
# ---------------------------------------------------------------------------

_ZK_GAUGES = {
    "zk_avg_latency": ("zookeeper.latency.avg", "ms"),
    "zk_max_latency": ("zookeeper.latency.max", "ms"),
    "zk_min_latency": ("zookeeper.latency.min", None),
    "zk_num_alive_connections": ("zookeeper.connections_alive", None),
    "zk_outstanding_requests": ("zookeeper.outstanding_requests", None),
    "zk_znode_count": ("zookeeper.znodes", None),
    "zk_watch_count": ("zookeeper.watches", None),
    "zk_ephemerals_count": ("zookeeper.ephemeral_nodes", None),
    "zk_approximate_data_size": ("zookeeper.approximate_date_size", "By"),
    "zk_open_file_descriptor_count": ("zookeeper.open_file_descriptors", None),
    "zk_max_file_descriptor_count": ("zookeeper.max_file_descriptors", None),
    "zk_followers": ("zookeeper.followers", None),
    "zk_synced_followers": ("zookeeper.synced_followers", None),
    "zk_pending_syncs": ("zookeeper.pending_syncs", None),
}
_ZK_SUMS = {
    "zk_packets_received": ("zookeeper.packets.received", None),
    "zk_packets_sent": ("zookeeper.packets.sent", None),
    "zk_fsync_threshold_exceed_count": ("zookeeper.fsync_threshold_exceeds", None),
}
_ZK_RESOURCE = {"zk_version": "zk.version", "zk_server_state": "server.state"}

_ZK_TABLE = pd.DataFrame(
    [(k, n, u, "gauge", False) for k, (n, u) in _ZK_GAUGES.items()]
    + [(k, n, u, "sum", True) for k, (n, u) in _ZK_SUMS.items()],
    columns=["key", "name", "units", "mtype", "monotonic"],
)


def parse_zk_mntr(t: pa.Table) -> pa.Table:
    """Vectorized mntr-response → metric + resource rows."""
    id_type = t.schema.field("server_id").type
    flat = _explode_extract_kv(
        t, r"^(?P<k>zk_\w+)\s+(?P<v>[\w\.\-]+)"
    )

    res = flat[flat["key"].isin(_ZK_RESOURCE)]
    res_out = pd.DataFrame(
        {
            "_id": res["_id"],
            "name": None,
            "units": None,
            "mtype": "resource",
            "monotonic": False,
            "label_key": res["key"].map(_ZK_RESOURCE),
            "label_value": res["val"],
            "value_int": np.nan,
            "value_double": np.nan,
        }
    )

    met = flat.merge(_ZK_TABLE, on="key", how="inner")
    ival = pd.to_numeric(met["val"], errors="coerce")
    # non-integer values skipped (scraper.go:170-177)
    ok = ival.notna() & _integral_mask(met["val"])
    met = met[ok]
    met_out = pd.DataFrame(
        {
            "_id": met["_id"],
            "name": met["name"],
            "units": met["units"],
            "mtype": met["mtype"],
            "monotonic": met["monotonic"],
            "label_key": None,
            "label_value": None,
            "value_int": ival[ok].astype(np.int64),
            "value_double": np.nan,
        }
    )
    return _finish(pd.concat([met_out, res_out], ignore_index=True), id_type)


# ---------------------------------------------------------------------------
# memcached stats (scraper.go:75-92)
# ---------------------------------------------------------------------------

_MEMCACHED_TABLE = pd.DataFrame(
    [
        ("bytes", "memcached.bytes", "By", "gauge", False),
        ("curr_connections", "memcached.current_connections", None, "gauge", False),
        ("total_connections", "memcached.total_connections", None, "sum", True),
        ("get_hits", "memcached.get_hits", None, "sum", True),
        ("get_misses", "memcached.get_misses", None, "sum", True),
    ],
    columns=["key", "name", "units", "mtype", "monotonic"],
)


def parse_memcached_stats(t: pa.Table) -> pa.Table:
    """Vectorized ``STAT <key> <value>`` text → the five mapped metrics."""
    id_type = t.schema.field("server_id").type
    flat = _explode_extract_kv(
        t, r"^STAT\s+(?P<k>\S+)\s+(?P<v>\S+)\s*$"
    )
    met = flat.merge(_MEMCACHED_TABLE, on="key", how="inner")
    ival = pd.to_numeric(met["val"], errors="coerce")
    ok = ival.notna() & _integral_mask(met["val"])
    met = met[ok]
    out = pd.DataFrame(
        {
            "_id": met["_id"],
            "name": met["name"],
            "units": met["units"],
            "mtype": met["mtype"],
            "monotonic": met["monotonic"],
            "label_key": None,
            "label_value": None,
            "value_int": ival[ok].astype(np.int64),
            "value_double": np.nan,
        }
    )
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# Prometheus text exposition format (the parse half of
# simpleprometheusreceiver / prometheusexecreceiver, which delegate
# scraping+parsing to the prometheus scrape library; the format itself
# is public: "# TYPE name {counter|gauge|histogram|summary|untyped}"
# declarations followed by "name{k=\"v\",...} value [timestamp]"
# samples; histogram/summary emit name_bucket/name_sum/name_count
# component series that inherit the base declaration's type)
# ---------------------------------------------------------------------------

_PROM_SAMPLE_RE = r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+(-?\d+))?\s*$"
_PROM_TYPE_RE = r"^#\s*TYPE\s+([a-zA-Z_:][a-zA-Z0-9_:]*)\s+(\w+)\s*$"

# prom type → (mtype, monotonic): counters and histogram/summary
# cumulative components are monotonic sums; gauges/untyped are gauges
_PROM_TYPE_MAP = {
    "counter": ("sum", True),
    "gauge": ("gauge", False),
    "histogram": ("sum", True),
    "summary": ("sum", True),
    "untyped": ("gauge", False),
}


_PROM_PAIR_BODY = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_PAIR_RE = f"({_PROM_PAIR_BODY})"


def _prom_canon_labels(raw: pd.Series) -> pd.Series:
    """Canonicalize a label body ('b="2",a="1"') to sorted 'a="1",b="2"'
    so equal label SETS compare equal (prom semantics are set-based).
    Fast path: a body without a comma holds at most one pair, so only
    the (rare) multi-pair rows pay the per-row findall+sort; single-
    pair rows are validated/extracted with one Arrow re2 pass."""
    import pyarrow.compute as pc

    raw = raw.fillna("")
    multi = raw.str.contains(",", regex=False).to_numpy(dtype=bool)
    out = np.full(len(raw), "", dtype=object)
    if (~multi).any():
        singles = raw[~multi]
        r = pc.extract_regex(
            pa.array(singles.to_numpy(dtype=object), pa.string()),
            f"^(?P<p>{_PROM_PAIR_BODY})\\s*$",
        )
        ok = pc.is_valid(r)
        vals = np.full(len(singles), "", dtype=object)
        okn = ok.to_numpy(zero_copy_only=False).astype(bool)
        vals[okn] = np.asarray(
            pc.struct_field(r.filter(ok), "p").to_pandas(), dtype=object
        )
        # a malformed body can still EMBED a valid pair (old findall
        # semantics) — only those few rows pay the python findall
        odd = (~okn) & (singles.to_numpy(dtype=object) != "")
        if odd.any():
            found = singles[odd].str.findall(_PROM_PAIR_RE)
            vals[odd] = found.map(
                lambda ps: ",".join(sorted(ps)) if ps else ""
            ).to_numpy(dtype=object)
        out[~multi] = vals
    if multi.any():
        parts = raw[multi].str.findall(_PROM_PAIR_RE)
        out[multi] = parts.map(
            lambda ps: ",".join(sorted(ps)) if ps else ""
        ).to_numpy(dtype=object)
    return pd.Series(out, index=raw.index, dtype=object)


def parse_prometheus_text(t: pa.Table) -> pa.Table:
    """Vectorized prometheus exposition text → metric rows. Output uses
    the shared scraper schema with the full canonical label set in
    ``label_value`` (label_key='labels' when any label is present).
    Unparseable sample lines and samples with non-numeric values are
    skipped; NaN/±Inf values parse (prom allows them)."""
    import pyarrow.compute as pc

    id_type = t.schema.field("server_id").type
    line_ids, line_arr = _explode_lines_arrow(t)

    # --- TYPE declarations: (payload row, base name) -> prom type ---
    tyr = pc.extract_regex(
        line_arr,
        r"^#\s*TYPE\s+(?P<base>[a-zA-Z_:][a-zA-Z0-9_:]*)\s+(?P<ptype>\w+)\s*$",
    )
    tok = pc.is_valid(tyr)
    tmatch = tyr.filter(tok)
    types = pd.DataFrame(
        {
            "_id": line_ids[tok.to_numpy(zero_copy_only=False).astype(bool)],
            "base": pc.struct_field(tmatch, "base").to_pandas().astype(object),
            "ptype": pc.struct_field(tmatch, "ptype").to_pandas().astype(object),
        }
    )

    # --- samples (a '#' comment line can never match: '#' is not in
    # the metric-name start class) ---
    smr = pc.extract_regex(
        line_arr,
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<lbl>.*)\})?"
        r"\s+(?P<val>\S+)(?:\s+(?P<ts>-?\d+))?\s*$",
    )
    sok = pc.is_valid(smr)
    smatch = smr.filter(sok)
    samples = pd.DataFrame(
        {
            "_id": line_ids[sok.to_numpy(zero_copy_only=False).astype(bool)],
            "name": pc.struct_field(smatch, "name").to_pandas().astype(object),
            "lbl": pc.struct_field(smatch, "lbl").to_pandas().astype(object),
            "val": pc.struct_field(smatch, "val").to_pandas().astype(object),
        }
    )
    vals = pd.to_numeric(
        samples["val"].str.replace("+Inf", "inf", regex=False).str.replace("-Inf", "-inf", regex=False),
        errors="coerce",
    )
    samples = samples[vals.notna()]
    vals = vals[vals.notna()]
    samples = samples.assign(value=vals.astype(np.float64))

    # resolve each sample's declared type: exact base-name match first,
    # then the component suffixes (_bucket/_sum/_count) against
    # histogram/summary declarations
    merged = samples.merge(types, left_on=["_id", "name"], right_on=["_id", "base"], how="left")
    for suffix in ("_bucket", "_sum", "_count"):
        miss = merged["ptype"].isna() & merged["name"].str.endswith(suffix)
        if miss.any():
            sub = merged[miss].drop(columns=["base", "ptype"])
            sub = sub.assign(base=sub["name"].str[: -len(suffix)])
            sub = sub.merge(types, on=["_id", "base"], how="left")
            # only histogram/summary declarations own component series
            ok = sub["ptype"].isin(["histogram", "summary"])
            sub.loc[~ok, "ptype"] = None
            merged.loc[miss, "ptype"] = sub["ptype"].to_numpy()
    merged["ptype"] = merged["ptype"].fillna("untyped")

    mt = merged["ptype"].map(lambda p: _PROM_TYPE_MAP.get(p, ("gauge", False)))
    labels = _prom_canon_labels(merged["lbl"])
    out = pd.DataFrame(
        {
            "_id": merged["_id"],
            "name": merged["name"],
            "units": None,
            "mtype": mt.map(lambda x: x[0]),
            "monotonic": mt.map(lambda x: x[1]),
            "label_key": np.where(labels != "", "labels", None),
            "label_value": labels.where(labels != "", None),
            "value_int": np.nan,
            "value_double": merged["value"],
        }
    )
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# docker container stats JSON (dockerstatsreceiver/metrics.go:44-288):
# the docker API /stats response carries cpu_stats + precpu_stats, so
# the receiver's previous-reading state collapses to fields of the same
# payload in batch mode. Decoded with pyarrow's vectorized JSON reader
# (payloads must be single-line JSON, one scrape per row).
# ---------------------------------------------------------------------------

# metrics.go:205-213 — memory stats that are cumulative counters; all
# other memory.stats entries are By gauges
_DOCKER_MEM_CUMULATIVE = {
    "pgfault",
    "pgmajfault",
    "pgpgin",
    "pgpgout",
    "total_pgfault",
    "total_pgmajfault",
    "total_pgpgin",
    "total_pgpgout",
}

_DOCKER_BLKIO_STATS = [
    ("io_merged_recursive", "1"),
    ("io_queued_recursive", "1"),
    ("io_service_bytes_recursive", "By"),
    ("io_service_time_recursive", "ns"),
    ("io_serviced_recursive", "1"),
    ("io_time_recursive", "ms"),
    ("io_wait_time_recursive", "1"),
    ("sectors_recursive", "1"),
]

_DOCKER_NET_STATS = [
    ("rx_bytes", "By"),
    ("tx_bytes", "By"),
    ("rx_dropped", "1"),
    ("rx_errors", "1"),
    ("rx_packets", "1"),
    ("tx_dropped", "1"),
    ("tx_errors", "1"),
    ("tx_packets", "1"),
]


def _docker_field(tbl: pa.Table, path: list[str], n: int) -> np.ndarray:
    """struct_field chain that degrades to NaN when absent anywhere."""
    import pyarrow.compute as pc

    try:
        col = tbl[path[0]]
        for p in path[1:]:
            col = pc.struct_field(col, p)
        return pd.to_numeric(pd.Series(col.to_pandas()), errors="coerce").to_numpy(
            dtype=np.float64
        )
    except (KeyError, pa.ArrowInvalid, pa.ArrowTypeError):
        return np.full(n, np.nan)


def parse_docker_stats(t: pa.Table) -> pa.Table:
    """Docker stats JSON → metrics: cpu (incl. the docker-cli CPU%%
    formula, metrics.go:184-204), memory (usage/limit/percent/max +
    per-stat rows with the cumulative set), per-interface network
    counters, per-device blockio counters with empty-op entries
    skipped (metrics.go:117-120)."""
    import io as _io

    import pyarrow.compute as pc
    import pyarrow.json as pj

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    n = len(ids)
    pay = pd.Series(t["payload"].to_numpy(zero_copy_only=False), dtype=object).fillna("{}")
    pay = pay.where(pay.str.len() > 0, "{}")
    tbl = pj.read_json(_io.BytesIO(("\n".join(pay) + "\n").encode()))

    frames: list[pd.DataFrame] = []

    def emit(name, units, mtype, mono, vals, label_key=None, label_value=None, sel=None):
        v = np.asarray(vals, dtype=np.float64)
        keep = ~np.isnan(v) if sel is None else (sel & ~np.isnan(v))
        if not keep.any():
            return
        is_double = name in ("cpu.percent", "memory.percent")
        lv = label_value
        if isinstance(label_value, np.ndarray):
            lv = label_value[keep]
        frames.append(
            pd.DataFrame(
                {
                    "_id": ids[keep] if len(v) == n else v_ids[keep],
                    "name": name,
                    "units": units,
                    "mtype": mtype,
                    "monotonic": mono,
                    "label_key": label_key,
                    "label_value": lv,
                    "value_int": np.nan if is_double else v[keep],
                    "value_double": v[keep] if is_double else np.nan,
                }
            )
        )

    v_ids = ids  # default parent ids for full-length emits

    # --- cpu (metrics.go:132-171) ---
    total = _docker_field(tbl, ["cpu_stats", "cpu_usage", "total_usage"], n)
    system = _docker_field(tbl, ["cpu_stats", "system_cpu_usage"], n)
    emit("cpu.usage.system", "ns", "sum", True, system)
    emit("cpu.usage.total", "ns", "sum", True, total)
    emit("cpu.usage.kernelmode", "ns", "sum", True, _docker_field(tbl, ["cpu_stats", "cpu_usage", "usage_in_kernelmode"], n))
    emit("cpu.usage.usermode", "ns", "sum", True, _docker_field(tbl, ["cpu_stats", "cpu_usage", "usage_in_usermode"], n))
    emit("cpu.throttling_data.periods", "1", "sum", True, _docker_field(tbl, ["cpu_stats", "throttling_data", "periods"], n))
    emit("cpu.throttling_data.throttled_periods", "1", "sum", True, _docker_field(tbl, ["cpu_stats", "throttling_data", "throttled_periods"], n))
    emit("cpu.throttling_data.throttled_time", "ns", "sum", True, _docker_field(tbl, ["cpu_stats", "throttling_data", "throttled_time"], n))

    prev_total = _docker_field(tbl, ["precpu_stats", "cpu_usage", "total_usage"], n)
    prev_system = _docker_field(tbl, ["precpu_stats", "system_cpu_usage"], n)
    online = _docker_field(tbl, ["cpu_stats", "online_cpus"], n)
    # onlineCPUs == 0 → len(percpu_usage) (metrics.go:195-197)
    try:
        percpu = tbl["cpu_stats"]
        percpu = pc.struct_field(percpu, "cpu_usage")
        percpu = pc.struct_field(percpu, "percpu_usage")
        ncores = pc.list_value_length(percpu).to_numpy(zero_copy_only=False).astype(np.float64)
    except (KeyError, pa.ArrowInvalid, pa.ArrowTypeError):
        ncores = np.zeros(n)
    online = np.where(np.nan_to_num(online) == 0.0, np.nan_to_num(ncores), online)
    cpu_delta = total - prev_total
    sys_delta = system - prev_system
    with np.errstate(invalid="ignore", divide="ignore"):
        pct = np.where(
            (sys_delta > 0) & (cpu_delta > 0),
            (cpu_delta / sys_delta) * online * 100.0,
            0.0,
        )
    pct = np.where(np.isnan(total) | np.isnan(prev_total), np.nan, pct)
    emit("cpu.percent", "1", "gauge", False, pct)

    # --- memory (metrics.go:214-256) ---
    usage = _docker_field(tbl, ["memory_stats", "usage"], n)
    limit = _docker_field(tbl, ["memory_stats", "limit"], n)
    cache = _docker_field(tbl, ["memory_stats", "stats", "cache"], n)
    total_cache = _docker_field(tbl, ["memory_stats", "stats", "total_cache"], n)
    emit("memory.usage.limit", "By", "gauge", False, limit)
    emit("memory.usage.total", "By", "gauge", False, usage - np.nan_to_num(total_cache))
    with np.errstate(invalid="ignore", divide="ignore"):
        mem_pct = np.where(
            limit == 0, 0.0, 100.0 * (usage - np.nan_to_num(cache)) / limit
        )
    mem_pct = np.where(np.isnan(usage) | np.isnan(limit), np.nan, mem_pct)
    emit("memory.percent", "1", "gauge", False, mem_pct)
    emit("memory.usage.max", "By", "gauge", False, _docker_field(tbl, ["memory_stats", "max_usage"], n))
    if "memory_stats" in tbl.column_names:
        mtyp = tbl.schema.field("memory_stats").type
        try:
            styp = mtyp.field("stats").type
            stat_names = sorted(styp.field(i).name for i in range(styp.num_fields))
        except KeyError:
            stat_names = []
        for sn in stat_names:
            cumulative = sn in _DOCKER_MEM_CUMULATIVE
            emit(
                f"memory.{sn}",
                "1" if cumulative else "By",
                "sum" if cumulative else "gauge",
                cumulative,
                _docker_field(tbl, ["memory_stats", "stats", sn], n),
            )

    # --- network per interface (metrics.go:258-288) ---
    if "networks" in tbl.column_names:
        ntyp = tbl.schema.field("networks").type
        for i in range(ntyp.num_fields):
            nic = ntyp.field(i).name
            for stat, units in _DOCKER_NET_STATS:
                emit(
                    f"network.io.usage.{stat}",
                    units,
                    "sum",
                    True,
                    _docker_field(tbl, ["networks", nic, stat], n),
                    label_key="interface",
                    label_value=nic,
                )

    # --- blockio per device entry (metrics.go:100-130) ---
    if "blkio_stats" in tbl.column_names:
        btyp = tbl.schema.field("blkio_stats").type
        present = {btyp.field(i).name for i in range(btyp.num_fields)}
        for base, units in _DOCKER_BLKIO_STATS:
            if base not in present:
                continue
            lst = pc.struct_field(tbl["blkio_stats"], base)
            if isinstance(lst, pa.ChunkedArray):
                lst = lst.combine_chunks()
            parent = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)
            flat = pc.list_flatten(lst)
            ops = pd.Series(pc.struct_field(flat, "op").to_pandas(), dtype=object).fillna("")
            vals = pd.to_numeric(
                pd.Series(pc.struct_field(flat, "value").to_pandas()), errors="coerce"
            ).to_numpy(dtype=np.float64)
            major = pd.Series(pc.struct_field(flat, "major").to_pandas()).fillna(0).astype(np.int64)
            minor = pd.Series(pc.struct_field(flat, "minor").to_pandas()).fillna(0).astype(np.int64)
            keep = (ops != "").to_numpy(dtype=bool) & ~np.isnan(vals)
            if not keep.any():
                continue
            names = ("blockio." + base + "." + ops.str.lower()).to_numpy(dtype=object)[keep]
            labels = (
                "device_major=" + major.astype(str) + ",device_minor=" + minor.astype(str)
            ).to_numpy(dtype=object)[keep]
            frames.append(
                pd.DataFrame(
                    {
                        "_id": ids[parent[keep]],
                        "name": names,
                        "units": units,
                        "mtype": "sum",
                        "monotonic": True,
                        "label_key": "labels",
                        "label_value": labels,
                        "value_int": vals[keep],
                        "value_double": np.nan,
                    }
                )
            )

    if not frames:
        out = pd.DataFrame(
            columns=["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"]
        )
    else:
        out = pd.concat(frames, ignore_index=True)
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# ECS task metadata + stats (awsecscontainermetricsreceiver/
# awsecscontainermetrics/): metrics_helper.go:20-160 computes the
# per-container ECSMetrics (memory utilized = (usage-cache)/MiB in
# integer math, cpu.usage.vcpu = cpuΔ/readΔns, utilization scaled by
# the container CPU limit, network summed across interfaces, storage
# from Read/Write blkio ops with other ops ignored);
# accumulator.go:30-112 joins metadata containers with their stats,
# rolls containers up into task metrics, overrides reserved values
# with task-level limits (CPUsInVCpu=1024), recomputes task
# cpu.utilized against the reserve, and emits a duration gauge for
# stopped containers; translator.go:21-71 fixes the 27-metric layout
# per resource. Batch shape: one task per row, `stats` carried as a
# LIST of per-container stats objects with an `id` field (the batch
# adaptation of the endpoint's DockerId-keyed map).
# ---------------------------------------------------------------------------

_ECS_BYTES_IN_MIB = 1024 * 1024
_ECS_CPUS_IN_VCPU = 1024

# (field, metric suffix, units, mtype, monotonic, double)
_ECS_LAYOUT = [
    ("memory_usage", "memory.usage", "Bytes", "gauge", False, False),
    ("memory_max", "memory.usage.max", "Bytes", "gauge", False, False),
    ("memory_limit", "memory.usage.limit", "Bytes", "gauge", False, False),
    ("memory_utilized", "memory.utilized", "MiB", "gauge", False, False),
    ("memory_reserved", "memory.reserved", "MiB", "gauge", False, False),
    ("cpu_total", "cpu.usage.total", "NS", "sum", True, False),
    ("cpu_kernel", "cpu.usage.kernelmode", "NS", "sum", True, False),
    ("cpu_user", "cpu.usage.usermode", "NS", "sum", True, False),
    ("cpu_cores", "cpu.cores", "Count", "gauge", False, False),
    ("cpu_onlines", "cpu.onlines", "Count", "gauge", False, False),
    ("cpu_system", "cpu.usage.system", "NS", "sum", True, False),
    ("cpu_utilized", "cpu.utilized", "Percent", "gauge", False, True),
    ("cpu_reserved", "cpu.reserved", "vCPU", "gauge", False, True),
    ("cpu_vcpu", "cpu.usage.vcpu", "vCPU", "gauge", False, True),
    ("rate_rx", "network.rate.rx", "Bytes/Sec", "gauge", False, True),
    ("rate_tx", "network.rate.tx", "Bytes/Sec", "gauge", False, True),
    ("net_rx_bytes", "network.io.usage.rx_bytes", "Bytes", "sum", True, False),
    ("net_rx_packets", "network.io.usage.rx_packets", "Count", "sum", True, False),
    ("net_rx_errors", "network.io.usage.rx_errors", "Count", "sum", True, False),
    ("net_rx_dropped", "network.io.usage.rx_dropped", "Count", "sum", True, False),
    ("net_tx_bytes", "network.io.usage.tx_bytes", "Bytes", "sum", True, False),
    ("net_tx_packets", "network.io.usage.tx_packets", "Count", "sum", True, False),
    ("net_tx_errors", "network.io.usage.tx_errors", "Count", "sum", True, False),
    ("net_tx_dropped", "network.io.usage.tx_dropped", "Count", "sum", True, False),
    ("storage_read", "storage.read_bytes", "Bytes", "sum", True, False),
    ("storage_write", "storage.write_bytes", "Bytes", "sum", True, False),
]

_ECS_SUM_FIELDS = [f for f, *_ in _ECS_LAYOUT]


def _ecs_container_metrics(stats: dict) -> dict:
    """getContainerMetrics (metrics_helper.go:20-90) for one container."""
    m = {f: 0 for f, *_ in _ECS_LAYOUT}
    mem = stats.get("memory_stats")
    if mem is not None:
        m["memory_usage"] = int(mem.get("usage", 0))
        m["memory_max"] = int(mem.get("max_usage", 0))
        m["memory_limit"] = int(mem.get("limit", 0))
        if mem.get("stats") is not None:
            # Go uint64 arithmetic → integer division
            m["memory_utilized"] = (
                int(mem.get("usage", 0)) - int(mem["stats"].get("cache", 0))
            ) // _ECS_BYTES_IN_MIB
    cpu = stats.get("cpu_stats")
    if cpu is not None and cpu.get("cpu_usage") is not None:
        cu = cpu["cpu_usage"]
        m["cpu_cores"] = len(cu.get("percpu_usage") or [])
        read = pd.Timestamp(stats.get("read"))
        preread = pd.Timestamp(stats.get("preread"))
        time_diff_ns = float((read - preread).value) if pd.notna(read) and pd.notna(preread) else 0.0
        vcpu = 0.0
        if time_diff_ns > 0:
            prev = (stats.get("precpu_stats") or {}).get("cpu_usage") or {}
            vcpu = (float(cu.get("total_usage", 0)) - float(prev.get("total_usage", 0))) / time_diff_ns
        m["cpu_total"] = int(cu.get("total_usage", 0))
        m["cpu_kernel"] = int(cu.get("usage_in_kernelmode", 0))
        m["cpu_user"] = int(cu.get("usage_in_usermode", 0))
        m["cpu_onlines"] = int(cpu.get("online_cpus", 0))
        m["cpu_system"] = int(cpu.get("system_cpu_usage", 0))
        m["cpu_vcpu"] = vcpu
        m["cpu_utilized"] = vcpu * 100.0
    rate = stats.get("network_rate_stats")
    if rate is not None:
        m["rate_rx"] = float(rate.get("rx_bytes_per_sec", 0.0))
        m["rate_tx"] = float(rate.get("tx_bytes_per_sec", 0.0))
    nets = stats.get("networks")
    if nets is not None:
        for ns_ in nets.values() if isinstance(nets, dict) else nets:
            for src, dst in (
                ("rx_bytes", "net_rx_bytes"),
                ("rx_packets", "net_rx_packets"),
                ("rx_errors", "net_rx_errors"),
                ("rx_dropped", "net_rx_dropped"),
                ("tx_bytes", "net_tx_bytes"),
                ("tx_packets", "net_tx_packets"),
                ("tx_errors", "net_tx_errors"),
                ("tx_dropped", "net_tx_dropped"),
            ):
                m[dst] += int(ns_.get(src, 0))
    disk = stats.get("blkio_stats")
    if disk is not None:
        for bs in disk.get("io_service_bytes_recursive") or []:
            if bs.get("op") == "Read":
                m["storage_read"] = int(bs.get("value", 0))
            elif bs.get("op") == "Write":
                m["storage_write"] = int(bs.get("value", 0))
            # other ops (Async/Total/Sum) ignored (metrics_helper.go:118-126)
    return m


def parse_ecs_task_stats(t: pa.Table) -> pa.Table:
    """ECS task payload ({"metadata": TaskMetadata, "stats": [...]})
    → the receiver's container + task metric rows. Labels:
    'container=<Name>,task=<id-from-ARN>' / 'task=<id>'. Stats objects
    are matched to metadata containers by DockerId; a container without
    stats but with StartedAt+FinishedAt emits only `container.duration`
    (RFC3339 diff in seconds) and is excluded from the task rollup."""
    import json as _json

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"].to_pylist()

    recs: list[tuple] = []  # (_id, name, units, mtype, mono, label, vi, vd)

    def emit_block(sid, prefix, label, m):
        for field, suffix, units, mtype, mono, double in _ECS_LAYOUT:
            v = m[field]
            vi = None if double else int(v)
            vd = float(v) if double else None
            recs.append((sid, prefix + suffix, units, mtype, mono, label, vi, vd))

    for sid, raw in zip(ids, pay):
        try:
            doc = _json.loads(raw) if raw else {}
        except (TypeError, ValueError):
            continue
        meta = doc.get("metadata") or {}
        stats_list = doc.get("stats") or []
        stats_by_id = {s.get("id"): s for s in stats_list if isinstance(s, dict)}
        arn = meta.get("TaskARN", "")
        task_id = arn.split("/")[-1] if arn else ""
        task_label = f"task={task_id}"
        task = {f: 0 for f, *_ in _ECS_LAYOUT}

        for cm in meta.get("Containers") or []:
            stats = stats_by_id.get(cm.get("DockerId"))
            label = f"container={cm.get('Name', '')},task={task_id}"
            if stats is not None and stats.get("id"):
                m = _ecs_container_metrics(stats)
                limits = cm.get("Limits") or {}
                if limits.get("Memory") is not None:
                    m["memory_reserved"] = int(limits["Memory"])
                if limits.get("CPU") is not None:
                    m["cpu_reserved"] = float(limits["CPU"])
                if m["cpu_reserved"] > 0:
                    m["cpu_utilized"] = m["cpu_utilized"] / m["cpu_reserved"]
                emit_block(sid, "container.", label, m)
                for f in _ECS_SUM_FIELDS:
                    task[f] += m[f]
            elif cm.get("FinishedAt") and cm.get("StartedAt"):
                dur = (
                    pd.Timestamp(cm["FinishedAt"]) - pd.Timestamp(cm["StartedAt"])
                ).total_seconds()
                recs.append(
                    (sid, "container.duration", "Seconds", "gauge", False, label, None, float(dur))
                )

        # overrideWithTaskLevelLimit (accumulator.go:92-112)
        tlim = meta.get("Limits") or {}
        if tlim.get("Memory") is not None:
            task["memory_reserved"] = int(tlim["Memory"])
        task["cpu_reserved"] = task["cpu_reserved"] / _ECS_CPUS_IN_VCPU
        if tlim.get("CPU") is not None:
            task["cpu_reserved"] = float(tlim["CPU"])
        if task["cpu_reserved"] > 0:
            task["cpu_utilized"] = (task["cpu_vcpu"] / task["cpu_reserved"]) * 100.0
        emit_block(sid, "ecs.task.", task_label, task)

    out = pd.DataFrame(
        recs,
        columns=["_id", "name", "units", "mtype", "monotonic", "label_value", "value_int", "value_double"],
    )
    out["label_key"] = "labels"
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# kubelet /stats/summary JSON (kubeletstatsreceiver/kubelet/):
# accumulator.go:58-143 walks node → pods → containers → volumes and
# emits the cpu/mem/fs/network metric groups per level; cpu.go
# (utilization = usageNanoCores/1e9 double gauge, time =
# usageCoreNanoSeconds/1e9 cumulative double), mem.go (six int
# gauges), fs.go (three int gauges), network.go (network.io /
# network.errors cumulative ints with interface+direction labels),
# volume.go (available/capacity/inodes/inodes.free/inodes.used).
# Missing JSON fields are skipped (the builders return nil).
# ---------------------------------------------------------------------------

_KUBELET_MEM = [
    ("availableBytes", "memory.available", "By"),
    ("usageBytes", "memory.usage", "By"),
    ("rssBytes", "memory.rss", "By"),
    ("workingSetBytes", "memory.working_set", "By"),
    ("pageFaults", "memory.page_faults", "1"),
    ("majorPageFaults", "memory.major_page_faults", "1"),
]
_KUBELET_FS = [
    ("availableBytes", "filesystem.available", "By"),
    ("capacityBytes", "filesystem.capacity", "By"),
    ("usedBytes", "filesystem.usage", "By"),
]
_KUBELET_NET = [
    ("rxBytes", "network.io", "receive"),
    ("txBytes", "network.io", "transmit"),
    ("rxErrors", "network.errors", "receive"),
    ("txErrors", "network.errors", "transmit"),
]
_KUBELET_VOLUME = [
    ("availableBytes", "available", "By"),
    ("capacityBytes", "capacity", "By"),
    ("inodes", "inodes", "1"),
    ("inodesFree", "inodes.free", "1"),
    ("inodesUsed", "inodes.used", "1"),
]


def _struct_path(col, path):
    import pyarrow.compute as pc

    try:
        for p in path:
            col = pc.struct_field(col, p)
        return col
    except (KeyError, pa.ArrowInvalid, pa.ArrowTypeError):
        return None


def parse_kubelet_summary(t: pa.Table) -> pa.Table:
    """kubelet summary JSON → metric rows across the four metric
    groups (node / pod / container / volume). Pod-scoped rows carry
    'labels' = 'ns=<namespace>,pod=<name>' (containers add
    ',container=<name>', volumes ',volume=<name>') — the batch
    encoding of the reference's resource labels."""
    import io as _io

    import pyarrow.compute as pc
    import pyarrow.json as pj

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    n = len(ids)
    pay = pd.Series(t["payload"].to_numpy(zero_copy_only=False), dtype=object).fillna("{}")
    pay = pay.where(pay.str.len() > 0, "{}")
    tbl = pj.read_json(_io.BytesIO(("\n".join(pay) + "\n").encode()))

    frames: list[pd.DataFrame] = []

    def vals_of(col):
        if col is None:
            return None
        return pd.to_numeric(pd.Series(col.to_pandas()), errors="coerce").to_numpy(np.float64)

    def emit(row_ids, name, units, mtype, mono, v, label_key=None, label_value=None, double=False):
        if v is None:
            return
        keep = ~np.isnan(v)
        if not keep.any():
            return
        lv = label_value[keep] if isinstance(label_value, np.ndarray) else label_value
        frames.append(
            pd.DataFrame(
                {
                    "_id": row_ids[keep],
                    "name": name,
                    "units": units,
                    "mtype": mtype,
                    "monotonic": mono,
                    "label_key": label_key,
                    "label_value": lv,
                    "value_int": np.nan if double else v[keep],
                    "value_double": v[keep] if double else np.nan,
                }
            )
        )

    def emit_groups(root, prefix, row_ids, labels, fs_key="fs", with_net=True, with_fs=True):
        """cpu + mem (+fs +network) groups under one struct level."""
        lk = "labels" if labels is not None else None
        cores = vals_of(_struct_path(root, ["cpu", "usageNanoCores"]))
        if cores is not None:
            emit(row_ids, prefix + "cpu.utilization", "1", "gauge", False, cores / 1e9, lk, labels, double=True)
        csec = vals_of(_struct_path(root, ["cpu", "usageCoreNanoSeconds"]))
        if csec is not None:
            emit(row_ids, prefix + "cpu.time", "s", "sum", True, csec / 1e9, lk, labels, double=True)
        for key, mname, units in _KUBELET_MEM:
            emit(row_ids, prefix + mname, units, "gauge", False, vals_of(_struct_path(root, ["memory", key])), lk, labels)
        if with_fs:
            for key, mname, units in _KUBELET_FS:
                emit(row_ids, prefix + mname, units, "gauge", False, vals_of(_struct_path(root, [fs_key, key])), lk, labels)
        if with_net:
            nic = _struct_path(root, ["network", "name"])
            nic_s = pd.Series(nic.to_pandas(), dtype=object).fillna("") if nic is not None else None
            for key, mname, direction in _KUBELET_NET:
                v = vals_of(_struct_path(root, ["network", key]))
                if v is None:
                    continue
                base = "interface=" + (nic_s if nic_s is not None else "") + ",direction=" + direction
                if labels is not None:
                    base = base + "," + pd.Series(labels)
                emit(row_ids, prefix + mname, "By" if "io" in mname else "1", "sum", True, v, "labels", base.to_numpy(dtype=object))

    # --- node (accumulator.go:58-76) ---
    if "node" in tbl.column_names:
        emit_groups(tbl["node"], "k8s.node.", ids, None)

    # --- pods / containers / volumes ---
    if "pods" in tbl.column_names:
        pods = tbl["pods"]
        if isinstance(pods, pa.ChunkedArray):
            pods = pods.combine_chunks()
        pod_parent = pc.list_parent_indices(pods).to_numpy(zero_copy_only=False)
        pod_ids = ids[pod_parent]
        flat = pc.list_flatten(pods)
        pname = pd.Series(_struct_path(flat, ["podRef", "name"]).to_pandas(), dtype=object).fillna("")
        pns = pd.Series(_struct_path(flat, ["podRef", "namespace"]).to_pandas(), dtype=object).fillna("")
        plabels = ("ns=" + pns + ",pod=" + pname).to_numpy(dtype=object)
        emit_groups(flat, "k8s.pod.", pod_ids, plabels, fs_key="ephemeral-storage")

        # containers (accumulator.go:96-117): cpu + mem + rootfs
        ctyp_ok = True
        try:
            conts = pc.struct_field(flat, "containers")
        except (KeyError, pa.ArrowInvalid):
            ctyp_ok = False
        if ctyp_ok and conts is not None and pa.types.is_list(conts.type):
            c_parent = pc.list_parent_indices(conts).to_numpy(zero_copy_only=False)
            cflat = pc.list_flatten(conts)
            cname = pd.Series(_struct_path(cflat, ["name"]).to_pandas(), dtype=object).fillna("")
            clabels = (
                pd.Series(plabels[c_parent]) + ",container=" + cname.reset_index(drop=True)
            ).to_numpy(dtype=object)
            emit_groups(cflat, "container.", pod_ids[c_parent], clabels, fs_key="rootfs", with_net=False)

        # volumes (accumulator.go:119-143)
        try:
            vols = pc.struct_field(flat, "volume")
        except (KeyError, pa.ArrowInvalid):
            vols = None
        if vols is not None and pa.types.is_list(vols.type):
            v_parent = pc.list_parent_indices(vols).to_numpy(zero_copy_only=False)
            vflat = pc.list_flatten(vols)
            vname = pd.Series(_struct_path(vflat, ["name"]).to_pandas(), dtype=object).fillna("")
            vlabels = (
                pd.Series(plabels[v_parent]) + ",volume=" + vname.reset_index(drop=True)
            ).to_numpy(dtype=object)
            for key, mname, units in _KUBELET_VOLUME:
                emit(
                    pod_ids[v_parent],
                    "k8s.volume." + mname,
                    units,
                    "gauge",
                    False,
                    vals_of(_struct_path(vflat, [key])),
                    "labels",
                    vlabels,
                )

    if not frames:
        out = pd.DataFrame(
            columns=["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"]
        )
    else:
        out = pd.concat(frames, ignore_index=True)
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# k8s object state → metrics (k8sclusterreceiver/collection/): the
# informer half is out of batch scope; the TRANSLATION half is pure
# per-object logic: pods.go:31-105 (pod phase 1-5 with unknown=5,
# per-container-status restarts/ready skipping empty containerIDs,
# spec request/limit metrics with cpu in millicores),
# deployments.go (nil spec.replicas → no metrics, else
# k8s.deployment.desired/available via replica.go),
# nodes.go:34-88 (k8s.node.condition_<snake> with True=1/False=0/
# else -1), namespaces.go (phase active=1/terminating=0).
# Payload: a JSON object or LIST of objects, each with a `kind`.
# ---------------------------------------------------------------------------

_K8S_POD_PHASE = {"Pending": 1, "Running": 2, "Succeeded": 3, "Failed": 4, "Unknown": 5}
_K8S_COND_VALUE = {"True": 1, "False": 0}
_K8S_NS_PHASE = {"Active": 1, "Terminating": 0}

_QTY_SUFFIX = {
    "Ki": 1024,
    "Mi": 1024**2,
    "Gi": 1024**3,
    "Ti": 1024**4,
    "k": 1000,
    "M": 1000**2,
    "G": 1000**3,
    "T": 1000**4,
}


def parse_k8s_quantity(s, milli: bool = False) -> int:
    """k8s resource.Quantity subset: plain numbers, 'm' millis, and
    binary/decimal suffixes. milli=True returns MilliValue (cpu path,
    containers.go:75-78), else Value."""
    s = str(s)
    if s.endswith("m"):
        v = float(s[:-1]) / 1000.0
    else:
        v = None
        for suf, mult in _QTY_SUFFIX.items():
            if s.endswith(suf):
                v = float(s[: -len(suf)]) * mult
                break
        if v is None:
            v = float(s)
    return int(round(v * 1000)) if milli else int(np.ceil(v))


def _snake(s: str) -> str:
    import re as _re

    return _re.sub(r"(?<!^)(?=[A-Z])", "_", s).lower()


def parse_k8s_objects(
    t: pa.Table,
    node_conditions: Sequence[str] = ("Ready",),
) -> pa.Table:
    """k8s object JSON(s) → cluster-state metric rows (shared scraper
    schema; labels identify the object)."""
    import json as _json

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"].to_pylist()
    recs: list[tuple] = []

    def emit(sid, name, label, value):
        recs.append((sid, name, None, "gauge", False, "labels", label, int(value), None))

    for sid, raw in zip(ids, pay):
        try:
            doc = _json.loads(raw) if raw else []
        except (TypeError, ValueError):
            continue
        objs = doc if isinstance(doc, list) else [doc]
        for o in objs:
            kind = o.get("kind")
            meta = o.get("metadata") or {}
            nm = meta.get("name", "")
            ns_ = meta.get("namespace", "")
            status = o.get("status") or {}
            spec = o.get("spec") or {}
            if kind == "Pod":
                plabel = f"ns={ns_},pod={nm}"
                emit(sid, "k8s.pod.phase", plabel, _K8S_POD_PHASE.get(status.get("phase"), 5))
                spec_by_name = {c.get("name"): c for c in spec.get("containers") or []}
                for cs in status.get("containerStatuses") or []:
                    if not cs.get("containerID"):
                        continue  # pods.go:46-48
                    clabel = plabel + f",container={cs.get('name', '')}"
                    emit(sid, "k8s.container.restarts", clabel, cs.get("restartCount", 0))
                    emit(sid, "k8s.container.ready", clabel, 1 if cs.get("ready") else 0)
                    c = spec_by_name.get(cs.get("name"))
                    if c is None:
                        continue  # spec/status mismatch → skip spec metrics
                    res = c.get("resources") or {}
                    for typ in ("requests", "limits"):
                        for rk, rv in (res.get(typ) or {}).items():
                            val = parse_k8s_quantity(rv, milli=(rk == "cpu"))
                            suffix = "request" if typ == "requests" else "limit"
                            emit(sid, f"k8s.container.{rk}_{suffix}", clabel, val)
            elif kind == "Deployment":
                if spec.get("replicas") is None:
                    continue  # deployments.go: nil replicas → no metrics
                dlabel = f"ns={ns_},deployment={nm}"
                emit(sid, "k8s.deployment.desired", dlabel, spec["replicas"])
                emit(sid, "k8s.deployment.available", dlabel, status.get("availableReplicas", 0))
            elif kind == "Node":
                nlabel = f"node={nm}"
                conds = {c.get("type"): c.get("status") for c in status.get("conditions") or []}
                for ct in node_conditions:
                    emit(
                        sid,
                        f"k8s.node.condition_{_snake(ct)}",
                        nlabel,
                        _K8S_COND_VALUE.get(conds.get(ct), -1),
                    )
            elif kind == "Namespace":
                emit(sid, "k8s.namespace.phase", f"ns={nm}", _K8S_NS_PHASE.get(status.get("phase"), 0))

    out = pd.DataFrame(
        recs,
        columns=["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"],
    )
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# nginx stub_status (scraper.go:81-93)
# ---------------------------------------------------------------------------

_NGINX_RE = (
    r"Active connections:\s+(\d+)\s*\n"
    r"server accepts handled requests\s*\n"
    r"\s*(\d+)\s+(\d+)\s+(\d+)\s*\n"
    r"Reading:\s*(\d+)\s*Writing:\s*(\d+)\s*Waiting:\s*(\d+)"
)

# same pattern with named groups for Arrow's re2 extract_regex kernel
_NGINX_RE_NAMED = (
    r"Active connections:\s+(?P<g0>\d+)\s*\n"
    r"server accepts handled requests\s*\n"
    r"\s*(?P<g1>\d+)\s+(?P<g2>\d+)\s+(?P<g3>\d+)\s*\n"
    r"Reading:\s*(?P<g4>\d+)\s*Writing:\s*(?P<g5>\d+)\s*Waiting:\s*(?P<g6>\d+)"
)


def parse_nginx_stub_status(t: pa.Table) -> pa.Table:
    """Vectorized stub_status text → sums (requests / accepted /
    handled) + state-labelled current-connections gauges. Payloads that
    don't match the stub_status shape produce no rows (the reference
    client errors the scrape)."""
    import pyarrow.compute as pc

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"]
    if isinstance(pay, pa.ChunkedArray):
        pay = pay.combine_chunks()
    r = pc.extract_regex(pc.fill_null(pay, ""), _NGINX_RE_NAMED)
    okm = pc.is_valid(r)
    m = r.filter(okm)
    ids = ids[okm.to_numpy(zero_copy_only=False).astype(bool)]
    g = [
        pd.Series(pc.struct_field(m, f"g{i}").to_pandas()).astype(np.int64)
        for i in range(7)
    ]
    active, accepts, handled, requests = g[0], g[1], g[2], g[3]
    reading, writing, waiting = g[4], g[5], g[6]

    frames = [
        pd.DataFrame({"_id": ids, "name": "nginx.requests", "units": "requests", "mtype": "sum", "monotonic": True, "label_key": None, "label_value": None, "value_int": requests.to_numpy(), "value_double": np.nan}),
        pd.DataFrame({"_id": ids, "name": "nginx.connections_accepted", "units": "connections", "mtype": "sum", "monotonic": True, "label_key": None, "label_value": None, "value_int": accepts.to_numpy(), "value_double": np.nan}),
        pd.DataFrame({"_id": ids, "name": "nginx.connections_handled", "units": "connections", "mtype": "sum", "monotonic": True, "label_key": None, "label_value": None, "value_int": handled.to_numpy(), "value_double": np.nan}),
    ]
    for state, vals in (
        ("active", active),
        ("reading", reading),
        ("writing", writing),
        ("waiting", waiting),
    ):
        frames.append(
            pd.DataFrame({"_id": ids, "name": "nginx.connections_current", "units": "connections", "mtype": "gauge", "monotonic": False, "label_key": "state", "label_value": state, "value_int": vals.to_numpy(), "value_double": np.nan})
        )
    out = pd.concat(frames, ignore_index=True)
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# awscontainerinsightreceiver cluster-level metrics (k8sapiserver.go)
# ---------------------------------------------------------------------------

# node.go:32-37: the conditions whose status != "False" mark a node failed
_CI_FAILED_NODE_CONDITIONS = frozenset(
    {"MemoryPressure", "DiskPressure", "PIDPressure", "NetworkUnavailable"}
)


def parse_container_insights(t: pa.Table) -> pa.Table:
    """Container Insights cluster snapshot JSON → the k8sapiserver
    metrics (awscontainerinsightreceiver/internal/k8sapiserver/
    k8sapiserver.go:111-186 over internal/aws/k8s/k8sclient):

    * ``ci.cluster_node_count`` / ``ci.cluster_failed_node_count`` —
      a node is failed when ANY pressure/network condition's status is
      not "False", i.e. True or Unknown (node.go:92-118).
    * ``ci.namespace_number_of_running_pods`` — pods with phase
      Running counted per namespace; namespaces with zero running pods
      emit nothing (pod.go:66-80 builds the map only from matches).
    * ``ci.service_number_of_running_pods`` — endpoint pod-key list
      length per service; services with 0 pods are ignored
      (endpoint.go:104-112).

    Snapshot shape: ``{"cluster": name, "nodes": [k8s Node…],
    "pods": [{namespace, phase}…], "endpoints": [{service, namespace,
    podKeys}…]}``. An empty/missing cluster name drops the whole
    snapshot (k8sapiserver.go:121-126)."""
    import json as _json

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"].to_pylist()
    recs: list[tuple] = []

    def emit(sid, name, label, value):
        recs.append(
            (sid, name, None, "gauge", False, "labels", label, int(value), None)
        )

    for sid, raw in zip(ids, pay):
        try:
            doc = _json.loads(raw) if raw else {}
        except (TypeError, ValueError):
            continue
        cluster = doc.get("cluster") or ""
        if not cluster:
            continue  # k8sapiserver.go:121-126: no cluster name → drop all
        clabel = f"cluster={cluster}"

        nodes = doc.get("nodes") or []
        failed = 0
        for node in nodes:
            conds = (node.get("status") or {}).get("conditions") or []
            for c in conds:
                if c.get("type") in _CI_FAILED_NODE_CONDITIONS and c.get(
                    "status"
                ) != "False":
                    failed += 1
                    break  # node.go:100-110: first matching condition
        emit(sid, "ci.cluster_node_count", clabel, len(nodes))
        emit(sid, "ci.cluster_failed_node_count", clabel, failed)

        ns_running: dict[str, int] = {}
        for pod in doc.get("pods") or []:
            if pod.get("phase") == "Running":
                ns_ = pod.get("namespace", "")
                ns_running[ns_] = ns_running.get(ns_, 0) + 1
        for ns_, cnt in ns_running.items():
            emit(
                sid,
                "ci.namespace_number_of_running_pods",
                f"{clabel},ns={ns_}",
                cnt,
            )

        for ep in doc.get("endpoints") or []:
            pods = ep.get("podKeys") or []
            if not pods:
                continue  # endpoint.go:110-112
            emit(
                sid,
                "ci.service_number_of_running_pods",
                f"{clabel},ns={ep.get('namespace', '')},service={ep.get('service', '')}",
                len(pods),
            )

    out = pd.DataFrame(
        recs,
        columns=["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"],
    )
    return _finish(out, id_type)


# ---------------------------------------------------------------------------
# awscontainerinsightreceiver decorated-metric → OTLP translation
# (internal/aws/containerinsight/utils.go + const.go).  The cadvisor
# collection half of the receiver is a literal TODO stub in the
# reference snapshot (internal/cadvisor/cadvisor_linux.go:26-40 returns
# []pdata.Metrics{}); the shared translation layer below is the
# receiver's remaining logic surface.
# ---------------------------------------------------------------------------

# strconv.ParseUint(s, 10, 64) syntax: ASCII digits only (no sign,
# whitespace or '_' separators — base-10 ParseUint rejects all three)
_CI_UINT_RE = re.compile(r"[0-9]+")

# utils.go:96-148 getPrefixByMetricType (unknown type → "" + error log)
_CI_TYPE_PREFIX = {
    "Instance": "instance_",
    "InstanceFS": "instance_",
    "InstanceDiskIO": "instance_",
    "InstanceNet": "instance_interface_",
    "Node": "node_",
    "NodeFS": "node_",
    "NodeDiskIO": "node_",
    "NodeNet": "node_interface_",
    "Pod": "pod_",
    "PodNet": "pod_interface_",
    "Container": "container_",
    "ContainerDiskIO": "container_",
    "ContainerFS": "container_",
    "Service": "service_",
    "Cluster": "cluster_",
    "ClusterService": "service_",
    "ClusterNamespace": "namespace_",
}

# const.go:138-211 metricToUnitMap (units per UNPREFIXED measurement)
_CI_METRIC_UNITS = {
    "cpu_utilization": "Percent",
    "cpu_reserved_capacity": "Percent",
    "cpu_utilization_over_pod_limit": "Percent",
    "memory_usage": "Bytes",
    "memory_cache": "Bytes",
    "memory_rss": "Bytes",
    "memory_max_usage": "Bytes",
    "memory_swap": "Bytes",
    "memory_failcnt": "Count",
    "memory_mapped_file": "Bytes",
    "memory_working_set": "Bytes",
    "memory_request": "Bytes",
    "memory_limit": "Bytes",
    "memory_utilization": "Percent",
    "memory_reserved_capacity": "Percent",
    "memory_utilization_over_pod_limit": "Percent",
    "memory_pgfault": "Count/Second",
    "memory_pgmajfault": "Count/Second",
    "memory_hierarchical_pgfault": "Count/Second",
    "memory_hierarchical_pgmajfault": "Count/Second",
    "network_rx_bytes": "Bytes/Second",
    "network_rx_packets": "Count/Second",
    "network_rx_dropped": "Count/Second",
    "network_rx_errors": "Count/Second",
    "network_tx_bytes": "Bytes/Second",
    "network_tx_packets": "Count/Second",
    "network_tx_dropped": "Count/Second",
    "network_tx_errors": "Count/Second",
    "network_total_bytes": "Bytes/Second",
    "filesystem_usage": "Bytes",
    "filesystem_capacity": "Bytes",
    "filesystem_available": "Bytes",
    "filesystem_inodes": "Count",
    "filesystem_inodes_free": "Count",
    "filesystem_utilization": "Percent",
    "node_count": "Count",
    "failed_node_count": "Count",
    "number_of_running_pods": "Count",
    "number_of_running_containers": "Count",
    "number_of_containers": "Count",
    "number_of_container_restarts": "Count",
    "number_of_running_tasks": "Count",
}
# diskio_io_service_bytes_* / diskio_io_serviced_* ops (const.go:171-180,
# keys lowercased by strings.ToLower in the Go init)
for _op in ("async", "read", "sync", "write", "total"):
    _CI_METRIC_UNITS[f"diskio_io_service_bytes_{_op}"] = "Bytes/Second"
    _CI_METRIC_UNITS[f"diskio_io_serviced_{_op}"] = "Count/Second"
del _op


def sum_ci_fields(fields: list) -> dict:
    """SumFields (internal/aws/containerinsight/utils.go:30-58): merge a
    list of field maps by summation.  The base is the FIRST map's
    float64-valued keys; subsequent maps contribute only float64 values
    for keys already in the base (missing/None/non-float skipped).  In
    the JSON analogue, Go's strict float64 type assertion maps to
    Python float (JSON ints are int and are excluded, as in Go)."""
    fields = [m for m in fields if isinstance(m, dict)]  # malformed entries skipped
    if not fields:
        return {}
    result = {k: v for k, v in fields[0].items() if isinstance(v, float)}
    for m in fields[1:]:
        for k in result:
            v = m.get(k)
            if isinstance(v, float):
                result[k] += v
    return result


def convert_ci_otlp(t: pa.Table) -> pa.Table:
    """Container Insights decorated metric → OTLP gauges
    (internal/aws/containerinsight/utils.go:152-216 ConvertToOTLPMetrics
    + MetricName/RemovePrefix/GetUnitForMetric):

    Payload shape: ``{"fields": {...} | [{...}, ...], "tags": {...}}``.
    A fields LIST is first folded by :func:`sum_ci_fields` (the cadvisor
    pod-rollup path).  Then:

    * ``tags`` decodes strictly, as Go's ``map[string]string``: a doc
      whose tags are not an object of strings (an integer
      ``Timestamp``, say) fails the decode and is skipped whole;
    * every tag becomes a ``resource`` row; the ``Timestamp`` tag's
      value (nanoseconds) is rewritten to milliseconds
      (utils.go:177-182, ``timeNs/uint64(time.Millisecond)``; parse
      failure → 0 as Go ignores the ParseUint error);
    * every field becomes one gauge row — ``name`` keeps the full
      prefixed key; the unit is looked up AFTER stripping the
      Type-derived prefix via first-occurrence replace
      (utils.go:157-160 ``strings.Replace(name, prefix, "", 1)``),
      unknown Type → empty prefix (utils.go:144-146), unmapped
      measurement → empty unit (Go map zero value);
    * Go int kinds → IntGauge (``int_gauge`` with ``value_int``),
      float kinds → DoubleGauge (``double_gauge`` with
      ``value_double``); any other JSON type (bool/str/null/obj) hits
      the type-switch default and is skipped with a warning
      (utils.go:192-213).  The metric Type tag is carried in
      label_key/label_value for downstream grouping."""
    import json as _json

    id_type = t.schema.field("server_id").type
    ids = t["server_id"].to_numpy(zero_copy_only=False)
    pay = t["payload"].to_pylist()
    recs: list[tuple] = []

    for sid, raw in zip(ids, pay):
        try:
            doc = _json.loads(raw) if raw else {}
        except (TypeError, ValueError):
            continue
        if not isinstance(doc, dict):
            continue  # structurally malformed payload: skip like a decode failure
        tags = doc.get("tags") or {}
        if not isinstance(tags, dict) or not all(isinstance(v, str) for v in tags.values()):
            continue  # Go decodes tags as map[string]string: anything else fails the doc
        fields = doc.get("fields")
        if isinstance(fields, list):
            fields = sum_ci_fields(fields)
        if not isinstance(fields, dict):
            fields = {}
        metric_type = tags.get("Type", "")

        for k, v in tags.items():
            tv = v
            if k == "Timestamp":
                # strconv.ParseUint(v, 10, 64) semantics (utils.go:178,
                # error ignored): digits only — whitespace/'+'/'_'/sign
                # are syntax errors → 0; ErrRange saturates to MaxUint64
                if _CI_UINT_RE.fullmatch(v):
                    ts_ns = min(int(v), 2**64 - 1)
                else:
                    ts_ns = 0
                tv = str(ts_ns // 1_000_000)
            recs.append((sid, None, None, "resource", False, k, tv, None, None))

        prefix = _CI_TYPE_PREFIX.get(metric_type, "")
        for k, v in fields.items():
            stripped = k.replace(prefix, "", 1) if prefix else k
            unit = _CI_METRIC_UNITS.get(stripped, "")
            if isinstance(v, bool):
                continue  # bool hits the Go type-switch default → skip
            if isinstance(v, int):
                recs.append(
                    (sid, k, unit, "int_gauge", False, "Type", metric_type, v, None)
                )
            elif isinstance(v, float):
                recs.append(
                    (sid, k, unit, "double_gauge", False, "Type", metric_type, None, v)
                )
            # other JSON types: utils.go:209-212 warn + skip

    out = pd.DataFrame(
        recs,
        columns=["_id", "name", "units", "mtype", "monotonic", "label_key", "label_value", "value_int", "value_double"],
    )
    return _finish(out, id_type)
