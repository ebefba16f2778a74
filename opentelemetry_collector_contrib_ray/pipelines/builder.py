"""Declarative pipeline builder: config dict → Ray Data DAG.

The engine's user-extension surface (SURVEY.md §2.11): the reference
assembles receiver→processor→exporter chains from YAML via a factory
registry (cmd/otelcontribcol/components.go:90-205, service pipelines)
and can instantiate templated sub-pipelines dynamically
(receiver/receivercreator/observerhandler.go:68-164). Here a pipeline
is a dict:

    {
      "source":  {"kind": "parquet", "path": ...} | {"kind": "synth", "rows": N},
      "stages":  [ {"op": <registry name>, ...params}, ... ],
      "sink":    {"kind": "parquet", "path": ..., "partition_cols": [...]}   # optional
    }

Stage registry entries map to the package's batch transforms; callers
register custom ops with ``register_stage`` (the stanza operator
registry analogue, internal/stanza/register.go:19-27).
"""

from __future__ import annotations

from typing import Any, Callable

_REGISTRY: dict[str, Callable[..., Any]] = {}


def register_stage(name: str):
    def deco(factory):
        _REGISTRY[name] = factory
        return factory

    return deco


def _defaults():
    from ..stages import enrich, parse, route
    from ..stages.metricstransform import add_label, delete_label_value, update_label

    if "regex_parser" in _REGISTRY:
        return
    _REGISTRY.update(
        {
            "regex_parser": lambda **kw: parse.RegexParser(**kw),
            "json_parser": lambda **kw: parse.JsonParser(**kw),
            "severity_parser": lambda **kw: parse.SeverityParser(**kw),
            "syslog_pri_parser": lambda **kw: parse.SyslogPriParser(**kw),
            "time_parser": lambda **kw: parse.TimeParser(**kw),
            "metadata": lambda **kw: parse.Metadata(**kw),
            "restructure": lambda **kw: parse.Restructure(**kw),
            "resource": lambda resource, **kw: enrich.ApplyResource(resource, **kw),
            "router_table": lambda **kw: route.RoutingTable(**kw),
            "update_label": lambda **kw: (lambda b: update_label(b, **kw)),
            "add_label": lambda **kw: (lambda b: add_label(b, **kw)),
            "delete_label_value": lambda **kw: (lambda b: delete_label_value(b, **kw)),
            "trace_parser": lambda **kw: parse.TraceParser(**kw),
            "k8s_path_metadata": lambda **kw: parse.K8sPathMetadata(**kw),
            "recombine_lines": lambda **kw: parse.RecombineLines(**kw),
            "extract_pod_keys": lambda associations=None, connection_ip=None, **kw: (
                lambda b: enrich.extract_pod_keys(
                    b, associations, connection_ip=connection_ip, **kw
                )
            ),
            "image_decoder": _image_decoder_factory,
        }
    )


def _image_decoder_factory(**kw):
    from ..stages.multimodal import ImageDecoder

    return ImageDecoder(**kw)


def build(config: dict) -> Any:
    """Build (and lazily define) the Dataset pipeline from config.

    Full DAG spec (all sections optional except ``source``)::

        source:  {kind: parquet|synth, ...}
        stages:  [ {op: <registry name>, ...params} ]        # fused chain
        enrich:  {table: {key: {attr: val}}, association: [cols], prefix: ""}
        routing: {from_attribute: col, table: {v: [sinks]}, default: [sink]}
        aggregate: {keys: [...], aggs: {col: [fns]}, driver_finalize: bool}
        sink:    {path: ..., partition_cols: [...]}

    Mirrors the reference's YAML service pipelines + receivercreator's
    templated instantiation (SURVEY §2.11).
    """
    from ..sources.parquet import read_corpus
    from ..sources.synth import synth_dataset
    from ..stages.parse import Chain

    _defaults()
    src = config["source"]
    if src["kind"] == "parquet":
        ds = read_corpus(src["path"], columns=src.get("columns"))
    elif src["kind"] == "synth":
        ds = synth_dataset(src["rows"], override_num_blocks=src.get("blocks"))
    else:
        raise ValueError(f"unknown source kind {src['kind']}")

    stages = []
    for sc in config.get("stages", []):
        sc = dict(sc)
        op = sc.pop("op")
        if op not in _REGISTRY:
            raise ValueError(f"unknown stage op {op!r}; register_stage() it")
        stages.append(_REGISTRY[op](**sc))
    if stages:
        ds = ds.map_batches(
            Chain(stages),
            batch_format="pyarrow",
            batch_size=config.get("batch_size", 16 * 1024),
        )

    enr = config.get("enrich")
    if enr:
        import ray

        from ..stages.enrich import make_lookup_fn

        ref = ray.put(enr["table"])
        ds = ds.map_batches(
            make_lookup_fn(ref, enr["association"], enr.get("prefix", "")),
            batch_format="pyarrow",
        )

    rt = config.get("routing")
    if rt:
        from ..stages.route import RoutingTable

        ds = ds.map_batches(
            RoutingTable(rt["from_attribute"], rt["table"], rt["default"]),
            batch_format="pyarrow",
        )

    agg_cfg = config.get("aggregate")
    if agg_cfg:
        from ..stages.aggregate import two_phase_agg

        ds = two_phase_agg(
            ds,
            agg_cfg["keys"],
            agg_cfg.get("aggs", {"*": ["count"]}),
            driver_finalize=agg_cfg.get("driver_finalize", False),
            exact_sums=agg_cfg.get("exact_sums"),
        )

    sink = config.get("sink")
    if sink:
        ds.write_parquet(sink["path"], partition_cols=sink.get("partition_cols"))
    return ds
