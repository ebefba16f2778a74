"""awsemfexporter: metric batches → CloudWatch EMF structured-log events.

Re-expresses the reference's metric→EMF translation
(`exporter/awsemfexporter/metric_translator.go`, `grouped_metric.go`,
`metric_declaration.go`, `util.go`) over a WIDE metric table: label
columns + one column per metric. Datapoints sharing (labels, timestamp)
group into ONE log event (grouped_metric.go:38-87) whose JSON carries
the label/metric fields plus an ``_aws.CloudWatchMetrics`` descriptor
block (metric_translator.go:338-392). The grouping is a per-batch
pandas groupby — the same per-translation-call scope the reference
uses — so the stage drops straight into ``map_batches``.

JSON note: Go's ``encoding/json`` sorts map keys; we mirror with
``json.dumps(sort_keys=True)`` (struct-field order inside measurement
objects also becomes alphabetical — semantically identical JSON).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa

OTELLIB_KEY = "OTelLib"
ZERO_AND_SINGLE_DIMENSION_ROLLUP = "ZeroAndSingleDimensionRollup"
SINGLE_DIMENSION_ROLLUP_ONLY = "SingleDimensionRollupOnly"

# translateUnit (grouped_metric.go:92-113)
_UNIT_MAP = {
    "ms": "Milliseconds",
    "s": "Seconds",
    "us": "Microseconds",
    "By": "Bytes",
    "Bi": "Bits",
}


def translate_unit(unit: str, name: str, descriptors: dict | None = None) -> str:
    """grouped_metric.go:92-113: descriptor override (when unit empty or
    overwrite set), else the ms/s/us/By/Bi → CloudWatch unit table."""
    desc = (descriptors or {}).get(name)
    if desc is not None and (unit == "" or desc.get("overwrite", False)):
        return desc["unit"]
    return _UNIT_MAP.get(unit, unit)


class LabelMatcher:
    """metric_declaration.go:44-60,181-216: concatenate the named label
    values with the default ``;`` separator, regex-match the joined
    string."""

    def __init__(self, label_names: list[str], regex: str):
        if not label_names:
            raise ValueError("label matcher must have at least one label name")
        if not regex:
            raise ValueError("regex not specified for label matcher")
        self.label_names = list(label_names)
        self.regex = re.compile(regex)

    def matches(self, labels: dict) -> bool:
        joined = ";".join(labels.get(n, "") for n in self.label_names)
        return self.regex.search(joined) is not None


class MetricDeclaration:
    """metric_declaration.go:24-178: name selectors (regex list), label
    matchers (OR), declared dimension sets."""

    def __init__(
        self,
        metric_name_selectors: list[str],
        dimensions: list[list[str]] | None = None,
        label_matchers: list[LabelMatcher] | None = None,
    ):
        if not metric_name_selectors:
            raise ValueError("invalid metric declaration: no metric name selectors")
        # Init():99-131 validates dims: ≤30 entries, no dup labels in a set
        for dim_set in dimensions or []:
            if len(dim_set) > 30:
                raise ValueError("dimension set > 30 dimensions")
            if len(set(dim_set)) != len(dim_set):
                raise ValueError("duplicated dimension in dimension set")
        self.name_regexes = [re.compile(s) for s in metric_name_selectors]
        self.dimensions = [list(d) for d in (dimensions or [])]
        self.label_matchers = list(label_matchers or [])

    def matches_name(self, metric_name: str) -> bool:
        return any(r.search(metric_name) for r in self.name_regexes)

    def matches_labels(self, labels: dict) -> bool:
        if not self.label_matchers:
            return True
        return any(lm.matches(labels) for lm in self.label_matchers)

    def extract_dimensions(self, labels: dict) -> list[list[str]]:
        # :161-178: keep only declared sets fully present in the labels
        return [
            list(ds)
            for ds in self.dimensions
            if ds and all(d in labels for d in ds)
        ]


def dimension_rollup(option: str, labels: dict) -> list[list[str]]:
    """util.go:119-152: zero-dimension ([] or [OTelLib]) and sorted
    single-label rollup sets; OTelLib is treated as a non-original
    label that joins every rollup set."""
    rollup: list[list[str]] = []
    has_otel = OTELLIB_KEY in labels
    dimension_zero = [OTELLIB_KEY] if has_otel else []
    plain = [k for k in labels if k != OTELLIB_KEY]
    if option == ZERO_AND_SINGLE_DIMENSION_ROLLUP:
        if plain:
            rollup.append(list(dimension_zero))
    if option in (ZERO_AND_SINGLE_DIMENSION_ROLLUP, SINGLE_DIMENSION_ROLLUP_ONLY):
        for name in plain:
            rollup.append(sorted(dimension_zero + [name]))
    return rollup


def dedup_dimensions(dimensions: list[list[str]]) -> list[list[str]]:
    # util.go:104-115 (order-preserving, exact-sequence key)
    seen: set[tuple] = set()
    out = []
    for ds in dimensions:
        key = tuple(ds)
        if key not in seen:
            seen.add(key)
            out.append(ds)
    return out


def _measurement_no_filters(
    labels: dict, metrics: dict, namespace: str, rollup_option: str
) -> dict:
    """metric_translator.go:184-233 groupedMetricToCWMeasurement."""
    dim_set = list(labels)
    dimensions: list[list[str]] | None = [dim_set]
    rollup = dimension_rollup(rollup_option, labels)
    if rollup:
        # :201-211 single-label + single-dim-rollup duplication edge
        has_otel = OTELLIB_KEY in labels
        is_single = len(dim_set) <= 1 or (len(dim_set) == 2 and has_otel)
        if is_single and rollup_option in (
            SINGLE_DIMENSION_ROLLUP_ONLY,
            ZERO_AND_SINGLE_DIMENSION_ROLLUP,
        ):
            dimensions = []
    dims = (dimensions or []) + rollup
    return {
        "Namespace": namespace,
        "Dimensions": dims,
        "Metrics": [
            ({"Name": name, "Unit": unit} if unit else {"Name": name})
            for name, (_, unit) in metrics.items()
        ],
    }


def _measurements_with_filters(
    labels: dict,
    metrics: dict,
    namespace: str,
    rollup_option: str,
    declarations: list[MetricDeclaration],
) -> list[dict]:
    """metric_translator.go:237-335
    groupedMetricToCWMeasurementsWithFilters: label-filter the
    declarations, group metrics by their matched-declaration index set,
    emit one measurement per group with extracted+rollup dims."""
    decls = [d for d in declarations if d.matches_labels(labels)]
    if not decls:
        return []
    groups: dict[tuple, list] = {}
    for name, (_, unit) in metrics.items():
        idxs = tuple(i for i, d in enumerate(decls) if d.matches_name(name))
        if not idxs:
            continue  # dropped: no declaration matched the name
        entry = {"Name": name, "Unit": unit} if unit else {"Name": name}
        groups.setdefault(idxs, []).append(entry)
    if not groups:
        return []
    rollup = dimension_rollup(rollup_option, labels)
    out = []
    for idxs, group_metrics in groups.items():
        dims: list[list[str]] = []
        for i in idxs:
            dims.extend(decls[i].extract_dimensions(labels))
        dims = dedup_dimensions(dims + rollup)
        if dims:
            out.append(
                {"Namespace": namespace, "Dimensions": dims, "Metrics": group_metrics}
            )
    return out


def render_emf_event(
    labels: dict,
    metrics: dict,
    namespace: str,
    timestamp_ms: int,
    *,
    rollup_option: str = ZERO_AND_SINGLE_DIMENSION_ROLLUP,
    declarations: list[MetricDeclaration] | None = None,
    parse_json_attrs: tuple = (),
) -> str:
    """metric_translator.go:142-182,338-392: one grouped metric → the
    EMF JSON line: its fields, plus the ``_aws`` block when any
    measurement survives filtering. When declarations drop every
    measurement the bare fields are still emitted, as the reference
    does."""
    fields: dict = dict(labels)
    for name, (value, _) in metrics.items():
        fields[name] = value
    for key in parse_json_attrs:  # :344-369 ParseJSONEncodedAttributeValues
        v = fields.get(key)
        if isinstance(v, str):
            try:
                fields[key] = json.loads(v)
            except ValueError:
                pass
    if declarations:
        measurements = _measurements_with_filters(
            labels, metrics, namespace, rollup_option, declarations
        )
    else:
        measurements = [
            _measurement_no_filters(labels, metrics, namespace, rollup_option)
        ]
    if measurements:  # :372-377 `_aws` only when measurements exist
        fields["_aws"] = {
            "CloudWatchMetrics": measurements,
            "Timestamp": timestamp_ms,
        }
    return json.dumps(fields, sort_keys=True)


class EmfRenderer:
    """``map_batches`` stage: wide metric batch → EMF log-event rows
    (``timestamp_ms``, ``message``). ``label_cols`` form the label set;
    ``metric_cols`` maps metric column → OTLP unit. Rows sharing
    (labels, timestamp) merge into one event — first value wins on a
    duplicate metric name, matching the reference's warn-and-keep
    (grouped_metric.go:68-77). Declarations are compiled once per actor
    in ``__init__``. Fixed settings: the ZeroAndSingleDimensionRollup
    option, no metric descriptors, no JSON-encoded attributes, and
    timestamp 0 without ``timestamp_col``."""

    def __init__(
        self,
        label_cols: list[str],
        metric_cols: dict[str, str],
        *,
        namespace: str = "default",
        timestamp_col: str | None = None,
        metric_declarations: list[MetricDeclaration] | None = None,
    ):
        self.label_cols = list(label_cols)
        self.metric_cols = dict(metric_cols)
        self.namespace = namespace
        self.timestamp_col = timestamp_col
        self.declarations = list(metric_declarations or [])
        self.units = {name: translate_unit(unit, name) for name, unit in self.metric_cols.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.select(
            self.label_cols
            + list(self.metric_cols)
            + ([self.timestamp_col] if self.timestamp_col else [])
        ).to_pandas()
        if self.timestamp_col:
            ts = df[self.timestamp_col]
            if np.issubdtype(ts.dtype, np.datetime64):
                ts = ts.astype("int64") // 1_000_000
            df["_ts_ms"] = ts.astype("int64")
        else:
            df["_ts_ms"] = 0
        out_ts: list[int] = []
        out_msg: list[str] = []
        group_cols = self.label_cols + ["_ts_ms"]
        # first datapoint wins per (labels, ts) group (grouped_metric.go:
        # 68-77 warn-and-keep) — a vectorized keep="first" dedupe is
        # equivalent to taking each group's first row and far cheaper
        # than a pandas groupby + iloc per group
        firsts = df.drop_duplicates(group_cols, keep="first")
        metric_names = list(self.metric_cols)
        lab_arrs = {c: firsts[c].to_numpy() for c in self.label_cols}
        met_arrs = {c: firsts[c].to_numpy() for c in metric_names}
        ts_arr = firsts["_ts_ms"].to_numpy()
        for i in range(len(firsts)):
            labels = {c: str(a[i]) for c, a in lab_arrs.items()}
            ts_ms = int(ts_arr[i])
            metrics = {}
            for name in metric_names:
                v = met_arrs[name][i]
                if v is None or (isinstance(v, float) and np.isnan(v)):
                    continue
                if isinstance(v, np.integer):
                    v = int(v)
                elif isinstance(v, np.floating):
                    v = float(v)
                metrics[name] = (v, self.units[name])
            msg = render_emf_event(labels, metrics, self.namespace, ts_ms, declarations=self.declarations)
            out_ts.append(ts_ms)
            out_msg.append(msg)
        return pa.table(
            {
                "timestamp_ms": pa.array(out_ts, pa.int64()),
                "message": pa.array(out_msg, pa.string()),
            }
        )
