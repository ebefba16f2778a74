"""groupbyattrsprocessor goldens ported from the reference's own test
tables (processor/groupbyattrsprocessor/processor_test.go).

Columnar mapping: a record = a row; resource attrs = shared columns;
"reorganize batches into per-group resources" = distinct (resource ⊎
grouped-key) tuples with counts; grouped keys leave the record level.
"""

import pandas as pd
import ray.data

from opentelemetry_collector_contrib_ray.stages.aggregate import group_by_attrs_compact


def _complex_logs(with_resource_attr_index: bool, resource_count=4, il_count=4):
    """someComplexLogs (processor_test.go:292-315): resource_count
    resources × il_count libraries × 1 record, every record carrying
    commonGroupedAttr=abc + commonNonGroupedAttr=xyz."""
    rows = []
    for r in range(resource_count):
        for il in range(il_count):
            row = {
                "il.name": f"il-{il}",
                "commonGroupedAttr": "abc",
                "commonNonGroupedAttr": "xyz",
            }
            if with_resource_attr_index:
                row["resourceAttrIndex"] = f"resource-{r}"
            rows.append(row)
    return pd.DataFrame(rows)


def test_complex_grouping_not_unique_resources():
    """processor_test.go:133-142: matching resources join → 1 group, 16 records."""
    df = _complex_logs(False)
    ds = ray.data.from_pandas(df)
    groups, records = group_by_attrs_compact(ds, ["commonGroupedAttr"])
    g = groups.to_pandas()
    assert len(g) == 1
    assert g["count"].sum() == 16
    assert g["commonGroupedAttr"].iloc[0] == "abc"  # promoted to resource
    rec_cols = set(records.schema().names)
    assert "commonGroupedAttr" not in rec_cols  # removed from record level
    assert "commonNonGroupedAttr" in rec_cols  # preserved (test's outputRecordAttrs)


def test_complex_grouping_unique_resources():
    """processor_test.go:143-152: unique resource attr → 4 groups, 16 records."""
    df = _complex_logs(True)
    ds = ray.data.from_pandas(df)
    groups, _ = group_by_attrs_compact(
        ds, ["commonGroupedAttr"], resource_cols=["resourceAttrIndex"]
    )
    g = groups.to_pandas()
    assert len(g) == 4
    assert g["count"].sum() == 16
    assert (g["commonGroupedAttr"] == "abc").all()


def test_attribute_grouping_matrix():
    """processor_test.go:210-235: keys present → promoted; absent key
    ('zz') → base non-grouped group; non-grouped attrs stay on records."""
    attr_map = {"xx": "aa", "yy": "bb"}
    count = 4
    df = pd.DataFrame([dict(attr_map) for _ in range(count)])
    cases = [
        (["xx", "yy"], []),           # Two groupByKeys
        (["xx"], ["yy"]),             # One attribute
        (["zz"], ["xx", "yy"]),       # No groupByKeys present
    ]
    for group_keys, non_grouped in cases:
        present = [k for k in group_keys if k in df.columns]
        ds = ray.data.from_pandas(df)
        if not present:
            # key absent from every record: all rows form the base group
            import pyarrow as pa

            ds = ds.map_batches(
                lambda t: t.append_column("zz", pa.nulls(len(t), pa.string())),
                batch_format="pyarrow",
            )
        groups, records = group_by_attrs_compact(ds, group_keys)
        g = groups.to_pandas()
        assert len(g) == 1  # single distinct value tuple → one group
        assert g["count"].iloc[0] == count
        expected_grouped = bool(present)
        assert bool(g["grouped"].iloc[0]) == expected_grouped
        rec_cols = set(records.schema().names)
        for k in group_keys:
            assert k not in rec_cols
        for k in non_grouped:
            assert k in rec_cols
