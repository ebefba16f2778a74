"""The engine has one keyed-shuffle primitive: ``aggregate.keyed_apply``.

Every keyed shuffle in the package and the driver contract goes
through it. ``keyed_apply`` sorts on the fixed bucket boundaries, so no
``.map_groups(`` call (a sort that samples its boundaries) appears
anywhere, and the one ``.sort(..., boundaries=...)`` call is inside
``keyed_apply``. A one-bucket shuffle is one ``map_batches`` call,
also inside ``keyed_apply``, whose batch size exceeds any row count:
its one batch is the bucket. A hand-rolled
``groupby(...).map_groups`` site, or a second fixed-boundary sort with
its own bucket hash and bucket count, fails these tests.

Joins go through ``keyed_apply`` too: ``join.bucketed_hash_join`` is
one ``keyed_apply`` shuffle plus an Arrow kernel per bucket. A Ray
Dataset's own ``join`` method is a second hash shuffle, run by
aggregator actors; a ``.join(`` call that passes ``num_partitions=``
(its signature — pyarrow's ``Table.join`` takes no such argument)
fails these tests.

A pandas ``groupby(...).apply`` runs a Python callback per group
inside a bucket, so no such call appears anywhere either.

A driver collect of a package Dataset goes through ``_util.collect``,
which raises past ``COLLECT_MAX_ROWS`` rows. Any other package
``.iter_batches(`` or ``.take_all(`` call must be on ``BOUNDED_COLLECTS``
with the reason its row count is bounded.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "opentelemetry_collector_contrib_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]


def _method_calls(name: str):
    """(path, enclosing top-level function name, call node) of every
    ``<expr>.name(...)`` call in the sources."""
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name:
                    owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                    yield path, owner, node


def test_no_map_groups():
    hits = [(p.relative_to(ROOT).as_posix(), n.lineno) for p, _, n in _method_calls("map_groups")]
    assert hits == []


def test_fixed_boundary_sort_only_in_keyed_apply():
    hits = [
        (p.relative_to(ROOT).as_posix(), owner)
        for p, owner, n in _method_calls("sort")
        if any(k.arg == "boundaries" for k in n.keywords)
    ]
    assert hits == [("opentelemetry_collector_contrib_ray/stages/aggregate.py", "keyed_apply")]


def test_no_dataset_join():
    hits = [
        (p.relative_to(ROOT).as_posix(), n.lineno)
        for p, _, n in _method_calls("join")
        if any(k.arg == "num_partitions" for k in n.keywords)
    ]
    assert hits == []


def test_no_groupby_apply():
    """A pandas ``groupby(...).apply`` (or ``groupby(...)[col].apply``)
    runs a Python callback per group; a bucket function runs one
    vectorized kernel over all its groups instead."""

    def on_groupby(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "groupby"

    hits = [(p.relative_to(ROOT).as_posix(), n.lineno) for p, _, n in _method_calls("apply") if on_groupby(n.func.value)]
    assert hits == []


PKG = "opentelemetry_collector_contrib_ray/"

# (file, enclosing function): why the collect there is bounded
BOUNDED_COLLECTS = {
    ("_util.py", "collect"): "the capped collect itself",
    ("stages/aggregate.py", "_collect_partials"): "raises past MAX_DRIVER_PARTIAL_ROWS",
    ("stages/sketch.py", "hll_distinct"): "one row per key tuple and FAN_IN partition",
    ("stages/sketch.py", "quantiles"): "one sketch per FAN_IN partition",
    ("stages/sketch.py", "bloom_build"): "one bit array per FAN_IN partition",
    ("stages/ann.py", "embedding_quant_params"): "one (min, max) row per block",
    ("functions/tokens.py", "corpus_checksum"): "one digest row per block",
}


def test_package_collects_are_capped_or_bounded():
    hits = [
        (p.relative_to(ROOT).as_posix().removeprefix(PKG), owner, n.lineno)
        for name in ("iter_batches", "take_all")
        for p, owner, n in _method_calls(name)
        if p.relative_to(ROOT).as_posix().startswith(PKG)
    ]
    assert [h for h in hits if h[:2] not in BOUNDED_COLLECTS] == []
