"""The engine has one keyed-shuffle primitive: ``aggregate.keyed_apply``.

Every keyed shuffle in the package and the driver contract goes
through it, so ``.map_groups(`` appears exactly once, inside
``keyed_apply``. A hand-rolled ``groupby(...).map_groups`` site (with
its own bucket hash and bucket count) fails this test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "opentelemetry_collector_contrib_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]


def test_map_groups_only_in_keyed_apply():
    hits = [
        (path, i)
        for path in SOURCES
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if ".map_groups(" in line
    ]
    assert len(hits) == 1, [(p.relative_to(ROOT).as_posix(), i) for p, i in hits]
    path, line = hits[0]
    assert path == ROOT / "opentelemetry_collector_contrib_ray" / "stages" / "aggregate.py"
    top_level = ast.parse(path.read_text()).body
    (owner,) = [
        f.name for f in top_level if isinstance(f, ast.FunctionDef) and f.lineno <= line <= f.end_lineno
    ]
    assert owner == "keyed_apply"
