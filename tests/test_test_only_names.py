"""Every public top-level function and class of the package is used
outside ``tests/``.

A public name that only tests reference is either a second
implementation of a path the engine already has (delete it with its
tests) or the one carrier of a reference behaviour no other path
covers. The second kind is listed in ``REFERENCE_ONLY`` with the
behaviour or golden test it alone carries; anything else fails.

A name is referenced where a file loads it (``name`` in a ``Load``
context), reads it as an attribute of an imported name
(``module.name``, ``pkg.module.name``) or imports it and loads what the
import binds in that scope. Its own definition does not count, nor
does an assignment target of the same name (``exact_dedup: bool``), an
attribute of some other object (``cfg.exact_dedup``) or an import that
is never used. Files are the repository's ``.py`` files outside dot
directories, as for the options guard.
"""

import ast

from test_options_used import PKG, ROOT, _sources

REFERENCE_ONLY = {
    "CarbonRegexParser": "carbonreceiver regex rules: key_/name_ groups, prefix and '.' joiner (protocol/regex_parser.go:32-160)",
    "SapmDecoder": "SAPM PostSpansRequest blobs to span rows with the per-batch bad-payload drop count",
    "SignalFxDecoder": "DataPointUploadMessage blobs to datapoint rows with the per-batch drop count",
    "datadog_trace_translate": "denylist and analyzed-span marks on traces that span blocks, one keyed shuffle on trace id (the oracle leg is batch-local)",
    "decode_bytes": "filelog encodings: nop, utf-16le/be, big5 and replacement-char decoding (filelogreceiver README)",
    "encode_resource_metadata": "elastic APM resource attributes to the metadata document (metadata.go:28-111)",
    "group_by_attrs_compact": "groupbyattrs golden matrix ported in test_groupbyattrs_golden.py (processor_test.go:119-290)",
    "iter_training_batches": "the one reader of write_training_shards output: shard-ordered epoch, batches across files, rank/world_size split",
    "kafka_broker_metrics": "kafkametrics broker scraper's kafka.brokers gauge",
    "merge_histograms": "metricstransform histogram merge: bucket counts, count and sum added per key (datapoint_aggregation.go:179-213)",
    "normalize_service_name": "Datadog service-name normalization with the default-name fallback (trace_helpers.go:124-136)",
    "parse_rfc5424": "syslogreceiver rfc5424 protocol parse",
    "register_stage": "the config builder's extension point for user stage ops",
    "run_checkpointed": "resumable per-shard run: manifest, skip on rerun, token-digest check (kill/resume tests)",
    "running_metric": "Datadog DefaultMetrics otel.datadog_exporter.<type>.running gauge (metrics/utils.go:69-90)",
    "sentry_transactions": "Sentry transaction assembly for traces that span blocks, one keyed shuffle (the oracle leg is batch-local)",
    "split_monotonic": "Datadog isCumulativeMonotonic routing into gauge and delta Datasets (metrics_translator.go:336-346)",
    "toggle_scalar_type": "metricstransform int/double toggle (operation_toggle_scalar_data_type.go)",
    "uptrace_id_u64": "Uptrace little-endian uint64 of the 8 id bytes, invalid ids as 0 (translator.go:27-29)",
}


def public_names() -> dict:
    """name -> module path of every public top-level function and class."""
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.relative_to(ROOT).as_posix()
    return out


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _used_imports(scope: ast.AST):
    """Names imported in ``scope`` or a scope nested in it, each kept
    only if the scope that imports it loads the name the import binds."""
    loads = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            yield from _used_imports(node)
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if (a.asname or a.name.split(".")[0]) in loads:
                    yield a.name.rsplit(".", 1)[-1]


def _referenced(tree: ast.Module):
    """Every name ``tree`` references, by the rules of the module doc."""
    yield from _used_imports(tree)
    imported = {
        a.asname or a.name.split(".")[0]
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for a in n.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in imported:
                yield node.attr


def referencing_files() -> dict:
    """name -> set of repository-relative files that reference it."""
    refs: dict = {}
    for path in _sources():
        rel = path.relative_to(ROOT).as_posix()
        for name in _referenced(ast.parse(path.read_text())):
            refs.setdefault(name, set()).add(rel)
    return refs


def referenced_only_by_tests() -> dict:
    """name -> module of public names no file outside ``tests/`` references."""
    refs = referencing_files()
    return {
        name: mod
        for name, mod in public_names().items()
        if not any(not f.startswith("tests/") for f in refs.get(name, ()))
    }


def test_no_unlisted_test_only_name():
    assert {n: m for n, m in referenced_only_by_tests().items() if n not in REFERENCE_ONLY} == {}


def test_reference_only_entries_are_still_test_only():
    """An entry whose name is gone, or now has a caller, is stale."""
    assert sorted(set(REFERENCE_ONLY) - set(referenced_only_by_tests())) == []


if __name__ == "__main__":
    for name, mod in sorted(referenced_only_by_tests().items()):
        print(f"{name} ({mod}): {REFERENCE_ONLY.get(name, 'NOT LISTED')}")
