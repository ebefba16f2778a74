"""Every option of the package is set by some caller.

A defaulted parameter of a public function, or of a public class's
``__init__`` (a dataclass's defaulted fields, ``PrepConfig``'s among
them), must be passed by at least one call site in the repository:
package, driver contract, ``bench.py``, ``tools/``, ``perfbench/`` or a
test. An option no caller passes is a constant in disguise, and the
branches behind it run untested.

A call site sets a parameter when it passes it by keyword, reaches it
positionally, or calls with ``*``/``**`` (a ``**name`` bound to a dict
literal sets that literal's keys, any other ``**`` sets everything).
``cls(...)`` inside a class calls that class; ``functools.partial``
calls the function it wraps. ``map_batches(fn, ...)`` calls ``fn``
with the batch and ``fn_args``/``fn_kwargs``; ``map_batches(Cls, ...)``
builds ``Cls`` from ``fn_constructor_args``/``fn_constructor_kwargs``
alone, since the batch goes to its ``__call__``. A
dataclass field that another file reads off an instance it built
(``cfg = PrepConfig(...)``, then ``cfg.test_frac``) is used there.
Calls match definitions by name.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "opentelemetry_collector_contrib_ray"
MODULES = sorted(PKG.rglob("*.py"))
ALL = object()  # a call that sets every parameter


def _sources():
    """Every ``.py`` file of the repository outside dot directories."""
    paths = ROOT.rglob("*.py")
    return sorted(p for p in paths if not any(part.startswith(".") for part in p.relative_to(ROOT).parts))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _function_options(fn: ast.FunctionDef, skip_self: bool):
    """(positional parameter names, defaulted parameter names)."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][1 if skip_self else 0 :]
    defaulted = positional[len(positional) - len(a.defaults) :] if a.defaults else []
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, defaulted


def definitions():
    """name -> (module, positional params, defaulted params) for every
    public function and public class constructor in ``MODULES``, the
    dataclass name -> module path map and the set of class names."""
    defs, dataclasses, classes = {}, {}, set()
    for path in MODULES:
        mod = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = (mod, *_function_options(node, skip_self=False))
            else:
                classes.add(node.name)
                init = next(
                    (n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None
                )
                if init is not None:
                    defs[node.name] = (mod, *_function_options(init, skip_self=True))
                elif _is_dataclass(node):
                    dataclasses[node.name] = path
                    fields = [
                        (n.target.id, n.value is not None)
                        for n in node.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                    ]
                    defs[node.name] = (mod, [f for f, _ in fields], [f for f, has in fields if has])
    return defs, dataclasses, classes


def _dict_literals(tree) -> dict:
    """Names bound to a ``{...}`` or ``dict(...)`` literal with constant
    keys -> the union of those keys."""
    out = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            keys = _literal_keys(node.value)
            if keys is not None:
                out[node.targets[0].id] |= keys
    return out


def _literal_keys(node):
    if isinstance(node, ast.Dict) and all(isinstance(k, ast.Constant) for k in node.keys):
        return {k.value for k in node.keys}
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and all(k.arg is not None for k in node.keywords)
    ):
        return {k.arg for k in node.keywords}
    return None


def _callee(node, cls_name):
    if isinstance(node, ast.Name):
        return cls_name if node.id == "cls" and cls_name else node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _set_by(args, keywords, literals):
    """(number of positional parameters reached, keyword names set) of
    one call's arguments; ``ALL`` stands for a star argument."""
    n_pos = ALL if any(isinstance(a, ast.Starred) for a in args) else len(args)
    names = set()
    for k in keywords:
        if k.arg is not None:
            names.add(k.arg)
        elif isinstance(k.value, ast.Name) and k.value.id in literals:
            names |= literals[k.value.id]
        else:
            return n_pos, ALL
    return n_pos, names


def _keyword(call, name):
    return next((k.value for k in call.keywords if k.arg == name), None)


def _field_reads(tree, dataclasses):
    """(class name, field) for every ``name.field`` load where ``name``
    is bound to a ``Cls(...)`` call of one of ``dataclasses``."""
    built = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and _callee(node.value.func, None) in dataclasses
        ):
            built[node.targets[0].id] = _callee(node.value.func, None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in built:
            yield built[node.value.id], node.attr


def call_sites(dataclasses, classes):
    """Yield (callee name, positional count or ALL, keyword names or
    ALL) over every source file; ``dataclasses`` maps a dataclass name
    to its module path, ``classes`` holds the package's class names."""
    for path in _sources():
        others = {n for n, p in dataclasses.items() if p != path}
        yield from tree_call_sites(ast.parse(path.read_text()), others, classes)


def tree_call_sites(tree, dataclasses, classes):
    """``call_sites`` of one parsed file; ``dataclasses`` names the
    dataclasses defined in other files."""
    for cls, attr in _field_reads(tree, dataclasses):
        yield cls, 0, {attr}
    literals = _dict_literals(tree)
    owner = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for n in ast.walk(cls):
            owner[id(n)] = cls.name  # ast.walk is breadth-first: the innermost class wins
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node.func, owner.get(id(node)))
        yield (name, *_set_by(node.args, node.keywords, literals))
        if name == "partial" and node.args:
            yield (_callee(node.args[0], None), *_set_by(node.args[1:], node.keywords, literals))
        if name == "map_batches" and node.args:
            # a function takes the batch first and fn_args after it; a
            # class is built from fn_constructor_args, and the batch and
            # fn_args go to its __call__
            target = _callee(node.args[0], owner.get(id(node)))
            if target in classes:
                args_kw, kwargs_kw, n_batch = "fn_constructor_args", "fn_constructor_kwargs", 0
            else:
                args_kw, kwargs_kw, n_batch = "fn_args", "fn_kwargs", 1
            args, kwargs = _keyword(node, args_kw), _keyword(node, kwargs_kw)
            if args is None:
                n_pos = n_batch
            elif isinstance(args, (ast.Tuple, ast.List)):
                n_pos = n_batch + len(args.elts)
            else:
                n_pos = ALL
            keys = _literal_keys(kwargs) if kwargs is not None else set()
            yield target, n_pos, ALL if keys is None else keys


def unset_options():
    """{module: sorted ["callable.param", ...]} of the defaulted
    parameters no call site sets, plus the count of all of them."""
    defs, dataclasses, classes = definitions()
    set_params = defaultdict(set)
    for name, n_pos, names in call_sites(dataclasses, classes):
        if name not in defs:
            continue
        _, positional, defaulted = defs[name]
        if n_pos is ALL or names is ALL:
            set_params[name] |= set(defaulted)
            continue
        set_params[name] |= set(positional[:n_pos]) | names
    unset, total = defaultdict(list), defaultdict(int)
    for name, (mod, _, defaulted) in defs.items():
        total[mod] += len(defaulted)
        unset[mod] += [f"{name}.{p}" for p in defaulted if p not in set_params[name]]
    return {m: sorted(v) for m, v in unset.items() if v}, dict(total)


def test_a_mapped_class_is_not_passed_the_batch():
    tree = ast.parse(
        "ds.map_batches(Enc, batch_format='pyarrow')\n"
        "ds.map_batches(Enc, fn_constructor_args=(v,), fn_args=(w,))\n"
        "ds.map_batches(enc, fn_args=(w,), batch_format='pyarrow')\n"
    )
    sites = [s for s in tree_call_sites(tree, set(), {"Enc"}) if s[0] != "map_batches"]
    # the class gets only its constructor arguments, the function the batch and fn_args
    assert sites == [("Enc", 0, set()), ("Enc", 1, set()), ("enc", 2, set())]


def test_every_package_option_is_set_by_a_caller():
    unset, _ = unset_options()
    assert unset == {}


if __name__ == "__main__":
    unset, total = unset_options()
    for path in MODULES:
        mod = path.relative_to(ROOT).as_posix()
        if total.get(mod):
            print(f"{mod}: {len(unset.get(mod, []))} unset of {total[mod]}")
        for p in unset.get(mod, []):
            print("   ", p)
    print(f"all: {sum(map(len, unset.values()))} unset of {sum(total.values())}")
