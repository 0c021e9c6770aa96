"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floordiagrams"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_resolve():
    # a stale name in __all__ breaks `from floordiagrams import *`
    import floordiagrams

    assert floordiagrams.__all__
    missing = [name for name in floordiagrams.__all__ if not hasattr(floordiagrams, name)]
    assert missing == []


def _is_memo(node) -> bool:
    """A cache or lru_cache decorator, bare, dotted or called."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def test_process_wide_memos_are_pinned():
    # a module-level memo outlives the request that filled it, so state would
    # carry from one in-process request to the next; adding one is a choice
    # this list has to record
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_memo(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _is_memo(node.value.func):
                    found.update(f"{path.stem}.{ast.unparse(t)}" for t in node.targets)
    # the walk's tables, keyed by shape alone (tests/test_floordiag.py
    # checks that warm and cleared memos give the same values)
    walk = {"_emissions", "_emitted", "_floor_picks", "_gap_picks", "_merged", "_slope_moves"}
    assert found == {"cli.build_parser"} | {f"floordiag.{name}" for name in walk}


def _self_recursive(node, prefix: str, method: bool = False):
    """Qualified names of the functions in node's body, nested ones too, that
    call their own name, or self.<name> in a class body."""
    for child in node.body:
        if isinstance(child, ast.ClassDef):
            yield from _self_recursive(child, f"{prefix}{child.name}.", method=True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == child.name) or (
                    method and isinstance(func, ast.Attribute) and func.attr == child.name
                    and isinstance(func.value, ast.Name) and func.value.id == "self"
                ):
                    yield prefix + child.name
                    break
            yield from _self_recursive(child, f"{prefix}{child.name}.")


def test_self_recursive_functions_are_pinned():
    # each level of a recursion takes Python stack frames, so one whose depth
    # follows the input can pass the interpreter's limit; each is listed with
    # the bound on its depth, and adding one is a choice this list has to
    # record.  Mutual recursion is not seen here: InvariantTable.record and
    # _compute call each other once per pair, past the limit on a one-floor
    # polygon wide enough for --pairs 1000, which the CLI refuses with exit 2
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        found.update(_self_recursive(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}."))
    assert found == {
        # one level per nesting level of a printed payload; a stuck trace
        # nests two per pair, as deep as recursion_trace.walk goes
        "cli._indented_json.write",
        # elevators out of one floor, at most the genus + height - 1 of a diagram
        "floordiag._outgoing_combinations",
        # distinct weights of the elevators still to come out of one floor
        "floordiag._emissions",
        # one level per floor: height <= MAX_HEIGHT
        "floordiag.enumerate_diagrams.extend",
        # one level per pair, at most max_pairs
        "invariants.InvariantTable.descendant_value_set.sweep",
        "invariants.InvariantTable.recursion_trace.walk",
    }


def _module_level_names(tree, imports: bool = True) -> set:
    """Names that a module's top-level statements define, and with imports
    the names they import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return names


def test_every_private_module_name_is_used_in_its_module():
    # a private helper is no one else's to call, so one that its own module
    # never reads is dead code left behind by a change
    checked, unused = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in sorted(_module_level_names(tree)):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                checked += 1
                if name not in loaded:
                    unused.append(f"{path.stem}.{name}")
    assert checked and unused == []


def _texts_outside_tests() -> list[str]:
    """Text of every module, benchmark file and script, the tests left out."""
    root = PACKAGE.parents[1]
    return [
        path.read_text(encoding="utf-8")
        for folder in ("src", "perfbench", "scripts")
        for path in sorted((root / folder).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]


def test_every_public_module_name_is_exported_or_used():
    # a public name that the package does not export and that no module,
    # benchmark file or script names is library surface that nothing calls;
    # the tests do not count, so a name kept only for them is flagged too
    import floordiagrams

    texts = _texts_outside_tests()
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in sorted(_module_level_names(tree, imports=False)):
            if name.startswith("_") or name in floordiagrams.__all__:
                continue
            checked += 1
            # the definition itself is one whole-word occurrence
            if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) < 2:
                unused.append(f"{path.stem}.{name}")
    assert checked and unused == []


def test_every_public_method_is_used():
    # the method-level sibling of the test above: a public method of a
    # package class that no module, benchmark file or script reads, as
    # .name or as a quoted name (the tracer binds methods by string), is
    # library surface that nothing calls
    texts = _texts_outside_tests()
    checked, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    checked += 1
                    read = rf"\.{node.name}\b|([\"']){node.name}\1"
                    if not any(re.search(read, text) for text in texts):
                        unused.append(f"{path.stem}.{cls.name}.{node.name}")
    assert checked and unused == []
