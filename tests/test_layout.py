"""``src/repro`` holds only the program.

Parity oracles live in ``tests/oracles``, and every function, class and
method under ``src/repro`` is read by the program itself, its examples or
the end-to-end benchmark, not only by tests.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``module:qualname`` strings (sweep targets) read the last name.
_TARGET = re.compile(r"^[\w.]+:(?:\w+\.)*(\w+)$")

#: Kept although no program path reads them by name, and why.
EXEMPT = {
    "clear_memos": "tests empty every memo with it, so each starts cold",
    "_close_at_exit": "its own @atexit.register decorator registers it at import",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    return sorted(SRC.rglob("*.py"))


def test_no_reference_module_under_src():
    assert _modules(), f"no modules found under {SRC}"
    named = [path for path in _modules() if path.stem == "_reference"]
    assert not named, f"parity oracles belong in tests/oracles: {named}"


def test_no_src_module_imports_the_oracles():
    offenders = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "oracles" or name.startswith("oracles.") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, f"production code imports the test oracles: {offenders}"


def _definitions(tree):
    """``(name, qualified name, node)`` of every module- and class-level definition."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFINITIONS):
                        yield member.name, f"{node.name}.{member.name}", member


def _reads(path, tree):
    """``(name, line, attribute)`` of every name a module reads.

    ``attribute`` is true for an ``x.name`` read and for a ``module:name``
    string.  An ``__init__.py``'s plain ``from x import y`` re-exports ``y``
    and does not read it; ``from x import y as z`` does.
    """
    reexports = path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if not reexports or alias.asname not in (None, alias.name):
                    yield alias.name.rsplit(".", 1)[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _TARGET.match(node.value)
            if target:
                yield target.group(1), node.lineno, True


def _package_all():
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_definition_is_read_on_a_program_path():
    """Code that only tests or benchmark scripts call belongs in ``tests/``.

    A definition counts as read when its name appears anywhere in
    ``src/repro`` outside the definition itself (or as a ``module:name``
    sweep target), as a word in ``examples/*.py`` or
    ``benchmarks/e2e/*.py``, or in ``repro.__all__``.  A class member counts
    only as an attribute read (``x.name``, in ``src/repro`` or in those
    files), so it cannot hide behind a local variable or a word of the same
    name.  Matching is by name, so a method that shares its name with an
    attribute the program reads still escapes this check.
    """
    reads = defaultdict(list)
    definitions = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, qualname, node in _definitions(tree):
            definitions.append((path, name, qualname, node.lineno, node.end_lineno))
        for name, line, attribute in _reads(path, tree):
            reads[name].append((path, line, attribute))
    words = _package_all() | set(EXEMPT)
    attributes = set(EXEMPT)
    for pattern in ("examples/*.py", "benchmarks/e2e/*.py"):
        for path in ROOT.glob(pattern):
            text = path.read_text()
            words.update(re.findall(r"\w+", text))
            attributes.update(re.findall(r"\.(\w+)", text))

    def read(path, name, qualname, first, last):
        member = "." in qualname
        if name in (attributes if member else words):
            return True
        return any(
            (attribute or not member) and not (where == path and first <= line <= last)
            for where, line, attribute in reads[name]
        )

    unread = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path, name, qualname, first, last in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not read(path, name, qualname, first, last)
    ]
    assert not unread, (
        "only tests or benchmark scripts read these; delete them or move "
        f"them under tests/: {unread}"
    )
