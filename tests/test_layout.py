"""``src/repro`` holds only the program: parity oracles live in ``tests/oracles``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
