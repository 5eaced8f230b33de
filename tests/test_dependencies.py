import ast
import re
import sys
from pathlib import Path

import pacmap

ALLOWED = {"numpy", "pacmap"} | set(sys.stdlib_module_names)


def foreign_imports(source: str) -> list[str]:
    """Modules imported by `source` whose top-level package is neither numpy,
    pacmap nor part of the standard library; relative imports are pacmap's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_the_guard_sees_imports_at_any_depth():
    source = (
        "import numpy as np\nfrom . import circuit\nfrom .rng import DrawStream\nimport os.path, json\n"
        "import scipy.special\ndef f():\n    from scipy import stats\n    import numba\n"
    )
    assert foreign_imports(source) == ["scipy.special", "scipy", "numba"]


def test_numpy_is_the_only_runtime_dependency():
    sources = sorted(Path(pacmap.__file__).parent.glob("*.py"))
    assert len(sources) >= 7
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in sources}
    assert not any(found.values()), found


def test_every_source_parses_at_the_declared_python_floor():
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    version = (int(floor[1]), int(floor[2]))
    assert version == (3, 10)
    sources = sorted((root / "src" / "pacmap").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(sources) >= 19
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
