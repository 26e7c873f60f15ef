"""scipy is imported where it is used: importing latdisc loads numpy only,
and the spectral test and Theorem 1 checks never load any scipy module.
Each check runs in a fresh interpreter, so modules imported by other tests
do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_modules(code: str) -> list[str]:
    """sys.modules after running `code` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_subpackage():
    loaded = _loaded_modules("import latdisc, latdisc.cli")
    assert not {"scipy.optimize", "scipy.spatial", "scipy.special"} & set(loaded)


def test_spectral_and_thm1_load_no_scipy(tmp_path):
    code = f"""
from latdisc import fibonacci_lattice, rank1_lattice, spectral_test, verify_thm1
from latdisc.cli import main

for lat in (fibonacci_lattice(12), rank1_lattice(64, (1, 7, 19))):
    rep = spectral_test(lat, 10)
    assert verify_thm1(lat, report=rep).verdict == "PASS"
spec = {str(tmp_path / "fib.lat")!r}
assert main(["--out", spec, "gen", "fibonacci", "--k", "12"]) == 0
assert main(["--out", {str(tmp_path / "spectral.json")!r}, "spectral", spec]) == 0
assert main(["--out", {str(tmp_path / "points.csv")!r}, "points", spec]) == 0
assert main(["--out", {str(tmp_path / "isodisc.json")!r}, "isodisc", spec]) == 0
"""
    loaded = _loaded_modules(code)
    assert [m for m in loaded if m.startswith("scipy")] == []
    assert json.loads((tmp_path / "spectral.json").read_text())["dual_norm"] > 0
    # each witness writes its slab as an h_polytope body without building one
    witnesses = json.loads((tmp_path / "isodisc.json").read_text())["witnesses"]
    assert [w["body"]["variant"] for w in witnesses] == ["h_polytope"] * 10


def test_all_lists_exactly_the_names_the_package_imports():
    import ast

    import latdisc

    tree = ast.parse(Path(latdisc.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(latdisc.__all__) == sorted(imported)
    assert len(set(latdisc.__all__)) == len(latdisc.__all__)
    namespace: dict = {}
    exec("from latdisc import *", namespace)
    assert set(latdisc.__all__) <= set(namespace)


def _package_code() -> tuple[dict[str, str], set[str], dict[str, str], set[str]]:
    """The top-level functions and classes of the package's modules other
    than `__init__.py`, each with its file, every name their code uses
    (read as code, so a definition or a docstring is no use), the methods
    and properties of their classes other than dunders, each as
    `file:Class.name`, and the attribute names their code reads."""
    import ast

    import latdisc

    defined, used, methods, attributes = {}, set(), {}, set()
    for path in Path(latdisc.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        methods[f"{path.name}:{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attributes.add(node.attr)
    return defined, used, methods, attributes


def _in_readme(name: str) -> bool:
    import re

    return re.search(rf"\b{re.escape(name)}\b", (SRC.parent / "README.md").read_text()) is not None


def test_every_exported_name_has_a_program_caller_or_a_readme_use():
    """A name in `__all__` is used by a module of the package other than
    `__init__.py` or is mentioned in the README; an uncalled helper is not
    exported."""
    import latdisc

    _, used, _, _ = _package_code()
    assert [name for name in latdisc.__all__ if name not in used and not _in_readme(name)] == []


def test_every_top_level_definition_is_used_or_exported_with_a_readme_use():
    """A top-level function or class of the package is used by a module of
    the package other than `__init__.py`, or it is in `__all__` and
    mentioned in the README; a definition nothing reaches is deleted, or
    kept in the tests as an oracle."""
    import latdisc

    defined, used, _, _ = _package_code()
    dead = {
        name: where
        for name, where in defined.items()
        if name not in used and not (name in latdisc.__all__ and _in_readme(name))
    }
    assert dead == {}


def test_every_method_and_property_is_read_as_an_attribute():
    """A method or property of a class of the package is read as an
    attribute (`x.name`) by a module of the package other than
    `__init__.py`; one that only tests read is deleted."""
    _, _, methods, attributes = _package_code()
    assert [where for where, name in methods.items() if name not in attributes] == []
