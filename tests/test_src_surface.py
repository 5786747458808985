"""``src/ordelic`` holds only what the CLI and the public API reach.

An ``ast`` walk starts from the roots: ``cli.main`` (the ``ordelic``
script), the names in ``ordelic.__all__``, the code each module runs at
import (its statements other than definitions, and the decorators, bases
and default values of its definitions) and the package names that
``e2ebench/run.py`` calls (``_kernels.backend_name``).  It follows every
name and ``module.name`` a reached definition mentions, through the
package's imports, and a reached class counts with all its methods.  Every
module-level function and class must be reached; a helper that only tests
use belongs in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ordelic"
ENTRY_POINTS = (("cli", "main"), ("_kernels", "backend_name"))


class _Module:
    """The module-level definitions of one module, the package names its
    imports bind (to a module, or to a name in a module), and the nodes it
    runs at import."""

    def __init__(self, tree: ast.Module, modules: set):
        self.defs, self.imports, self.runs = {}, {}, []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[stmt.name] = stmt
                self.runs += stmt.decorator_list
                if isinstance(stmt, ast.ClassDef):
                    self.runs += stmt.bases + [k.value for k in stmt.keywords]
                else:
                    self.runs += stmt.args.defaults + [d for d in stmt.args.kw_defaults if d]
            else:
                self.runs.append(stmt)
        for node in ast.walk(tree):  # imports inside functions bind names too
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "ordelic":
                source = node.module.partition(".")[2] or "__init__"
                for alias in node.names:
                    target = (alias.name, None) if source == "__init__" and \
                        alias.name in modules else (source, alias.name)
                    self.imports[alias.asname or alias.name] = target


def _resolve(mods: dict, module: str, name: str):
    """(module, name) of the definition that ``name`` in ``module`` binds,
    following re-exports; (module, None) for a module; None outside the
    package's definitions."""
    while name is not None and name not in mods[module].defs:
        if name not in mods[module].imports:
            return None
        module, name = mods[module].imports[name]
    return module, name


def unreached(package: Path = PACKAGE) -> list[str]:
    """``module.name`` of each module-level function and class of the
    package at ``package`` that no root reaches, sorted."""
    paths = sorted(package.glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}
    mods = {stem: _Module(tree, set(trees)) for stem, tree in trees.items()}
    exported = next(ast.literal_eval(s.value) for s in trees["__init__"].body
                    if isinstance(s, ast.Assign)
                    and getattr(s.targets[0], "id", None) == "__all__")
    reached, todo = set(), [(stem, node) for stem, m in mods.items() for node in m.runs]

    def reach(target):
        if target is not None and target[1] is not None and target not in reached:
            reached.add(target)
            todo.append((target[0], mods[target[0]].defs[target[1]]))

    for name in exported:
        reach(_resolve(mods, "__init__", name))
    for module, name in ENTRY_POINTS:
        reach((module, name))
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reach(_resolve(mods, module, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                owner = _resolve(mods, module, sub.value.id)
                if owner is not None and owner[1] is None:  # module.name
                    reach(_resolve(mods, owner[0], sub.attr))
    return sorted(f"{stem}.{name}" for stem, m in mods.items() for name in m.defs
                  if (stem, name) not in reached)


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, ("reached from no root of the CLI or the public API, "
                         "so move to tests/conftest.py or delete: " + ", ".join(missing))


def test_the_walk_names_what_no_root_reaches(tmp_path):
    """A small package with one definition reached by each route of the
    walk, and a dead function, a dead class and a dead helper that only
    the dead function calls."""
    files = {
        "__init__.py": "from ordelic.api import Public\n__all__ = ['Public', '__version__']\n"
                       "__version__ = '0'\n",
        "api.py": "from ordelic import util\n\n"
                  "class Public:\n    def method(self):\n"
                  "        return util.by_attribute(), util.uses_default()\n\n"
                  "def dead():\n    return helper()\n\n"
                  "def helper():\n    return 1\n",
        "util.py": "def by_attribute():\n    from ordelic.cli import by_late_import\n"
                   "    return by_late_import\n\n"
                   "def by_default():\n    return 2\n\n"
                   "def uses_default(x=by_default()):\n    return x\n\n"
                   "class Dead:\n    pass\n",
        "cli.py": "def main():\n    return 0\n\n"
                  "def by_late_import():\n    return 3\n\n"
                  "if __name__ == '__main__':\n    main()\n",
        "_kernels.py": "TABLE = []\n\ndef backend_name():\n    return 'numpy'\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached(tmp_path) == ["api.dead", "api.helper", "util.Dead"]
