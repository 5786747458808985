"""README's tolerance table lists every module-level tolerance of the
package, with the value the code gives it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SUFFIXES = ("_TOL", "_RTOL", "_MARGIN", "_SLACK", "_GAP")
# A table row: | `NAME` (`module`) | value | unit | decides |
ROW = re.compile(r"^\| `(\w+)` \(`(\w+)`\) \| ([^|]+?) \|", re.M)


def module_tolerances() -> dict:
    """{(module, name): value} of the module-level assignments in
    src/ordelic whose names end in one of SUFFIXES."""
    found = {}
    for path in sorted((ROOT / "src" / "ordelic").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith(SUFFIXES):
                        found[(path.stem, target.id)] = \
                            ast.literal_eval(node.value)
    return found


def readme_tolerances() -> dict:
    """{(module, name): value} of the named rows of README's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {(module, name): float(value)
            for name, module, value in ROW.findall(text)}


def test_readme_lists_every_tolerance_with_its_value():
    code, table = module_tolerances(), readme_tolerances()
    assert code, "no tolerance found in src/ordelic"
    missing = sorted(set(code) - set(table))
    assert not missing, f"tolerances missing from README's table: {missing}"
    wrong = {key: (table[key], value) for key, value in code.items() if table[key] != value}
    assert not wrong, f"README lists other values (README, code): {wrong}"
    stale = sorted(key for key in set(table) - set(code) if key[1].endswith(SUFFIXES))
    assert not stale, f"README lists tolerances the code does not have: {stale}"
