"""Ratchet on environment-variable switches in the shipped package.

Every module under ``src/repro`` is scanned for reads of ``os.environ``
and ``os.getenv``.  A read outside :data:`ALLOWED` fails the suite, so
a new hidden runtime switch cannot arrive without an edit here; an
allowed read that disappears fails too, so the list only shrinks.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``(module path under src/repro, variable name)`` pairs that may be read.
ALLOWED = {
    ("experiments/scenarios.py", "REPRO_SCALE"),
    ("experiments/scenarios.py", "REPRO_FULL"),
    # Goes with the arena view layer (ROADMAP item 1).
    ("core/arena.py", "REPRO_NODE_PLANE"),
}

#: Key reported for a use that does not name one variable.
WHOLE_ENVIRONMENT = "<whole environment>"


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    constants = {}
    for statement in tree.body:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str)
        ):
            constants[statement.targets[0].id] = statement.value.value
    return constants


def environment_reads(source: str) -> List[Tuple[int, str]]:
    """``(line, variable)`` for every environment access in ``source``.

    Keys given as string literals or module-level string constants are
    resolved; anything else reports :data:`WHOLE_ENVIRONMENT`.
    """
    tree = ast.parse(source)
    os_names: Set[str] = set()
    environ_names: Set[str] = set()
    getenv_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in ("environ", "environb"):
                    environ_names.add(bound)
                elif alias.name in ("getenv", "getenvb"):
                    getenv_names.add(bound)

    def is_os_attribute(node: ast.AST, names: Tuple[str, ...]) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        )

    constants = _string_constants(tree)

    def resolve(key: ast.AST) -> str:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        if isinstance(key, ast.Name) and key.id in constants:
            return constants[key.id]
        return WHOLE_ENVIRONMENT

    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def first_call_argument(func: ast.AST) -> str:
        call = parents.get(func)
        if isinstance(call, ast.Call) and call.func is func and call.args:
            return resolve(call.args[0])
        return WHOLE_ENVIRONMENT

    reads = []
    for node in ast.walk(tree):
        if is_os_attribute(node, ("getenv", "getenvb")) or (
            isinstance(node, ast.Name) and node.id in getenv_names
        ):
            reads.append((node.lineno, first_call_argument(node)))
        elif is_os_attribute(node, ("environ", "environb")) or (
            isinstance(node, ast.Name) and node.id in environ_names
        ):
            parent = parents.get(node)
            key = WHOLE_ENVIRONMENT
            if isinstance(parent, ast.Subscript) and parent.value is node:
                key = resolve(parent.slice)
            elif (
                isinstance(parent, ast.Attribute)
                and parent.value is node
                and parent.attr in ("get", "pop", "setdefault")
            ):
                key = first_call_argument(parent)
            elif (
                isinstance(parent, ast.Compare)
                and parent.comparators == [node]
                and isinstance(parent.ops[0], (ast.In, ast.NotIn))
            ):
                key = resolve(parent.left)
            reads.append((node.lineno, key))
    return sorted(reads)


def _package_reads() -> Dict[Tuple[str, str], List[int]]:
    found: Dict[Tuple[str, str], List[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for line, key in environment_reads(path.read_text(encoding="utf-8")):
            found.setdefault((module, key), []).append(line)
    return found


class TestEnvironmentRatchet:
    def test_no_environment_read_outside_allow_list(self):
        unexpected = sorted(
            f"src/repro/{module}:{lines[0]} reads {key}"
            for (module, key), lines in _package_reads().items()
            if (module, key) not in ALLOWED
        )
        assert not unexpected, (
            "new environment switch(es); pass the setting explicitly "
            "instead:\n" + "\n".join(unexpected)
        )

    def test_allow_list_has_no_stale_entries(self):
        stale = sorted(ALLOWED - set(_package_reads()))
        assert not stale, f"no longer read, drop from ALLOWED: {stale}"


class TestScanner:
    def test_literal_and_constant_keys(self):
        source = (
            "import os\n"
            "_KEY = 'B'\n"
            "a = os.environ.get('A', '1')\n"
            "b = os.environ[_KEY]\n"
            "c = os.getenv('C')\n"
            "d = 'D' in os.environ\n"
        )
        assert environment_reads(source) == [(3, "A"), (4, "B"), (5, "C"), (6, "D")]

    def test_aliased_imports(self):
        source = (
            "import os as system\n"
            "from os import environ as env, getenv\n"
            "a = system.environ.get('A')\n"
            "b = env['B']\n"
            "c = getenv('C')\n"
        )
        assert environment_reads(source) == [(3, "A"), (4, "B"), (5, "C")]

    def test_unresolved_uses_report_whole_environment(self):
        source = (
            "import os\n"
            "def f(name):\n"
            "    return os.environ.get(name), dict(os.environ), os.getenv\n"
        )
        assert environment_reads(source) == [(3, WHOLE_ENVIRONMENT)] * 3

    def test_unrelated_names_ignored(self):
        source = (
            "import os\n"
            "environ = {}\n"
            "path = os.path.join('a', 'b')\n"
            "value = environ.get('A')\n"
        )
        assert environment_reads(source) == []
