"""Every module under ``src/repro`` is run by something a user runs.

An ``ast`` import walk starts at the entry points (the CLI, the daemon, the
client, the baselines and the workloads package) and follows every import
statement, including the ones inside functions. ``from pkg import name``
goes to the submodule that defines ``name``: a submodule of that name, else
the module a package ``__init__`` imports it from or lists in its lazy
``_EXPORTS`` table. Importing a module runs its packages' ``__init__``
files, but an ``__init__`` only keeps alive what its own body uses: a name
it merely re-exports does not make its module live. A module the walk never
reaches is reported, whether or not an ``__init__`` re-exports it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"

#: Where the walk starts: what ``python -m repro`` and ``repro serve`` run,
#: what a client or a baseline comparison imports, and the workloads package
#: (the benchmark ledger seeds its violations with ``inject_violations``).
ENTRY_POINTS = (
    "repro.__main__",
    "repro.cli",
    "repro.server",
    "repro.client",
    "repro.baselines",
    "repro.workloads",
)


def _modules() -> Dict[str, Path]:
    """Dotted module name -> source file (a package's is its ``__init__``)."""
    found = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


class _Walker:
    def __init__(self) -> None:
        self.files = _modules()
        self.trees = {
            name: ast.parse(path.read_text(), filename=str(path))
            for name, path in self.files.items()
        }
        self.reached: Set[str] = set()

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def absolute(self, module: str, level: int, target: Optional[str]) -> str:
        """The dotted name a (possibly relative) import in ``module`` means."""
        if not level:
            return target or ""
        base = module.split(".")
        if not self.is_package(module):
            base.pop()
        base = base[: len(base) - (level - 1)]
        return ".".join(base + ([target] if target else []))

    def lazy_exports(self, package: str) -> Dict[str, str]:
        """Name -> defining module from a package's ``_EXPORTS`` literal."""
        table: Dict[str, str] = {}
        for node in self.trees[package].body:
            if (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
                and isinstance(node.value, ast.Dict)
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    for name in ast.literal_eval(value).split():
                        source = ast.literal_eval(key)
                        table[name] = package + (source or f".{name}")
        return table

    def resolve(self, package: str, name: str) -> Optional[str]:
        """The module that defines ``name`` for ``from package import name``."""
        if f"{package}.{name}" in self.files:
            return f"{package}.{name}"
        if package not in self.files or not self.is_package(package):
            return package if package in self.files else None
        for node in ast.walk(self.trees[package]):
            if isinstance(node, ast.ImportFrom) and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                source = self.absolute(package, node.level, node.module)
                return self.resolve(source, name) or source
        lazy = self.lazy_exports(package).get(name)
        return self.resolve(lazy, name) if lazy is not None else package

    def imports(self, module: str, *, only_used: bool) -> List[str]:
        """Modules ``module`` imports (``only_used``: names its body uses)."""
        tree = self.trees[module]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        targets: List[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not only_used or bound in used:
                        targets.append(alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = self.absolute(module, node.level, node.module)
                for alias in node.names:
                    if only_used and (alias.asname or alias.name) not in used:
                        continue
                    target = self.resolve(source, alias.name)
                    if target is not None:
                        targets.append(target)
        if not only_used:
            targets.extend(self.lazy_exports(module).values())
        return [t for t in targets if t in self.files]

    def walk(self) -> Set[str]:
        pending = [
            name
            for entry in ENTRY_POINTS
            for name in self.files
            if name == entry or (entry == "repro.baselines" and name.startswith(entry + "."))
        ]
        entries = set(pending)
        while pending:
            module = pending.pop()
            if module in self.reached:
                continue
            self.reached.add(module)
            parts = module.split(".")
            # Importing a module runs every package __init__ above it.
            parents = [".".join(parts[:i]) for i in range(1, len(parts))]
            pending.extend(p for p in parents if p not in self.reached)
            only_used = self.is_package(module) and module not in entries
            pending.extend(self.imports(module, only_used=only_used))
        return self.reached


def orphan_modules() -> List[str]:
    walker = _Walker()
    reached = walker.walk()
    return sorted(
        name
        for name in walker.files
        if name not in reached and not walker.is_package(name)
    )


def test_walk_follows_lazy_exports_and_used_init_imports():
    reached = _Walker().walk()
    assert {"repro._lazy", "repro.workloads.generator", "repro.core.engine"} <= reached


def test_every_module_is_reached_from_an_entry_point():
    assert orphan_modules() == [], (
        "modules no entry point reaches (at most through a package __init__ "
        "re-export): delete them or move them next to their only user"
    )
