"""Module discovery and project-aware import resolution.

A lint invocation hands the dataflow layer a set of already-parsed
files; this module decides what *module* each file is (by walking up
through ``__init__.py`` packages, so ``src/repro/harness/runner.py``
becomes ``repro.harness.runner`` regardless of the lint root), and
resolves each file's imports into that shared module namespace —
including the relative imports (``from ..nn import backends``) the
per-file :class:`~repro.analysis.context.FileContext` deliberately
skips, and star imports over project modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, derived from its package chain.

    Walks parents while an ``__init__.py`` marks them as packages; a
    file outside any package is its own single-segment module.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package chain
        parts = [resolved.parent.name]
    return ".".join(reversed(parts))


@dataclass
class ModuleInfo:
    """One project module: its AST plus resolved import bindings."""

    name: str
    path: Path
    display_path: str
    tree: ast.Module
    #: local name -> dotted target in module space (may point at a
    #: module, a symbol inside one, or an external package).
    imports: dict[str, str] = field(default_factory=dict)
    #: dotted module names star-imported by this module, in order.
    star_imports: list[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The package this module lives in (its own name for packages)."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]

    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str | None:
    """Absolute dotted base for a level-``level`` relative import."""
    parts = module.split(".")
    # ``from . import x`` inside pkg/__init__.py refers to pkg itself;
    # inside pkg/mod.py it refers to pkg.  Packages count as one level
    # shallower than their __init__ file path suggests.
    drop = level - 1 if is_package else level
    if drop >= len(parts) and not (drop == len(parts) and not target):
        return None
    base_parts = parts[: len(parts) - drop] if drop else parts
    if not base_parts:
        return target
    base = ".".join(base_parts)
    return f"{base}.{target}" if target else base


def collect_bindings(info: ModuleInfo) -> None:
    """Fill ``info.imports`` / ``info.star_imports`` from the AST.

    Walks the whole tree (imports inside functions bind function-locals,
    but treating them as module-wide is conservative for name
    resolution and matches how the per-file context behaves).
    """
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    info.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(info.name, info.is_package_init(),
                                         node.level, node.module)
                if base is None:
                    continue
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    if base:
                        info.star_imports.append(base)
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (f"{base}.{alias.name}" if base
                                       else alias.name)


class ModuleTable:
    """All modules in one lint invocation, keyed by dotted name.

    Two files mapping to the same dotted name (possible when linting
    disjoint fixture trees together) keep the first one — the analysis
    stays deterministic and conservative rather than merging namespaces.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, ModuleInfo] = {}
        self._by_path: dict[Path, ModuleInfo] = {}

    def add(self, path: Path, tree: ast.Module, display_path: str) -> ModuleInfo:
        resolved = path.resolve()
        existing = self._by_path.get(resolved)
        if existing is not None:
            return existing
        info = ModuleInfo(name=module_name_for(path), path=resolved,
                          display_path=display_path, tree=tree)
        collect_bindings(info)
        self._by_path[resolved] = info
        self._by_name.setdefault(info.name, info)
        return info

    def get(self, name: str) -> ModuleInfo | None:
        return self._by_name.get(name)

    def modules(self) -> list[ModuleInfo]:
        """All modules, sorted by dotted name for deterministic output."""
        return [self._by_name[name] for name in sorted(self._by_name)]
