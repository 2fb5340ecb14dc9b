"""RL102 — compiled-backend registration and reference-import hygiene.

The backend registry's safety argument is "every backend is
bit-identical to numpy, so selection can stay out of cache keys".  Two
ways that argument silently breaks without a runtime test noticing:

1. a backend module stops exporting a registered factory
   (``make_sim_kernels`` / ``available``), turning an explicit backend
   into a silent numpy-only fallback;
2. a hot-path module quietly imports one of the retained reference
   implementations (``*_reference``), smuggling the slow path back
   into the code the backends were built to replace.

The rule finds every ``backends`` package in the linted project (a
package whose ``__init__`` declares ``SIM_BACKENDS``/``NN_BACKENDS``),
treats its sibling modules as the backend implementations, and checks:

- factory functions present in any backend module (or referenced by
  the registry) must exist in all of them;
- hot-path modules — anything inside a ``backends`` package, plus any
  module with a ``<name>_reference`` sibling (the optimized twin of a
  retained reference, e.g. ``nn/hebbian.py``, ``memsim/pagecache.py``)
  — must not import ``*_reference`` modules.
"""

from __future__ import annotations

import ast

from .base import ProjectRule
from ..dataflow.modules import ModuleInfo, _resolve_relative
from ..finding import Finding

#: Factory/probe functions every backend module must export.
_ALWAYS_REQUIRED = frozenset({"available"})


class BackendParityRule(ProjectRule):
    code = "RL102"
    summary = ("compiled-backend factory registration missing; "
               "reference modules imported from hot paths")

    def run(self) -> list[Finding]:
        registries = [
            info for info in self.project.modules.modules()
            if info.is_package_init()
            and info.name.rpartition(".")[2] == "backends"
            and self._declares_backend_tuple(info)
        ]
        for registry in registries:
            self._check_factories(registry)
        self._check_reference_imports()
        return self.findings

    @staticmethod
    def _declares_backend_tuple(info: ModuleInfo) -> bool:
        for node in info.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in (
                        "SIM_BACKENDS", "NN_BACKENDS"):
                    return True
        return False

    # -- package-level checks ---------------------------------------------
    def _top_level_functions(
            self, info: ModuleInfo) -> dict[str, ast.FunctionDef]:
        return {node.name: node for node in info.tree.body
                if isinstance(node, ast.FunctionDef)}

    def _registry_factory_refs(self, registry: ModuleInfo) -> set[str]:
        """``make_*`` attributes the registry pulls off backend modules."""
        refs: set[str] = set()
        for node in ast.walk(registry.tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr.startswith("make_"):
                refs.add(node.attr)
        return refs

    def _check_factories(self, registry: ModuleInfo) -> None:
        backend_modules = [
            info for info in self.project.modules.in_package(registry.name)
            if not info.is_package_init()
        ]
        per_module = {info.name: self._top_level_functions(info)
                      for info in backend_modules}
        required = set(_ALWAYS_REQUIRED) | self._registry_factory_refs(registry)
        for functions in per_module.values():
            required.update(name for name in functions
                            if name.startswith("make_"))
        for info in backend_modules:
            functions = per_module[info.name]
            for name in sorted(required):
                if name not in functions:
                    self.report_at(
                        info.display_path, 1, 0,
                        f"backend module {info.name} does not define "
                        f"{name}(); a missing registration silently "
                        "degrades this backend to the numpy-only "
                        "fallback")

    # -- reference-import check -------------------------------------------
    def _hot_path_modules(self) -> set[str]:
        names = {info.name for info in self.project.modules.modules()}
        hot: set[str] = set()
        for name in names:
            parts = name.split(".")
            if "backends" in parts[:-1] or parts[-1] == "backends":
                hot.add(name)
            elif f"{name}_reference" in names:
                hot.add(name)
        return hot

    def _check_reference_imports(self) -> None:
        hot = self._hot_path_modules()
        for info in self.project.modules.modules():
            if info.name not in hot:
                continue
            for target, node in self._imported_modules(info):
                base = target.rpartition(".")[2]
                if base.endswith("_reference"):
                    self.report_at(
                        info.display_path, node.lineno, node.col_offset,
                        f"hot-path module {info.name} imports reference "
                        f"implementation {target}; the compiled path must "
                        "not depend on the module it is checked against")

    @staticmethod
    def _imported_modules(
            info: ModuleInfo) -> list[tuple[str, ast.stmt]]:
        out: list[tuple[str, ast.stmt]] = []
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    target = _resolve_relative(
                        info.name, info.is_package_init(), node.level,
                        node.module)
                else:
                    target = node.module or ""
                if target:
                    out.append((target, node))
                    # ``from pkg import mod`` also imports pkg.mod.
                    for alias in node.names:
                        if alias.name != "*":
                            out.append((f"{target}.{alias.name}", node))
        return out
