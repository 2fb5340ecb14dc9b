"""RL001 — seeding discipline for NumPy RNGs.

Three failure modes, all of which have bitten ML-prefetcher reproductions
(results here must be bit-deterministic given a spec):

- ``np.random.default_rng()`` with no seed draws OS entropy — every run
  differs.
- The legacy module-level RNG (``np.random.rand`` & friends) mutates
  hidden global state, so results depend on call order across modules.
- Child seeds derived by arithmetic (``seed + 1``, ``seed * 3 + i``)
  collide across experiments: the cell seeded ``seed + 1`` in one grid is
  the cell seeded ``seed`` in the next.  Use
  ``np.random.SeedSequence(seed).spawn(n)`` (see ``repro.seeding``).
  Flagged where the derived seed meets an RNG: as ``default_rng``'s
  argument, as a ``seed=``-named keyword of any call, or as the value of
  a ``"seed"``-named dict key (a lane job's trace seed).
"""

from __future__ import annotations

import ast

from .base import Rule

#: numpy.random module-level legacy API (global hidden state).
_LEGACY = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "shuffle", "permutation", "choice", "uniform", "normal",
    "standard_normal", "binomial", "poisson", "beta", "gamma", "exponential",
    "get_state", "set_state", "RandomState",
})


def _mentions_seed(node: ast.expr) -> bool:
    """True when an expression's leaves include a name containing 'seed'."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


class SeededRngRule(Rule):
    code = "RL001"
    summary = ("unseeded default_rng(), legacy np.random.* global RNG, or "
               "arithmetic-derived child seeds (use SeedSequence.spawn)")

    def _check_seed(self, node: ast.expr) -> None:
        if isinstance(node, ast.BinOp) and _mentions_seed(node):
            self.report(node, "child seed derived by arithmetic on a base "
                              "seed is collision-prone; use "
                              "np.random.SeedSequence(seed).spawn(n) "
                              "(repro.seeding.spawn_seeds)")

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.ctx.resolve(node.func)
        if qual == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self.report(node, "np.random.default_rng() without a seed is "
                                  "nondeterministic; pass an explicit seed or "
                                  "SeedSequence")
            elif node.args:
                self._check_seed(node.args[0])
        elif qual is not None and qual.startswith("numpy.random."):
            attr = qual.rsplit(".", 1)[1]
            if attr in _LEGACY:
                self.report(node, f"legacy np.random.{attr} uses hidden global "
                                  "state; use a seeded np.random.default_rng "
                                  "Generator instead")
        for keyword in node.keywords:
            if keyword.arg is not None and "seed" in keyword.arg.lower():
                self._check_seed(keyword.value)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and "seed" in key.value.lower()):
                self._check_seed(value)
        self.generic_visit(node)
