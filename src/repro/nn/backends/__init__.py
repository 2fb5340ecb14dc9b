"""Backend registry: which names exist, and what each one accelerates.

A compiled kernel exists only where a ``python -m bench`` cell shows it
winning.  That leaves:

``numpy``
    The always-available reference: ``simulate()`` runs the scalar
    reference engine, the fleet its numpy walk, and the Hebbian network
    its numpy arithmetic.  The correctness fallback when no compiler is
    present (one-time ``RuntimeWarning``), not a tuned platform.
``c``
    The **memsim** kernels — ``simulate()``'s engine, the fleet's hit
    walk and null replay, the membership scans — as a small C file
    compiled on first use with the system C compiler and loaded through
    ``cffi``'s ABI mode; bit-identical to the reference.  It is a legal
    name for the network too (one ``--backend`` value flows to both
    domains) but selects no network kernel: the Hebbian network is numpy
    arithmetic under every name.
``int8``
    The one name that changes what the network does: readout scores are
    read from an int8-quantized mirror of the weights while training
    stays float64.  Accuracy-bounded rather than bit-identical (see
    ``nn/quantization.py``); never chosen by ``auto``; no simulator
    meaning.

Selection is by name or ``"auto"`` (``c`` when it is available, else
``numpy`` with a one-time warning).  Explicitly requesting an
unavailable backend raises :class:`BackendUnavailableError` — silent
substitution is reserved for ``auto``.

The registry also carries the *ambient default* that ``"auto"`` resolves
to (:func:`set_default_backend`).  The harness plumbs a grid-level
backend choice through this ambient state rather than through cell
specs: backends are bit-identical by contract, so the same spec must map
to the same cache entry regardless of which backend computed it.
"""

from __future__ import annotations

import warnings
from typing import Any

from . import c_backend

__all__ = [
    "BackendUnavailableError",
    "NN_BACKENDS",
    "SIM_BACKENDS",
    "available_backends",
    "backend_available",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "sim_kernels",
]

#: Legal backend names per domain.  ``int8`` only reinterprets the
#: Hebbian serving path, so it has no simulator meaning.
NN_BACKENDS = ("numpy", "c", "int8")
SIM_BACKENDS = ("numpy", "c")

#: Backends force-disabled for this process (test/CI hook: the
#: ``REPRO_DISABLE_COMPILED`` conftest fixture fills this to prove the
#: numpy fallback on machines that do have a compiler).
_disabled: set[str] = set()  # repro-lint: zone=init

_default_backend = "auto"
_warned_fallback = False


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment."""


def _domain_names(domain: str) -> tuple[str, ...]:
    if domain == "nn":
        return NN_BACKENDS
    if domain == "sim":
        return SIM_BACKENDS
    raise ValueError(f"unknown backend domain {domain!r}")


def backend_available(name: str) -> bool:
    """Whether ``name`` can actually run here (imports/compiles cleanly)."""
    if name in _disabled:
        return False
    if name in ("numpy", "int8"):
        return True
    if name == "c":
        return c_backend.available()
    return False


def available_backends(domain: str = "sim") -> tuple[str, ...]:
    """The usable backend names for ``domain``, in declaration order."""
    return tuple(name for name in _domain_names(domain)
                 if backend_available(name))


def set_default_backend(name: str) -> None:  # repro-lint: zone=init
    """Set the process-wide backend that ``"auto"`` resolves to.

    ``"auto"`` (the initial value) restores availability-based selection.
    A concrete name must be available now — failing early here beats a
    confusing :class:`BackendUnavailableError` from deep inside a grid
    worker later.
    """
    global _default_backend
    if name != "auto":
        if name not in SIM_BACKENDS:
            raise ValueError(
                f"unknown default backend {name!r}; expected one of "
                f"{('auto',) + SIM_BACKENDS}")
        if not backend_available(name):
            raise BackendUnavailableError(
                f"cannot set default backend {name!r}: not available in "
                "this environment")
    _default_backend = name


def get_default_backend() -> str:
    return _default_backend


def _warn_fallback() -> None:  # repro-lint: zone=init
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        "no compiled kernel backend is available; falling back to the "
        "pure-numpy reference kernels (make cffi and a C compiler "
        "available to get the compiled simulator kernels)",
        RuntimeWarning, stacklevel=4)


def resolve_backend(name: str = "auto", *, domain: str = "sim") -> str:
    """Resolve a requested backend name to a concrete available one.

    ``"auto"`` resolves to the ambient default if one was set, else to
    ``"c"`` when it is available, else to ``"numpy"`` (with a one-time
    :class:`RuntimeWarning`).  Explicit names must exist for the
    domain and be available, or this raises — silently substituting a
    different backend than the one the caller pinned would defeat the
    point of pinning.
    """
    names = _domain_names(domain)
    if name == "auto":
        ambient = _default_backend
        if ambient != "auto":
            return ambient
        if backend_available("c"):
            return "c"
        _warn_fallback()
        return "numpy"
    if name not in names:
        raise ValueError(
            f"unknown backend {name!r} for domain {domain!r}; expected "
            f"one of {('auto',) + names}")
    if not backend_available(name):
        raise BackendUnavailableError(
            f"backend {name!r} was requested explicitly but is not "
            "available in this environment ('c' needs cffi and a C "
            "compiler on PATH); backend='auto' falls back to numpy "
            "instead of raising")
    return name


def sim_kernels(name: str) -> Any | None:
    """Compiled simulator kernel bundle, or None on the numpy backend."""
    if name == "numpy":
        return None
    if name != "c":
        raise ValueError(f"no compiled backend named {name!r}")
    return c_backend.make_sim_kernels()
