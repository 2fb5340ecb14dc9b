"""The repository's one benchmark: five workloads, one protocol.

``python -m bench`` runs the workloads through the public entry points
(``simulate``, ``run_fleet``, ``PrefetchService``), prints every
end-to-end metric by name, verifies the simulated outcomes and writes the
raw per-repeat samples as JSONL; ``python -m bench trace`` is the separate
traced run that yields the per-layer numbers.  See ``bench/README.md``.

The package is self-contained: it imports ``repro`` from the checkout's
``src/`` directory (added to ``sys.path`` here, so no ``PYTHONPATH`` is
needed) and writes only under ``bench/out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
