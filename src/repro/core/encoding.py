"""Encoding miss streams into model vocabularies (§5.3).

Both networks predict over a fixed class vocabulary, so the choice of what
a "class" means is the prefetcher's input representation.  The paper
discusses (§5.3) that most prior work encodes *address deltas* — effective
for strided and repeated-structure patterns but a "poor proxy" for
pointer-based applications — and sketches alternatives closer to how
addresses flow through data structures.

Implemented encoders:

- :class:`DeltaVocabEncoder` — classes are the most recently *first-seen*
  address deltas (bounded vocabulary, out-of-vocabulary deltas map to a
  reserved non-prefetchable class).  This is the representation used by the
  LSTM literature the paper builds on [18, 30, 40].
- :class:`PageVocabEncoder` — classes name the touched units (pages or
  nodes) themselves, so the model learns unit -> successor-unit
  associations: a simple "logically close" pointer representation in the
  spirit of §5.3's vector-navigation analogy.

Both are deterministic, online (the vocabulary is built from the stream),
and decode predictions back to byte addresses.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

#: Reserved class for anything the encoder cannot (or refuses to) name.
#: Models may predict it, but it never decodes to a prefetchable address.
OOV_CLASS = 0


def _unit_shift(granularity: int) -> int:
    if granularity <= 0 or granularity & (granularity - 1):
        raise ValueError("granularity must be a positive power of two")
    return granularity.bit_length() - 1


@dataclass
class DeltaVocabEncoder:
    """Online address-delta vocabulary encoder.

    Attributes:
        vocab_size: Total classes including the OOV class.
        granularity: Bytes per unit; deltas are measured in units (use the
            page size for page-level prefetching, the element size for
            data-structure-level experiments).
        collapse_repeats: Skip observations that stay within the previous
            unit (returning None), so the class stream describes *unit
            transitions*.  Without this, page-granularity demand streams
            drown in zero-deltas (dozens of accesses per page) and the
            transition signal a prefetcher needs disappears.
    """

    vocab_size: int = 128
    granularity: int = 4096
    collapse_repeats: bool = True
    _delta_to_class: dict[int, int] = field(default_factory=dict, repr=False)
    _class_to_delta: dict[int, int] = field(default_factory=dict, repr=False)
    _prev_unit: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2 (OOV + 1 delta)")
        self._shift = _unit_shift(self.granularity)

    # ------------------------------------------------------------------
    def observe(self, address: int) -> int | None:
        """Encode the delta from the previous observed address.

        Returns the class id, or None for the very first observation (no
        delta exists yet).
        """
        unit = address >> self._shift
        prev = self._prev_unit
        if prev is None:
            self._prev_unit = unit
            return None
        if self.collapse_repeats and unit == prev:
            return None
        self._prev_unit = unit
        delta = unit - prev
        cls = self._delta_to_class.get(delta)
        if cls is None:
            if len(self._delta_to_class) < self.vocab_size - 1:
                cls = len(self._delta_to_class) + 1
                self._delta_to_class[delta] = cls
                self._class_to_delta[cls] = delta
            else:
                cls = OOV_CLASS
        return cls

    def decode(self, class_id: int, base_address: int) -> int | None:
        """Predicted address for ``class_id`` relative to ``base_address``."""
        delta = self._class_to_delta.get(class_id)
        if delta is None:
            return None
        unit = (base_address >> self._shift) + delta
        if unit < 0:
            return None
        return unit << self._shift

    def reset_stream(self) -> None:
        """Forget the previous address but keep the learned vocabulary."""
        self._prev_unit = None

    @property
    def known_deltas(self) -> int:
        return len(self._delta_to_class)

    # The vocabulary is a table: class ``c`` (1 ..= known_deltas) names
    # the ``c``-th first-met delta.  A driver that encodes many streams a
    # call (``core/cls_fleet.py``) takes it out as one row per stream and
    # puts it back when it is done.
    def table(self) -> tuple[list[int], int | None]:
        """``(deltas, prev_unit)``: the delta of class ``c`` at
        ``deltas[c - 1]``, and the stream position (None: none yet)."""
        return list(self._class_to_delta.values()), self._prev_unit

    def restore(self, deltas: list[int], prev_unit: int | None) -> None:
        """Become the encoder whose :meth:`table` is ``(deltas,
        prev_unit)``."""
        if len(deltas) > self.vocab_size - 1 or len(set(deltas)) != len(deltas):
            raise ValueError(
                "a vocabulary holds each delta once, "
                f"at most {self.vocab_size - 1} of them")
        classes = range(1, len(deltas) + 1)
        self._class_to_delta = dict(zip(classes, deltas))
        self._delta_to_class = dict(zip(deltas, classes))
        self._prev_unit = prev_unit


@dataclass
class PageVocabEncoder:
    """Unit-identity encoder: classes name the touched pages/nodes.

    Works when the structure being traversed is small enough to name inside
    the vocabulary (per-node prefetchers in the disaggregated setting, §4);
    unlike deltas it survives pointer-heavy layouts where successive
    addresses share no arithmetic relation.
    """

    vocab_size: int = 128
    granularity: int = 4096
    collapse_repeats: bool = True
    _unit_to_class: dict[int, int] = field(default_factory=dict, repr=False)
    _class_to_unit: dict[int, int] = field(default_factory=dict, repr=False)
    _prev_unit: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        self._shift = _unit_shift(self.granularity)

    def observe(self, address: int) -> int | None:
        unit = address >> self._shift
        if self.collapse_repeats and unit == self._prev_unit:
            return None
        self._prev_unit = unit
        cls = self._unit_to_class.get(unit)
        if cls is None:
            if len(self._unit_to_class) < self.vocab_size - 1:
                cls = len(self._unit_to_class) + 1
                self._unit_to_class[unit] = cls
                self._class_to_unit[cls] = unit
            else:
                cls = OOV_CLASS
        return cls

    def decode(self, class_id: int, base_address: int) -> int | None:
        del base_address  # identity encoding is absolute
        unit = self._class_to_unit.get(class_id)
        if unit is None:
            return None
        return unit << self._shift

    def reset_stream(self) -> None:
        """Forget the previous unit but keep the learned vocabulary."""
        self._prev_unit = None

    @property
    def known_units(self) -> int:
        return len(self._unit_to_class)


@dataclass
class RegionDeltaEncoder:
    """Per-region delta encoder: deltas measured *within* address regions.

    §5.3 argues the input representation should reflect how addresses
    "flow at the data structure level".  Distinct data structures live in
    distinct address regions (an edge array, a vertex array, a heap
    arena); when accesses to them interleave, a flat delta encoder sees
    huge cross-structure jumps that carry no information.  This encoder
    splits the address space into regions (high address bits) and encodes
    each access as (region, delta from the *previous access in the same
    region*) — recovering each structure's clean stride/jump pattern from
    the interleaved stream.

    Decoding uses the tracked per-region cursor: class (R, d) names the
    unit ``last_unit[R] + d``.

    Attributes:
        vocab_size: Total classes including OOV.
        granularity: Bytes per unit.
        region_bits: A region spans ``2**region_bits`` units (default:
            4096 units = 16 MiB of 4 KiB pages).
        collapse_repeats: Skip observations that stay within the previous
            unit of their region.
    """

    vocab_size: int = 128
    granularity: int = 4096
    region_bits: int = 12
    collapse_repeats: bool = True
    _pair_to_class: dict[tuple[int, int], int] = field(default_factory=dict,
                                                       repr=False)
    _class_to_pair: dict[int, tuple[int, int]] = field(default_factory=dict,
                                                       repr=False)
    _region_cursor: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.region_bits < 1:
            raise ValueError("region_bits must be positive")
        self._shift = _unit_shift(self.granularity)

    def observe(self, address: int) -> int | None:
        unit = address >> self._shift
        region = unit >> self.region_bits
        prev = self._region_cursor.get(region)
        if prev is None:
            self._region_cursor[region] = unit
            return None
        if self.collapse_repeats and unit == prev:
            return None
        self._region_cursor[region] = unit
        delta = unit - prev
        key = (region, delta)
        cls = self._pair_to_class.get(key)
        if cls is None:
            if len(self._pair_to_class) < self.vocab_size - 1:
                cls = len(self._pair_to_class) + 1
                self._pair_to_class[key] = cls
                self._class_to_pair[cls] = key
            else:
                cls = OOV_CLASS
        return cls

    def decode(self, class_id: int, base_address: int) -> int | None:
        """Predicted address: the class's region cursor plus its delta."""
        del base_address  # per-region cursors carry the positional state
        pair = self._class_to_pair.get(class_id)
        if pair is None:
            return None
        region, delta = pair
        cursor = self._region_cursor.get(region)
        if cursor is None:
            return None
        unit = cursor + delta
        if unit < 0 or (unit >> self.region_bits) != region:
            return None  # prediction would leave its structure's region
        return unit << self._shift

    def reset_stream(self) -> None:
        """Forget positions but keep the learned vocabulary."""
        self._region_cursor.clear()

    @property
    def known_pairs(self) -> int:
        return len(self._pair_to_class)


Encoder = DeltaVocabEncoder | PageVocabEncoder | RegionDeltaEncoder


def make_encoder(kind: str, vocab_size: int = 128, granularity: int = 4096) -> Encoder:
    """Factory: ``kind`` is "delta", "page" or "region"."""
    if kind == "delta":
        return DeltaVocabEncoder(vocab_size=vocab_size, granularity=granularity)
    if kind == "page":
        return PageVocabEncoder(vocab_size=vocab_size, granularity=granularity)
    if kind == "region":
        return RegionDeltaEncoder(vocab_size=vocab_size, granularity=granularity)
    raise ValueError(
        f"unknown encoder kind {kind!r}; expected 'delta', 'page' or 'region'")


def classify_addresses(encoder: Encoder, addresses: Iterable[int] | np.ndarray) -> list[int]:
    """Encode a whole address sequence; drops the leading None."""
    out: list[int] = []
    for address in addresses:
        cls = encoder.observe(int(address))
        if cls is not None:
            out.append(cls)
    return out
