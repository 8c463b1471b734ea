"""Relay replay-digest stores (paper Section III-C).

A relay remembers the digest of every message it relays and drops
repeats.  A store answers one question per message — "seen before?" —
and remembers the digest when the answer is no.  It is *epoch-bounded*:
when it already holds ``limit`` digests, a new digest first flushes it
wholesale and increments :attr:`flushes` (``limit=None`` never
flushes).

:class:`CompactReplayStore` keeps the 64-bit compact digests of
:func:`~repro.privlink.crypto.layer_digest` in three parts:

* a small *young* ``set`` that receives new digests;
* a sorted ``np.uint64`` array that the young set is merged into every
  :data:`YOUNG_LIMIT` digests, at 8 bytes per digest;
* a fixed bit prefilter of :data:`BITMAP_BITS` bits indexed by a
  digest's low bits.  A clear bit proves the digest is absent, so most
  new digests skip the sorted-array probe.

It holds exactly the digests a plain ``set`` would: the same answers,
sizes and flush points, at about 9 bytes per digest instead of 60 to
80.  :class:`SetReplayStore` is the plain-set store of the legacy
full-``bytes`` digest mode.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Hashable, Iterator, Optional, Set

import numpy as np

__all__ = ["YOUNG_LIMIT", "BITMAP_BITS", "CompactReplayStore", "SetReplayStore"]

#: Young-set size at which it is merged into the sorted array.
YOUNG_LIMIT = 512

#: Bits in the prefilter (a power of two): 32 KiB per relay.
BITMAP_BITS = 1 << 18

_BITMAP_MASK = BITMAP_BITS - 1
_ZERO_BITMAP = bytes(BITMAP_BITS >> 3)
_EMPTY = np.empty(0, dtype=np.uint64)


class CompactReplayStore:
    """Exact epoch-bounded store of 64-bit unsigned replay digests."""

    __slots__ = ("limit", "flushes", "_young", "_sorted", "_bitmap")

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.flushes = 0
        self._young: Set[int] = set()
        # A memoryview of the sorted array: bisecting it compares exact
        # Python ints (and costs under 1 us, unlike a scalar
        # ``searchsorted``).
        self._sorted = memoryview(_EMPTY)
        self._bitmap = bytearray(_ZERO_BITMAP)

    def remember(self, digest: int) -> bool:
        """Remember ``digest``; False when it was already remembered.

        Flushes wholesale first when the store is full.
        """
        bit = digest & _BITMAP_MASK
        index = bit >> 3
        mask = 1 << (bit & 7)
        bitmap = self._bitmap
        young = self._young
        if bitmap[index] & mask:
            if digest in young:
                return False
            ordered = self._sorted
            position = bisect_left(ordered, digest)
            if position < len(ordered) and ordered[position] == digest:
                return False
        limit = self.limit
        if limit is not None and len(young) + len(self._sorted) >= limit:
            self.clear()
            self.flushes += 1
        young.add(digest)
        bitmap[index] |= mask
        if len(young) >= YOUNG_LIMIT:
            self._merge()
        return True

    def _merge(self) -> None:
        """Merge the young set into the sorted array."""
        young = self._young
        fresh = np.fromiter(young, dtype=np.uint64, count=len(young))
        fresh.sort()
        ordered = np.frombuffer(self._sorted, dtype=np.uint64)
        merged = np.insert(ordered, ordered.searchsorted(fresh), fresh)
        self._sorted = memoryview(merged)
        young.clear()

    def __len__(self) -> int:
        return len(self._young) + len(self._sorted)

    def __iter__(self) -> Iterator[int]:
        yield from self._young
        yield from self._sorted.tolist()

    def clear(self) -> None:
        """Forget every digest (does not count as a flush)."""
        self._young.clear()
        self._sorted = memoryview(_EMPTY)
        self._bitmap[:] = _ZERO_BITMAP

    def nbytes(self) -> int:
        """Bytes held: young set and its ints, sorted array, bitmap."""
        young = self._young
        return (
            sys.getsizeof(young)
            + sum(map(sys.getsizeof, young))
            + self._sorted.nbytes
            + sys.getsizeof(self._bitmap)
        )


class SetReplayStore:
    """Epoch-bounded plain ``set`` of digests of any hashable type."""

    __slots__ = ("limit", "flushes", "_digests")

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.flushes = 0
        self._digests: Set[Hashable] = set()

    def remember(self, digest: Hashable) -> bool:
        """Remember ``digest``; False when it was already remembered.

        Flushes wholesale first when the store is full.
        """
        digests = self._digests
        if digest in digests:
            return False
        if self.limit is not None and len(digests) >= self.limit:
            digests.clear()
            self.flushes += 1
        digests.add(digest)
        return True

    def __len__(self) -> int:
        return len(self._digests)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._digests)

    def clear(self) -> None:
        """Forget every digest (does not count as a flush)."""
        self._digests.clear()

    def nbytes(self) -> int:
        """Bytes held: the set table and its digests."""
        digests = self._digests
        return sys.getsizeof(digests) + sum(map(sys.getsizeof, digests))
