"""Plain-set reference for a relay's replay-digest store.

The obvious implementation of the paper's replay defense (Section
III-C) with the relay's epoch bound: remember every digest in a Python
``set``; when it holds ``limit`` digests, a new digest first clears it
and counts one flush.  ``tests/test_replay_store.py`` holds
:class:`repro.privlink.replay.CompactReplayStore` to identical answers.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set


class PlainSetReplayStore:
    """Reference replay store with the relay store's interface."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.flushes = 0
        self.digests: Set[int] = set()

    def remember(self, digest: int) -> bool:
        if digest in self.digests:
            return False
        if self.limit is not None and len(self.digests) >= self.limit:
            self.digests = set()
            self.flushes += 1
        self.digests.add(digest)
        return True

    def __len__(self) -> int:
        return len(self.digests)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digests)

    def clear(self) -> None:
        self.digests = set()
