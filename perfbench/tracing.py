"""Outside-in span recording for the traced benchmark run.

The program under test carries no instrumentation of its own, so the
traced run wraps the functions at each layer boundary from here: a
wrapper records one span (name, start, end, parent span, operation
index) per call and hands control to the original.  Spans stay in
memory and are written out once, when the run ends.

Boundaries are resolved from live objects (``type(node.cache).merge``,
``type(engine).step``) rather than from imported class names, so a
metric keeps its name when the class behind a boundary is replaced.

:class:`NullTracer` is what the end-to-end runs use: its ``span`` is a
no-op context and its ``wrap`` installs nothing, so the program
runs exactly its own code.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

_MISSING = object()


class NullTracer:
    """The tracer of an untraced run: records nothing, wraps nothing."""

    op = -1

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """Spans recorded in memory while wrappers are installed.

    ``op`` is the index of the operation in progress (-1 during set-up
    and end-of-run work); every span records it, so the spans of one
    operation share an identifier.  Call :meth:`close` to restore every
    wrapped attribute.
    """

    def __init__(self) -> None:
        self.op = -1
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []
        self._patched: Dict[Tuple[int, str], Tuple[Any, Any]] = {}

    def _open(self, name: str) -> int:
        index = len(self.starts)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a call the benchmark makes itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (the wrapper then sees every instance) or
        a module.  Idempotent per ``(owner, attr)``.
        """
        key = (id(owner), attr)
        if key in self._patched:
            return
        original = getattr(owner, attr)
        opened = self._open
        closed = self._close

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = opened(name)
            try:
                return original(*args, **kwargs)
            finally:
                closed(index)

        self._patched[key] = (owner, vars(owner).get(attr, _MISSING))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped attribute."""
        for (_, attr), (owner, original) in reversed(list(self._patched.items())):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # reduction and output
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: ``(calls, inclusive seconds, self seconds)``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        if not self.names:
            return {}
        table, name_ids = np.unique(np.array(self.names), return_inverse=True)
        durations = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(durations)
        )
        calls = np.bincount(name_ids, minlength=len(table))
        inclusive = np.bincount(name_ids, weights=durations, minlength=len(table))
        own = np.bincount(
            name_ids, weights=durations - child_time, minlength=len(table)
        )
        return {
            str(name): (int(calls[i]), float(inclusive[i]), float(own[i]))
            for i, name in enumerate(table)
        }

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table, name_ids = np.unique(np.array(self.names or [""]), return_inverse=True)
        np.savez(
            path,
            names=table,
            name_id=name_ids[: len(self.starts)].astype(np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            parent=np.array(self.parents, dtype=np.int64),
            op=np.array(self.ops, dtype=np.int64),
        )
