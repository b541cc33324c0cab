"""In-memory span tracer that wraps functions at module boundaries.

A :class:`Tracer` patches named attributes (methods on a class or
functions in a module namespace) with thin wrappers. Each call records
one span: a name, a start, an end, the span that was open when it
started (its parent), and whether it raised. Spans live in flat arrays
until :meth:`Tracer.write` dumps them; :func:`summarize` derives
per-name counts, inclusive time, self time and latency percentiles.

The wrappers are installed from outside the program, so nothing under
``src/`` changes; :meth:`Tracer.restore` puts every original attribute
back, after which the program runs unpatched.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Parent index of a span that started with no other span open.
ROOT = -1
_MISSING = object()


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any
    owned: bool          # the attribute lived in owner.__dict__


@dataclass
class SpanStats:
    """Everything :func:`summarize` knows about one span name."""

    calls: int = 0
    ok_calls: int = 0
    #: Inclusive time, counting a recursive call only once.
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Records spans from the wrappers it installs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ok = array("b")
        #: Per-name sums of a ``tally`` function over return values.
        self.tallies: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[_Patch] = []
        self._history: List[_Patch] = []

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self.names)
            self.names.append(name)
            self._name_ids[name] = name_id
        return name_id

    def traced(self, fn: Callable, name: str,
               tally: Optional[Callable[[Any], int]] = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span."""
        name_id = self._name_id(name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ok = self.parents, self.ok
        if tally is not None:
            self.tallies.setdefault(name, 0)
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else ROOT)
            ok.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            ok[index] = 1
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             tally: Optional[Callable[[Any], int]] = None) -> None:
        """Replace ``owner.attr`` (a plain function) with a traced one.

        ``owner`` is a class or a module; patch a module-level function
        in the namespace of the module that *calls* it, since a
        ``from x import f`` binding does not see a patch of ``x.f``.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        if not callable(original) or isinstance(
                original, (staticmethod, classmethod, property)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        wrapper = self.traced(original, name, tally)
        setattr(owner, attr, wrapper)
        patch = _Patch(owner, attr, original, owned)
        self._patches.append(patch)
        self._history.append(patch)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first (idempotent)."""
        while self._patches:
            patch = self._patches.pop()
            if patch.owned:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)

    def is_restored(self) -> bool:
        """True when every attribute ever wrapped is its original again."""
        for patch in self._history:
            current = vars(patch.owner).get(patch.attr, _MISSING)
            expected = patch.original if patch.owned else _MISSING
            if current is not expected:
                return False
        return True

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span as gzipped CSV: index,name,start,end,parent,ok."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start,end,parent,ok\n")
            names = self.names
            for index in range(len(self.starts)):
                out.write(f"{index},{names[self.name_ids[index]]},"
                          f"{self.starts[index]!r},{self.ends[index]!r},"
                          f"{self.parents[index]},{self.ok[index]}\n")

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts))
                   if self.parents[i] == ROOT)

    def top_level_outside(self, windows: Sequence[Tuple[float, float]]
                          ) -> int:
        """Spans with no parent that do not lie inside one ``(start, end)``."""
        windows = sorted(windows)
        begins = [begin for begin, _ in windows]
        stray = 0
        for index in range(len(self.starts)):
            if self.parents[index] != ROOT:
                continue
            at = bisect.bisect_right(begins, self.starts[index]) - 1
            if at < 0 or self.ends[index] > windows[at][1]:
                stray += 1
        return stray

    def count_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that returned inside a call of ``ancestor``."""
        want = self._name_ids.get(name)
        outer = self._name_ids.get(ancestor)
        if want is None or outer is None:
            return 0
        count = 0
        for index in range(len(self.starts)):
            if self.name_ids[index] != want or not self.ok[index]:
                continue
            parent = self.parents[index]
            while parent != ROOT:
                if self.name_ids[parent] == outer:
                    count += 1
                    break
                parent = self.parents[parent]
        return count


def summarize(tracer: Tracer) -> Dict[str, SpanStats]:
    """Per-name counts, inclusive time, self time and durations.

    A span's self time is its duration minus the durations of its
    direct children: calls on one thread nest, so the children cover
    disjoint parts of the parent's interval.
    """
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    name_ids, ok = tracer.name_ids, tracer.ok
    count = len(starts)
    child_s = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent != ROOT:
            child_s[parent] += ends[index] - starts[index]
    stats = {name: SpanStats() for name in tracer.names}
    by_id = [stats[name] for name in tracer.names]
    for index in range(count):
        entry = by_id[name_ids[index]]
        duration = ends[index] - starts[index]
        entry.calls += 1
        entry.ok_calls += ok[index]
        entry.self_s += duration - child_s[index]
        entry.durations.append(duration)
        if not _has_ancestor(tracer, index, name_ids[index]):
            entry.total_s += duration
    return stats


def _has_ancestor(tracer: Tracer, index: int, name_id: int) -> bool:
    parent = tracer.parents[index]
    while parent != ROOT:
        if tracer.name_ids[parent] == name_id:
            return True
        parent = tracer.parents[parent]
    return False


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
