"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 20% and more over tens of seconds while the work stays the same.
Pure Python slows down with it: the program under test and this loop
lose speed together. So the worker times this loop next to everything it
measures, and ``run.py`` reports each time scaled to the loop's nominal
speed: ``time * NOMINAL_S / loop time``. A change to the program moves
the scaled time as it moves the raw one; a slow stretch of the host
moves both the time and the loop, and cancels out.

The loop does what the simulator does most: attribute reads and writes
on small objects, dict updates under tuple keys, float arithmetic,
function calls and list sorting. It uses builtins only, so timing it
before ``import repro`` imports nothing on the set-up's behalf. Its
objects are made once, at import, so that timing it in the middle of a
pass does not lift the pass's peak RSS.
"""

from __future__ import annotations

#: A round figure for the loop's time, in seconds, on the machine in
#: ``meta.json`` (its run medians there were 0.15-0.22 s). It only sets
#: the scale; changing it would change every scaled time in proportion.
NOMINAL_S = 0.15

#: Iterations of the loop.
ROUNDS = 150_000


class _Slot:
    __slots__ = ("load", "weight", "hits")

    def __init__(self, weight: float) -> None:
        self.load = 0.0
        self.weight = weight
        self.hits = 0


def _step(slot: _Slot, draw: float) -> float:
    slot.load = slot.load * 0.9 + draw * slot.weight
    slot.hits += 1
    return slot.load


_SLOTS = [_Slot(1.0 + (i % 7) / 7.0) for i in range(256)]
_TABLE = {("node", i): 0.0 for i in range(97)}
_BATCH: list = []


def reference_loop(rounds: int = ROUNDS) -> float:
    """Run the loop; the result only keeps the work from being skipped."""
    slots, table, batch = _SLOTS, _TABLE, _BATCH
    batch.clear()
    state = 12345
    total = 0.0
    for i in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        draw = state / 2147483648.0
        load = _step(slots[state & 255], draw)
        key = ("node", i % 97)
        table[key] = table[key] * 0.5 + load
        batch.append((load, i))
        if len(batch) == 64:
            batch.sort()
            total += batch[0][0] + batch[-1][0]
            batch.clear()
    return total + sum(table.values())


def time_loop(clock) -> float:
    """Seconds ``reference_loop`` takes now, by ``clock``."""
    start = clock()
    reference_loop()
    return clock() - start
