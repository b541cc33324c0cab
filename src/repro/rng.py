"""Deterministic random-number streams.

The paper (§5.2) fixes determinism "by explicitly setting the seeds of
all the random objects used within the code": the Population Manager has
a single seed, every node's RgManager/Toto models get a unique seed via
the model XML, and the PLB has its own seed that — as in production —
is *not* pinned across repeated experiments unless requested.

:class:`RngRegistry` mirrors that scheme. A single root seed fans out to
named child streams through :class:`numpy.random.SeedSequence`, so the
stream for ``("node", 3, "disk")`` is stable no matter in which order
streams are created.

An optional *recorder* (the DetSan runtime sanitizer,
:mod:`repro.analysis.detsan`) can be attached at construction; every
stream acquisition and seed derivation is then reported to it and
generators are handed out through its recording proxy.  The recorder is
duck-typed (``acquire``/``acquire_seed``) so this module never imports
the analysis layer; with no recorder the only overhead is an ``is
None`` test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, \
    Tuple, Union, cast

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.analysis.detsan import DetSanRecorder

Token = Union[str, int]


@lru_cache(maxsize=4096)
def _hash_token(token: str) -> int:
    """Stable FNV-1a hash of a string token (PYTHONHASHSEED-free).

    Memoized: the same handful of component names ("rgmanager",
    metric names, ...) are re-hashed on every stream lookup otherwise.
    """
    acc = 0x811C9DC5
    for byte in token.encode("utf-8"):
        acc = ((acc ^ byte) * 0x01000193) & 0xFFFFFFFF
    return acc


def _spawn_key(tokens: Iterable[Token]) -> Tuple[int, ...]:
    """Map a name path to a deterministic integer spawn key.

    Strings are hashed with a stable FNV-1a so the key does not depend on
    ``PYTHONHASHSEED``; integers pass through.
    """
    return tuple(token & 0xFFFFFFFF if isinstance(token, int)
                 else _hash_token(token) for token in tokens)


class RngRegistry:
    """Factory for named, reproducible :class:`numpy.random.Generator`\\ s.

    >>> rng = RngRegistry(root_seed=42)
    >>> a = rng.stream("population-manager")
    >>> b = rng.stream("node", 0, "disk")
    >>> a is rng.stream("population-manager")
    True
    """

    def __init__(self, root_seed: int,
                 recorder: Optional["DetSanRecorder"] = None) -> None:
        self.root_seed = int(root_seed)
        self.recorder = recorder
        self._streams: Dict[Tuple[int, ...], np.random.Generator] = {}

    def stream(self, *name: Token) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        key = _spawn_key(name)
        generator = self._streams.get(key)
        if generator is None:
            seq = np.random.SeedSequence(entropy=self.root_seed,
                                         spawn_key=key)
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[key] = generator
        if self.recorder is not None:
            # The proxy draws from the very same generator, so a
            # recorded run produces byte-identical results.
            return cast(np.random.Generator,
                        self.recorder.acquire(key, "stream", name,
                                              generator))
        return generator

    def derive_seed(self, *name: Token) -> int:
        """Return a stable 32-bit integer seed for ``name``.

        Used where a component (e.g. the model XML) carries a scalar seed
        rather than a generator.
        """
        seq = np.random.SeedSequence(entropy=self.root_seed,
                                     spawn_key=_spawn_key(name))
        seed = int(seq.generate_state(1, dtype=np.uint32)[0])
        if self.recorder is not None:
            self.recorder.acquire_seed("derive_seed", name, seed)
        return seed

    def fork(self, *name: Token) -> "RngRegistry":
        """Return a child registry rooted at a seed derived from ``name``.

        The child inherits the recorder, so a DetSan run sees draws
        from forked registries too.
        """
        return RngRegistry(self.derive_seed(*name), recorder=self.recorder)

    def batched(self, *name: Token) -> "BatchedStream":
        """Batched façade over :meth:`stream` for the same substream.

        The returned :class:`BatchedStream` draws whole arrays in one
        numpy call while consuming the *same* substream — and the same
        bit-generator state — as the equivalent sequence of scalar
        draws, so a batched caller is byte-identical to a scalar one.
        Audited by totolint exactly like ``stream()`` (the name tokens
        are the substream key), and DetSan-recorded through the same
        generator proxy.
        """
        return BatchedStream(self.stream(*name))


class BatchedStream:
    """Vectorized draw helper bound to one generator (one substream).

    Every method is defined to consume the underlying bit stream
    exactly as the scalar loop it replaces, so switching a call site
    between batched and scalar sampling never changes a run:

    * ``normals(mus, sigmas)`` == ``[normal(m, s) if s > 0 else m ...]``
      — cells with ``sigma == 0`` are returned as their mean *without
      consuming a draw*, matching the codebase-wide scalar convention.
    * ``integers(low, high, n)`` == ``[integers(low, high) ...]``.

    (numpy's ``Generator`` guarantees the array forms of ``normal`` /
    ``integers`` advance PCG64 state identically to element-wise
    calls; the property suite pins this.)
    """

    __slots__ = ("generator",)

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator

    def normals(self, mus: Sequence[float],
                sigmas: Sequence[float]) -> np.ndarray:
        """One masked array-parameter normal draw per ``sigma > 0`` cell."""
        mu_arr = np.asarray(mus, dtype=float)
        sigma_arr = np.asarray(sigmas, dtype=float)
        out = mu_arr.copy()
        mask = sigma_arr > 0
        if mask.all():
            return np.asarray(self.generator.normal(mu_arr, sigma_arr),
                              dtype=float)
        if mask.any():
            out[mask] = self.generator.normal(mu_arr[mask], sigma_arr[mask])
        return out

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """``n`` draws of ``integers(low, high)`` in one call."""
        return np.asarray(self.generator.integers(low, high, size=n),
                          dtype=np.int64)
