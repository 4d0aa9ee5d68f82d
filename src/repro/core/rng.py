"""Deterministic random-number stream management.

Simulation studies need reproducibility (the same seed must yield the same
trajectory) and *independence across replications* (replication ``i`` must
not share a stream with replication ``j``).  Both are provided by a seed
tree built on :class:`numpy.random.SeedSequence`:

>>> root = SeedTree(1234)
>>> rep0 = root.child("replication", 0).generator()
>>> rep1 = root.child("replication", 1).generator()

Children are derived from the parent entropy plus a stable hash of the
key path, so adding a new named stream never perturbs existing ones —
unlike ``SeedSequence.spawn`` whose children depend on spawn order.

The stream at ``(base_seed, *path)`` is the one numpy builds for
``SeedSequence(entropy=base_seed, spawn_key=hashed path)``.  numpy mixes
that pair as one ``uint32`` entropy array: the base seed's 32-bit words,
zero-padded to the pool size, then one word per key.  A :class:`SeedTree`
node carries that array, packed as bytes, so deriving a child's stream
hashes only the new keys and costs the same at any depth.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable

import numpy as np

__all__ = ["SeedTree", "make_generator", "derive_seed"]

#: Entropy pool size of :class:`numpy.random.SeedSequence`, in 32-bit words.
_POOL_SIZE = 4
#: One packed entropy word, in the native byte order ``np.uint32`` reads.
_WORD = struct.Struct("=I")


def _key_to_int(key: object) -> int:
    """Map an arbitrary hashable key to a stable 32-bit integer.

    Python's builtin ``hash`` is salted per process for strings, so it is
    unsuitable for reproducible seeding; we use CRC32 of the repr instead.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(repr(key).encode("utf-8")) & 0xFFFFFFFF


def _seed_words(base_seed: int) -> bytes:
    """The base seed's packed 32-bit words, least significant first,
    zero-padded to the pool size — how numpy lays out the entropy of a
    spawned :class:`~numpy.random.SeedSequence`.

    Only non-negative integers are accepted, and the seeds numpy rejects
    raise numpy's exception types: ``TypeError`` for a non-integer,
    ``ValueError`` for a negative integer.
    """
    if not isinstance(base_seed, (int, np.integer)):
        raise TypeError(
            f"base seed must be a non-negative integer, got {base_seed!r}"
        )
    n = int(base_seed)
    if n < 0:
        raise ValueError(
            f"base seed must be a non-negative integer, got {base_seed!r}"
        )
    words = []
    while True:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        if not n:
            break
    words.extend([0] * (_POOL_SIZE - len(words)))
    return b"".join(map(_WORD.pack, words))


def derive_seed(base_seed: int, *path: object) -> np.random.SeedSequence:
    """Derive a :class:`numpy.random.SeedSequence` for a key path.

    Parameters
    ----------
    base_seed:
        Root entropy for the whole experiment.
    path:
        Arbitrary hashable keys identifying the stream (e.g.
        ``("replication", 3)``).
    """
    keys = [_key_to_int(k) for k in path]
    return np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(keys))


def make_generator(base_seed: int, *path: object) -> np.random.Generator:
    """Create an independent :class:`numpy.random.Generator` for a key path.

    Draws exactly what ``np.random.default_rng(derive_seed(base_seed,
    *path))`` draws.
    """
    return SeedTree(base_seed).child(*path).generator()


class SeedTree:
    """A node in a reproducible seed tree.

    Each node is identified by the root seed plus the path of keys leading
    to it.  Sibling nodes yield statistically independent generators, and
    the mapping from path to stream is stable across runs and process
    boundaries.  A node also keeps its assembled entropy words, packed
    as bytes, so :meth:`child` hashes only the new keys and
    :meth:`generator` hands the words to numpy without converting them
    one by one: a stream costs the same at every depth, and a node holds
    4 bytes per key beside its path.
    """

    __slots__ = ("_base_seed", "_path", "_words")

    def __init__(self, base_seed: int) -> None:
        self._words = _seed_words(base_seed)
        self._base_seed = int(base_seed)
        self._path: tuple[object, ...] = ()

    @property
    def base_seed(self) -> int:
        """Root entropy of the tree."""
        return self._base_seed

    @property
    def path(self) -> tuple[object, ...]:
        """Key path from the root to this node."""
        return self._path

    def child(self, *keys: object) -> "SeedTree":
        """Return the child node at ``keys`` below this node."""
        node = SeedTree.__new__(SeedTree)
        node._base_seed = self._base_seed
        node._path = self._path + keys
        node._words = self._words + b"".join(
            _WORD.pack(_key_to_int(k)) for k in keys
        )
        return node

    def children(self, prefix: object, count: int) -> Iterable["SeedTree"]:
        """Yield ``count`` numbered children ``child(prefix, 0..count-1)``."""
        for i in range(count):
            yield self.child(prefix, i)

    def seed_sequence(self) -> np.random.SeedSequence:
        """Materialize this node as a :class:`numpy.random.SeedSequence`."""
        return derive_seed(self._base_seed, *self._path)

    def generator(self) -> np.random.Generator:
        """Materialize this node as a fresh :class:`numpy.random.Generator`.

        A ``SeedSequence`` mixes the ``uint32`` entropy array exactly as
        it mixes :meth:`seed_sequence`'s ``(entropy, spawn_key)`` pair,
        so both give the same stream.
        """
        return np.random.default_rng(
            np.random.SeedSequence(np.frombuffer(self._words, dtype=np.uint32))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedTree(base_seed={self._base_seed}, path={self._path!r})"
