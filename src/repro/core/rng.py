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
zero-padded to the pool size, then one word per key.  It hashes the
first four words into a 4-word pool and cross-mixes the pool, then folds
every further word into each pool word, with a hash constant that runs
on across the whole array.  A :class:`SeedTree` node carries that pool
and constant, so :meth:`SeedTree.child` mixes only the new keys, and
:meth:`SeedTree.generator` seeds ``PCG64`` from the pool without
building a ``SeedSequence``: a stream costs the same at any depth.
"""

from __future__ import annotations

import zlib
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = ["SeedTree", "make_generator", "derive_seed"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _key_to_int(key: object) -> int:
    """Map an arbitrary hashable key to a stable 32-bit integer.

    Python's builtin ``hash`` is salted per process for strings, so it is
    unsuitable for reproducible seeding; we use CRC32 of the repr instead.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(repr(key).encode("utf-8")) & 0xFFFFFFFF


def _fold(pool: tuple, hash_const: int, word: int) -> tuple[tuple, int]:
    """Mix one entropy word beyond the first four into the pool the way
    numpy does: hash the word with the running hash constant and mix it
    into each pool word in turn (numpy's ``hashmix`` and ``mix``,
    inlined: this runs once per key of every derived stream)."""
    out = []
    for x in pool:
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        result = (_MIX_MULT_L * x - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
        out.append(result ^ (result >> 16))
    return tuple(out), hash_const


#: The xor and multiplier hash constants of each of the eight 32-bit
#: words ``SeedSequence.generate_state(4, np.uint64)`` hashes from the
#: pool, flattened: its hash constant restarts at ``INIT_B`` on every
#: call and is multiplied by ``MULT_B`` once per word.
_STATE_HASHES = tuple(
    (_INIT_B * pow(_MULT_B, j, 1 << 32)) & _MASK32
    for i in range(8)
    for j in (i, i + 1)
)


def _seed_pool(base_seed: int) -> tuple[tuple, int]:
    """numpy's mixed pool for the base seed's 32-bit words, least
    significant first and zero-padded to the pool size (how numpy lays
    out the entropy of a spawned :class:`~numpy.random.SeedSequence`),
    and the hash constant that mixing leaves for the first key.

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
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            break
    words.extend([0] * (_POOL_SIZE - len(words)))
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool
    # Mixing takes one hash step per pool word for every entropy word:
    # the first four hashed in, 12 in the cross-mix, four per word after.
    hash_const = (_INIT_A * pow(_MULT_A, _POOL_SIZE * len(words), 1 << 32)) & _MASK32
    return tuple(pool.tolist()), hash_const


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
    boundaries.  A node also keeps numpy's mixed entropy pool and hash
    constant for its path, so :meth:`child` mixes only the new keys and
    :meth:`generator` needs no ``SeedSequence``: a stream costs the same
    at every depth, and a node holds five words beside its path.
    """

    __slots__ = ("_base_seed", "_path", "_pool", "_hash")

    def __init__(self, base_seed: int) -> None:
        self._pool, self._hash = _seed_pool(base_seed)
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
        pool, hash_const = self._pool, self._hash
        for key in keys:
            pool, hash_const = _fold(pool, hash_const, _key_to_int(key))
        node._pool, node._hash = pool, hash_const
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

        Its ``PCG64`` is seeded with the words :meth:`seed_sequence`
        would generate, so both give the same stream; its
        ``bit_generator.seed_seq`` is a :class:`_NodeSeed`.
        """
        return np.random.Generator(np.random.PCG64(_NodeSeed(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedTree(base_seed={self._base_seed}, path={self._path!r})"


class _NodeSeed(ISpawnableSeedSequence):
    """A :class:`SeedTree` node as the seed sequence of its generator.

    :meth:`generate_state` hashes the node's pool into the four words
    ``PCG64`` asks for, the way numpy's ``SeedSequence.generate_state``
    does; any other request, and :meth:`spawn`, go to the node's
    ``SeedSequence``, built on first use and kept, so spawned children,
    successive spawns included, are the ones numpy's would be.
    """

    __slots__ = ("_node", "_sequence")

    def __init__(self, node: SeedTree) -> None:
        self._node = node
        self._sequence: np.random.SeedSequence | None = None

    def _seed_sequence(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = self._node.seed_sequence()
        return self._sequence

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:  # not what PCG64 asks
            return self._seed_sequence().generate_state(n_words, dtype)
        # Unrolled: this runs once per derived stream.
        p0, p1, p2, p3 = self._node._pool
        x0, m0, x1, m1, x2, m2, x3, m3, x4, m4, x5, m5, x6, m6, x7, m7 = (
            _STATE_HASHES
        )
        a = ((p0 ^ x0) * m0) & _MASK32
        b = ((p1 ^ x1) * m1) & _MASK32
        c = ((p2 ^ x2) * m2) & _MASK32
        d = ((p3 ^ x3) * m3) & _MASK32
        e = ((p0 ^ x4) * m4) & _MASK32
        f = ((p1 ^ x5) * m5) & _MASK32
        g = ((p2 ^ x6) * m6) & _MASK32
        h = ((p3 ^ x7) * m7) & _MASK32
        # Paired little-endian, as numpy views its words as '<u8'.
        return np.array(
            [
                a ^ (a >> 16) | (b ^ (b >> 16)) << 32,
                c ^ (c >> 16) | (d ^ (d >> 16)) << 32,
                e ^ (e >> 16) | (f ^ (f >> 16)) << 32,
                g ^ (g >> 16) | (h ^ (h >> 16)) << 32,
            ],
            dtype=np.uint64,
        )

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        return self._seed_sequence().spawn(n_children)
