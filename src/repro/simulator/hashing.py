"""Deterministic pseudo-random factors from stable keys.

Real devices show reproducible, configuration-specific performance quirks
that no reasonable feature set explains: shared-memory bank conflict
patterns, partition camping, instruction-scheduler luck, alignment.  The
simulator models this as a multiplicative jitter drawn deterministically
from a hash of ``(device, kernel, configuration)`` — the *same* config
always gets the *same* quirk (it is part of the true time, not noise), but
neighbouring configs get unrelated quirks.  This is what gives the learned
model a realistic, device-dependent error floor.

``blake2b`` is used (not ``hash()``) so results are stable across processes
and Python versions.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


def stable_hash64(*parts) -> int:
    """64-bit stable hash of a tuple of primitives."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return struct.unpack("<Q", h.digest())[0]


def unit_uniform(*parts) -> float:
    """Deterministic uniform in [0, 1) keyed on ``parts``."""
    return stable_hash64(*parts) / float(1 << 64)


class HashPrefix:
    """A blake2b state pre-fed with a constant key prefix.

    Batch evaluation hashes thousands of keys that share a long constant
    prefix (device name, kernel name, component label) and differ only in
    the trailing configuration tuple.  Feeding the prefix once and
    ``copy()``-ing the hash state per suffix keys each draw on
    ``(*prefix, *suffix)`` exactly as :func:`stable_hash64` would, at a
    fraction of the cost — ``copy`` duplicates the internal state without
    re-hashing the prefix bytes.
    """

    __slots__ = ("_state",)

    def __init__(self, *prefix) -> None:
        h = hashlib.blake2b(digest_size=8)
        for p in prefix:
            h.update(repr(p).encode("utf-8"))
            h.update(b"\x1f")
        self._state = h

    def _digest(self, suffix: tuple) -> int:
        h = self._state.copy()
        for p in suffix:
            h.update(repr(p).encode("utf-8"))
            h.update(b"\x1f")
        return struct.unpack("<Q", h.digest())[0]

    def uniform(self, *suffix) -> float:
        """``unit_uniform(*prefix, *suffix)``, bit-identical."""
        return self._digest(suffix) / float(1 << 64)

    def normal(self, *suffix) -> float:
        """Deterministic standard-normal variate keyed on
        ``(*prefix, *suffix)``.

        Box-Muller on two independent sub-hashes (the key extended by
        ``"u1"`` and by ``"u2"``); clipped to ±4 sigma so a single unlucky
        key cannot produce an absurd outlier.
        """
        base = self._state.copy()
        for p in suffix:
            base.update(repr(p).encode("utf-8"))
            base.update(b"\x1f")
        h1 = base.copy()
        h1.update(b"'u1'\x1f")
        h2 = base.copy()
        h2.update(b"'u2'\x1f")
        u1 = struct.unpack("<Q", h1.digest())[0] / float(1 << 64)
        u2 = struct.unpack("<Q", h2.digest())[0] / float(1 << 64)
        u1 = max(u1, 1e-12)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return max(-4.0, min(4.0, z))


class JitterTable:
    """Two-component deterministic jitter of one ``(device, kernel)`` pair.

    *Structured* component: interaction quirks keyed on small parameter
    subgroups — work-group shape ``(cfg[0], cfg[1])``, per-thread blocking
    ``(cfg[2], cfg[3])``, and the remaining switches (all three benchmarks
    order their parameters this way).  These are deterministic functions of
    a few features, so a learned model *can* absorb them given enough
    training data — they are what makes the error curves of Figs. 4-6 keep
    improving with sample count.

    *Idiosyncratic* component: keyed on the full configuration; no feature
    set explains it.  It is the irreducible error floor, and the reason
    even a good tuner lands a few percent off the global optimum.

    The three group draws are averaged with ``1/sqrt(3)`` so
    ``sigma_structured`` is the total structured standard deviation.

    Across a large batch of configurations only a handful of distinct
    group values exist, so the table caches each group normal the first
    time it is seen; the idiosyncratic draw is unique per configuration
    but reuses a pre-hashed key prefix.
    """

    def __init__(
        self,
        sigma_structured: float,
        sigma_idiosyncratic: float,
        device_name: str,
        kernel_name: str,
    ) -> None:
        if sigma_structured < 0 or sigma_idiosyncratic < 0:
            raise ValueError("sigmas must be >= 0")
        self._ss = sigma_structured
        self._si = sigma_idiosyncratic
        self._group_prefixes = tuple(
            HashPrefix(device_name, kernel_name, f"group{i}") for i in range(3)
        )
        self._group_memo: tuple = ({}, {}, {})
        self._idio = HashPrefix(device_name, kernel_name, "idio")
        self._inv = math.sqrt(3)

    def _group_normal(self, i: int, group: tuple) -> float:
        memo = self._group_memo[i]
        z = memo.get(group)
        if z is None:
            z = self._group_prefixes[i].normal(group)
            memo[group] = z
        return z

    def factor(self, config_tuple: tuple) -> float:
        """Jitter factor of one configuration:
        ``exp(sigma_structured * z_struct + sigma_idiosyncratic * z_idio)``."""
        z_struct = (
            self._group_normal(0, config_tuple[0:2])
            + self._group_normal(1, config_tuple[2:4])
            + self._group_normal(2, config_tuple[4:])
        ) / self._inv
        z_idio = self._idio.normal(config_tuple)
        return math.exp(self._ss * z_struct + self._si * z_idio)


# -- vectorized keyed hashing (splitmix64) ----------------------------------
#
# The blake2b helpers above key the *true-time* quirks and must stay
# byte-stable forever (every recorded fixture depends on them).  The fault
# and drift layers need something different: thousands of keyed draws per
# measurement batch, array-in/array-out.  splitmix64 — a 64-bit finalizer
# with full avalanche — runs as three shifts and two multiplies per lane
# under numpy, so a whole attempt-wave of fault decisions is one vector op.
#
# The scalar entry points below are implemented on Python ints with the
# identical modular arithmetic, so scalar and vector paths are bit-equal by
# construction (property-tested in tests/test_simulator_noise_hashing.py).
# Keys are folded left to right; tuples fold a length-tagged sub-key so
# ``(k, (1, 2))`` and ``(k, 1, 2)`` cannot collide.

_MASK64 = (1 << 64) - 1
SM_GAMMA = 0x9E3779B97F4A7C15
SM_MIX_A = 0xBF58476D1CE4E5B9
SM_MIX_B = 0x94D049BB133111EB
#: Distinct salts so uniform and normal variates of one key never share bits.
_SALT_UNIFORM = 0xD6E8FEB86659FD93
_SALT_N1 = 0xA5A3_564D_9F4C_11E3
_SALT_N2 = 0xC2B2_AE3D_27D4_EB4F
#: Fold-chain start and the tuple-substructure tag.
_KEY_SEED = 0x8F5C0C4F29F4A7C1
_TUPLE_SEED = 0x2545F4914F6CDD1D

_U64 = np.uint64


def splitmix64_py(z: int) -> int:
    """splitmix64 finalizer on one Python int (modulo 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * SM_MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * SM_MIX_B) & _MASK64
    return z ^ (z >> 31)


def splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (bit-equal to the scalar)."""
    z = (z ^ (z >> _U64(30))) * _U64(SM_MIX_A)
    z = (z ^ (z >> _U64(27))) * _U64(SM_MIX_B)
    return z ^ (z >> _U64(31))


def fold64(h: int, v: int) -> int:
    """Fold one 64-bit value into a running key (scalar)."""
    return splitmix64_py(h ^ ((v + SM_GAMMA) & _MASK64))


def fold64_many(h, v: np.ndarray) -> np.ndarray:
    """Vector :func:`fold64`: ``h`` scalar-or-array, ``v`` a uint64 array."""
    if not isinstance(h, np.ndarray):
        h = _U64(h & _MASK64)
    return splitmix64(h ^ (v + _U64(SM_GAMMA)))


def part64(p) -> int:
    """One key part reduced to 64 bits: strings via the stable blake2b
    hash (memoized — part of the key identity, never throughput-critical),
    ints as themselves, tuples as a length-tagged sub-fold."""
    if isinstance(p, (int, np.integer)):
        return int(p) & _MASK64
    if isinstance(p, str):
        h = _STR_MEMO.get(p)
        if h is None:
            h = stable_hash64(p)
            _STR_MEMO[p] = h
        return h
    if isinstance(p, tuple):
        h = fold64(_TUPLE_SEED, len(p))
        for q in p:
            h = fold64(h, part64(q))
        return h
    raise TypeError(f"cannot key a {type(p).__name__!r} part: {p!r}")


_STR_MEMO: dict = {}


def key64(*parts) -> int:
    """Stable 64-bit key of a tuple of primitives (splitmix64 discipline —
    *not* interchangeable with :func:`stable_hash64`)."""
    h = _KEY_SEED
    for p in parts:
        h = fold64(h, part64(p))
    return h


def tuple_keys64(prefix: int, int_matrix: np.ndarray) -> np.ndarray:
    """Per-row keys for many same-length int tuples under one prefix.

    Bit-equal to ``fold64(prefix, part64(tuple(row)))`` per row — the
    vectorized form of keying a configuration tuple — so batch fault and
    drift draws match the scalar surfaces exactly.
    """
    m = np.asarray(int_matrix)
    if m.ndim != 2:
        raise ValueError("int_matrix must be 2-D (rows are tuples)")
    h = _U64(fold64(_TUPLE_SEED, m.shape[1]) & _MASK64)
    h = np.broadcast_to(h, m.shape[0]).copy()
    cols = m.astype(np.uint64)
    for j in range(m.shape[1]):
        h = fold64_many(h, cols[:, j])
    return fold64_many(_U64(prefix & _MASK64), h)


def pair_key_prefix64(first) -> int:
    """Fold prefix for 2-tuple keys: for any part ``x``,
    ``part64((first, x)) == fold64(pair_key_prefix64(first), part64(x))``.

    The fault and drift surfaces key on ``(kernel_name, config_tuple)``
    pairs; pre-folding the constant half lets batch paths hash only the
    varying half per lane.
    """
    return fold64(fold64(_TUPLE_SEED, 2), part64(first))


def unit_open(h: np.ndarray) -> np.ndarray:
    """uint64 hashes -> float64 uniforms on the *open* interval (0, 1)."""
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def keyed_uniform(h: int) -> float:
    """Deterministic uniform in (0, 1) from one folded key (scalar)."""
    return ((splitmix64_py(h ^ _SALT_UNIFORM) >> 11) + 0.5) * (2.0 ** -53)


def keyed_uniform_many(h: np.ndarray) -> np.ndarray:
    """Vector :func:`keyed_uniform`, bit-equal per lane."""
    return unit_open(splitmix64(h ^ _U64(_SALT_UNIFORM)))


def keyed_normal(h: int) -> float:
    """Deterministic standard normal from one folded key, clipped to
    ±4 sigma like :meth:`HashPrefix.normal` (scalar).

    Transcendentals go through the numpy ufuncs (not ``math.*``) so the
    scalar value is bit-equal to :func:`keyed_normal_many` — libm and
    numpy's loops can disagree in the last ulp.
    """
    u1 = ((splitmix64_py(h ^ _SALT_N1) >> 11) + 0.5) * (2.0 ** -53)
    u2 = ((splitmix64_py(h ^ _SALT_N2) >> 11) + 0.5) * (2.0 ** -53)
    z = float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
    return max(-4.0, min(4.0, z))


def keyed_normal_many(h: np.ndarray) -> np.ndarray:
    """Vector :func:`keyed_normal`, bit-equal per lane."""
    u1 = unit_open(splitmix64(h ^ _U64(_SALT_N1)))
    u2 = unit_open(splitmix64(h ^ _U64(_SALT_N2)))
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.clip(z, -4.0, 4.0)
