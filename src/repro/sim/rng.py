"""Seeded draws that match ``numpy.random.default_rng(seed)`` bit for bit.

The noise and fault injectors make three kinds of draw: ``random()``,
``uniform(low, high)`` and ``integers(n)``. :class:`Generator` reproduces
numpy's stream for exactly those, in pure Python, so a run that carries no
payload never imports numpy (DESIGN.md §4). It mirrors, in order:

* ``SeedSequence(seed)``: the seed's little-endian 32-bit words mixed into
  a pool of four by ``hashmix``/``mix``, then ``generate_state(4, uint64)``;
* ``PCG64``: a 128-bit LCG seeded by ``pcg_setseq_128_srandom_r``, with
  XSL-RR output to 64 bits and a buffered upper half for 32-bit draws;
* ``next_double`` (``(u64 >> 11) * 2**-53``) and ``low + (high - low) * u``;
* the scalar ``integers`` path: Lemire's method on 32-bit draws for a range
  of at most 2**32 - 1, else on 64-bit draws; ``integers(1)`` draws nothing.

``tests/test_rng.py`` checks the replica against numpy and against a table
of literal first draws.
"""

from __future__ import annotations

import operator

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed: object) -> int:
    """``seed`` as a non-negative int, or a ``ValueError`` naming it."""
    try:
        value = operator.index(seed)  # type: ignore[arg-type]
    except TypeError:
        value = -1
    if value < 0 or isinstance(seed, bool):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    words: list[int] = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words = words or [0]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state32: list[int] = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    return [state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """``numpy.random.default_rng(seed)`` restricted to the simulator's draws."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_state(check_seed(seed))
        # pcg_setseq_128_srandom_r: from state 0, step, add the seed, step.
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        self._half: int | None = None  # buffered upper 32 bits

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high), for low <= high."""
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """An int in [0, n), for 1 <= n <= 2**63."""
        if n == 1:
            return 0
        if n <= _MASK32:
            draw, bits = self._next32, 32
        elif n == 1 << 32:
            return self._next32()
        else:
            draw, bits = self._next64, 64
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (1 << bits) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits
