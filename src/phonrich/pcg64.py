"""np.random.default_rng's PCG64 stream without numpy.random: numpy's SeedSequence hash and PCG64's seeding step
give a stream's 128-bit state and increment, and a jump-ahead gives a block of its outputs at array speed.
numpy's stream-compatibility policy (NEP 19) keeps all three as they are."""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

# numpy's SeedSequence hash constants and pool size, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _POOL, _MULT = 0xca01f9dd, 0x4973f715, 4, 0x2360ed051fc65da44385df649fccf645
_MASK = (1 << 128) - 1
_WORD = 0xFFFFFFFF


def entropy_words(n: int) -> list[int]:
    """n >= 0 as SeedSequence takes it: 32-bit words, least significant first, [0] for 0."""
    return [n >> shift & _WORD for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of a uint32 column, its hash constant carried from call to call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD
        value *= const
        return value ^ value >> 16
    return hashmix


def seeded(entropy: list[np.ndarray]) -> Iterator[tuple[int, int]]:
    """Per row of the uint32 columns ``entropy``, the PCG64 (state, inc) of np.random.default_rng(words), the
    row's words being its entropy: SeedSequence's entropy pool and generate_state(4, uint64) worked out on the
    columns, whose arithmetic wraps as SeedSequence's does, then PCG64's seeding step in 128-bit ints."""
    entropy = entropy + [np.zeros_like(entropy[0])] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(len(entropy)):  # the pool words into each other, then the entropy words past the pool
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src] if src < _POOL else entropy[src])
                pool[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[k % _POOL]).astype(np.uint64) for k in range(8)]
    halves = [(state[k] | state[k + 1] << 32).tolist() for k in range(0, 8, 2)]
    for high, low, seq_high, seq_low in zip(*halves):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK
        yield ((inc + (high << 64 | low)) * _MULT + inc) & _MASK, inc


def _limbs(value: int) -> np.ndarray:
    """A 128-bit int as a (4, 1) uint64 column of 32-bit limbs, least significant first."""
    return np.array([[value >> shift & _WORD] for shift in range(0, 128, 32)], dtype=np.uint64)


def _int(limbs: np.ndarray) -> int:
    """The 128-bit int of a column of 32-bit limbs."""
    return sum(int(limb) << shift for limb, shift in zip(limbs, range(0, 128, 32)))


def _mul_add(table: np.ndarray, factor: int, addend) -> np.ndarray:
    """(table * factor + addend) mod 2**128, table a (4, n) uint64 array whose row k holds the 32-bit limbs k of
    n values, addend such limbs or 0: a limb product fits 64 bits, and a sum of 8 limbs, before the carries, does."""
    acc = np.zeros(table.shape, dtype=np.uint64) + addend
    for k in range(4):
        product = table[:4 - k] * (factor >> 32 * k & _WORD)
        acc[k:] += product & _WORD
        acc[k + 1:] += product[:3 - k] >> 32
    for k in range(3):
        acc[k + 1] += acc[k] >> 32
    acc &= _WORD
    return acc


@cache
def _jumps(block: int) -> tuple[np.ndarray, np.ndarray]:
    """For j = 1..block, as (4, block) limbs, a**j and the sum of a**i over i < j, mod 2**128, a being PCG64's
    multiplier: the state j steps after s, of increment inc, is a**j * s + (the sum) * inc. Built by doubling."""
    powers, sums = _limbs(_MULT), _limbs(1)
    while powers.shape[1] < block:  # the values past n are those up to n, n steps on
        jump = _int(powers[:, -1])
        powers, sums = (np.hstack([powers, _mul_add(powers, jump, 0)]),
                        np.hstack([sums, _mul_add(sums, jump, sums[:, -1:])]))
    return powers[:, :block], sums[:, :block]


def words(seed: int, block: int) -> Iterator[int]:
    """np.random.default_rng(seed).bit_generator.random_raw()'s outputs (seed >= 0), each as its low 32 bits,
    then its high 32 bits: PCG64 steps its state, then outputs the xor of the state's halves rotated right by its
    top 6 bits. ``block`` outputs at a time are made by jump-ahead, from the state before them."""
    (state, inc), = seeded([np.array([word], dtype=np.uint32) for word in entropy_words(seed)])
    powers, sums = _jumps(block)
    steps = _mul_add(sums, inc, 0)
    while True:
        states = _mul_add(powers, state, steps)
        state = _int(states[:, -1])
        folded = (states[3] ^ states[1]) << 32 | states[2] ^ states[0]
        turn = states[3] >> 26
        yield from np.asarray(folded >> turn | folded << (-turn & 63), "<u8").view("<u4").tolist()
