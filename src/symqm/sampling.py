"""Seeded random sampling of states and operators.

Every report that samples states derives one child seed per sample from
the report seed, so a parallel evaluation of the samples would reproduce
the serial output exactly; field-check directions take one more stream.

Row ``i`` of a draw is the state ``np.random.default_rng([seed, i])`` gives,
byte for byte, but a draw builds no generator per row: one pass hashes the
``SeedSequence`` words of every row at once (numpy's ``SeedSequence`` mixing,
NEP 19), and one reused PCG64 is set to each row's ``(state, inc)`` in turn.
``random_unit_state`` is the per-row reference that the tests compare with.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["random_unit_state", "random_unit_states", "random_unit_directions", "random_hermitian"]


def _rng(seed, index=None):
    if index is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([int(seed), int(index)])


def random_unit_state(n: int, seed, index=None) -> np.ndarray:
    """One normalized complex Gaussian vector of length ``n``."""
    rng = _rng(seed, index)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64's LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# Floats in a draw's reused block of normals (32 KiB): 4 rows at n = 512, 128 at n = 16.
_DRAW_ENTRIES = 2**12


def _uint32_words(value: int) -> list:
    """``value`` as little-endian 32-bit words, as ``SeedSequence`` splits an entropy integer."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(hash_const: int, multiplier: int):
    """``SeedSequence``'s ``hashmix`` on uint32 arrays; each call steps its constant once."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * multiplier & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """``SeedSequence``'s ``mix`` of two uint32 arrays."""
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every ``i < count``, one
    row each: the pool mixing and the output hash run on all rows at once."""
    entropy = [np.full(count, w, np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(count, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(count, np.uint32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    words = np.stack([output(pool[k % 4]) for k in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


# Pure in its arguments, so the checks of one command share a draw; ``cli._run`` clears the cache.
@functools.lru_cache(maxsize=8)
def random_unit_states(n: int, seed, count: int) -> np.ndarray:
    """The read-only ``(count, n)`` matrix whose row ``i`` is ``random_unit_state(n, seed, i)``.

    One seeding pass: the ``SeedSequence([seed, i])`` words of every row are hashed at once,
    each row's PCG64 ``(state, inc)`` is set by ``pcg64_set_seed``'s two LCG steps into one
    reused generator, and each row is built and normalized as ``random_unit_state`` does it.
    The normals are drawn a block of rows at a time into one reused buffer of at most
    ``_DRAW_ENTRIES`` floats, so the draw holds no buffer of its size but the result."""
    count = int(count)
    if count >= 1 << 32:  # each row index is one uint32 entropy word
        raise ValueError("count must be below 2**32")
    words = _seed_states(int(seed), count).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    rows = max(1, _DRAW_ENTRIES // (2 * n))
    block = np.empty((min(rows, count), 2 * n))
    states = np.empty((count, n), dtype=complex)
    for start in range(0, count, rows):
        g = block[:count - start]
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(g, words[start:start + rows]):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            generator.standard_normal(out=row)
        np.add(g[:, :n], 1j * g[:, n:], out=states[start:start + len(g)])
    norms = np.sqrt([v.real.dot(v.real) + v.imag.dot(v.imag) for v in states])  # np.linalg.norm's sum
    states /= norms[:, None]
    states.setflags(write=False)
    return states


def random_unit_directions(n: int, seed, count: int) -> np.ndarray:
    """``count`` unit rows of length ``n`` from the child of ``seed`` with spawn key ``(1,)``."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(1,)))
    v = rng.standard_normal((int(count), n, 2)).view(complex)[..., 0]  # (re, im) pairs
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_hermitian(n: int, seed, index=None, norm_bound=None) -> np.ndarray:
    """A random dense Hermitian matrix, optionally rescaled to ``||A||_2 <= norm_bound``."""
    rng = _rng(seed, index)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (m + m.conj().T) / 2.0
    if norm_bound is not None:
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if spectral > 0:
            a *= norm_bound / spectral
    return a
