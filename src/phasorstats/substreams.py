"""Random substreams (seed, p), computed for many indices p at once.

``np.random.default_rng([seed, p])`` hashes the entropy words of (seed, p)
into four 64-bit words with ``SeedSequence`` (O'Neill's ``seed_seq`` hash
with numpy's constants) and seeds a PCG64 generator with them (O'Neill,
"PCG: a family of simple fast space-efficient statistically good algorithms
for random number generation", 2014). Building one such generator per
permutation costs more than the statistics of that permutation, so this
module runs the same hash and the same 128-bit LCG in whole-array numpy
operations over an array of indices p. Each row it returns holds the bits
that the generator of (seed, p_i) would draw:

- ``sign_draws(seed, p, n)``: ``default_rng([seed, p_i]).integers(0, 2, size=n)``
- ``permutations(seed, p, n)``: ``default_rng([seed, p_i]).permutation(n)``

NEP 19 does not promise that Generator streams stay fixed across numpy
versions; ``tests/test_substreams.py`` compares both functions with numpy's
generators and fails if the installed numpy draws other bits.
"""

from __future__ import annotations

import operator

import numpy as np

from .exceptions import DomainError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_LO32 = np.uint64(_M32)

# SeedSequence hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: 32-bit halves a rejected permutation draw searches at once
_WINDOW = 8

#: Most outputs per row computed by one jump of the LCG
_STEP_COLUMNS = 8


def check_seed(seed) -> int:
    """The seed as a Python int; a ``DomainError`` unless it is a
    non-negative integer, which is what ``SeedSequence`` accepts."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}") from None
    if value < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return value


def _indices(p) -> np.ndarray:
    p = np.asarray(p)
    if p.ndim != 1 or p.dtype.kind not in "iu":
        raise DomainError("substream indices must be a 1-d integer array")
    if p.size and (p.min() < 0 or p.max() > _M32):
        # an index past 2^32 - 1 is two entropy words, not one
        raise DomainError("substream indices must lie in [0, 2^32)")
    return p.astype(np.uint32)


def _seed_words(seed: int, p: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, p_i]).generate_state(4, np.uint64)`` for every
    p_i, as four uint64 arrays."""
    seed = check_seed(seed)
    # entropy: the little-endian 32-bit words of seed (one word for 0), then p
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    entropy = [np.full(p.shape, w, dtype=np.uint32) for w in words] + [p]
    zero = np.zeros(p.shape, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(extra))

    hash_const = _INIT_B
    state = []
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # uint64 word t is the little-endian pair of 32-bit words 2t, 2t + 1
    return [state[2 * t] | (state[2 * t + 1] << np.uint64(32)) for t in range(4)]


# 128-bit unsigned integers are (hi, lo) pairs of uint64 arrays; numpy's
# uint64 arithmetic wraps, which gives every low half directly.

def _mulhi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product x y, on 32-bit limbs."""
    x0, x1 = x & _LO32, x >> np.uint64(32)
    y0, y1 = y & _LO32, y >> np.uint64(32)
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> np.uint64(32)) + (p01 & _LO32) + (p10 & _LO32)
    return (x1 * y1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _mul(a, b):
    """a b mod 2^128."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add(a, b):
    """a + b mod 2^128."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _constant(value: int):
    return np.uint64(value >> 64), np.uint64(value & _M64)


class _Streams:
    """PCG64 generators seeded from (seed, p_i), one per row, stepped in
    bulk; the state and the increment are (rows, 1) columns."""

    def __init__(self, seed: int, p: np.ndarray):
        w0, w1, w2, w3 = (w[:, None] for w in _seed_words(seed, p))
        # initstate = (w0, w1), initseq = (w2, w3); inc = initseq << 1 | 1;
        # state = 0, step, add initstate, step
        self.inc = ((w2 << np.uint64(1)) | (w3 >> np.uint64(63)),
                    (w3 << np.uint64(1)) | np.uint64(1))
        self.state = self._step(_add(self.inc, (w0, w1)), 1)

    def _step(self, state, m: int):
        """The states m steps after ``state`` (rows, columns):
        A^m state + (1 + A + ... + A^(m-1)) inc, A the PCG multiplier."""
        power, total = 1, 0
        for _ in range(m):
            total = (total + power) & _M128
            power = power * _PCG_MULT & _M128
        return _add(_mul(state, _constant(power)),
                    _mul(self.inc, _constant(total)))

    def outputs(self, k: int) -> np.ndarray:
        """The next k 64-bit outputs of every row, (rows, k): each output
        steps the state and applies XSL-RR to it."""
        rows = self.state[0].shape[0]
        hi = np.empty((rows, k), dtype=np.uint64)
        lo = np.empty((rows, k), dtype=np.uint64)
        if k:
            # the states m + 1..m + t steps on are those m - t + 1..m steps
            # on, stepped t more times: t doubles up to _STEP_COLUMNS, which
            # bounds the temporaries
            hi[:, :1], lo[:, :1] = self._step(self.state, 1)
            m = 1
            while m < k:
                t = min(m, k - m, _STEP_COLUMNS)
                hi[:, m:m + t], lo[:, m:m + t] = self._step(
                    (hi[:, m - t:m], lo[:, m - t:m]), t)
                m += t
            self.state = hi[:, -1:].copy(), lo[:, -1:].copy()
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of hi, in place
        x = hi ^ lo
        rot = np.right_shift(hi, np.uint64(58), out=hi)
        low = np.right_shift(x, rot, out=lo)
        np.subtract(np.uint64(64), rot, out=rot)
        rot &= np.uint64(63)
        x <<= rot
        x |= low
        return x

    def halves(self, k: int) -> np.ndarray:
        """The next 2k 32-bit draws of every row, (rows, 2k): the low then
        the high half of each 64-bit output, as ``next_uint32`` gives them."""
        return self.outputs(k).astype("<u8", copy=False).view("<u4")


def sign_draws(seed: int, p, n: int) -> np.ndarray:
    """Rows ``default_rng([seed, p_i]).integers(0, 2, size=n)`` for every
    substream index p_i, as a (len(p), n) uint8 array.

    A draw in {0, 1} is bit 31 of successive 32-bit halves of the PCG64
    output, low half first (Lemire's method never rejects for two values).
    """
    p = _indices(p)
    k = (n + 1) // 2
    out = _Streams(seed, p).outputs(k)
    bits = np.empty((p.size, 2 * k), dtype=np.uint8)
    bits[:, 0::2] = (out >> np.uint64(31)) & np.uint64(1)
    bits[:, 1::2] = out >> np.uint64(63)
    return bits[:, :n]


def permutations(seed: int, p, n: int) -> np.ndarray:
    """Rows ``default_rng([seed, p_i]).permutation(n)`` for every substream
    index p_i, as a (len(p), n) integer array.

    numpy shuffles ``arange(n)`` by Fisher-Yates for i = n - 1 down to 1,
    swapping entry i with j drawn by ``random_interval(i)``: successive
    32-bit halves masked to 2^bit_length(i) - 1, rejecting values above i.
    Every row keeps its own cursor into its halves. At each i all rows try
    the half at their cursor; a row that rejects it takes the first accepted
    half of the next ``_WINDOW``.
    """
    p = _indices(p)
    rows = p.size
    perm = np.tile(np.arange(n), (rows, 1))
    if n < 2 or rows == 0:
        return perm
    streams = _Streams(seed, p)
    steps = [(i, (1 << i.bit_length()) - 1) for i in range(n - 1, 0, -1)]
    # a masked draw is accepted with chance q = (i + 1) / (mask + 1) >= 1/2:
    # room for the mean number of draws, three standard deviations and a
    # window; a row that needs more extends every row's stream
    mean = sum((m + 1) / (i + 1) for i, m in steps)
    sd = sum((1 - (i + 1) / (m + 1)) * ((m + 1) / (i + 1)) ** 2 for i, m in steps) ** 0.5
    halves = streams.halves(int(mean + 3 * sd + _WINDOW) // 2 + 1)
    cursor = np.zeros(rows, dtype=np.intp)
    window = np.arange(_WINDOW)
    flat_perm = perm.reshape(-1)
    row_start = np.arange(rows) * n
    start = np.arange(rows) * halves.shape[1]
    for i, mask in steps:
        j = halves.reshape(-1)[start + cursor] & np.uint32(mask)
        cursor += 1
        retry = np.flatnonzero(j > i)
        while retry.size:
            if cursor[retry].max() + _WINDOW > halves.shape[1]:
                # rare: extend every row's stream
                halves = np.concatenate([halves, streams.halves(_WINDOW)], axis=1)
                start = np.arange(rows) * halves.shape[1]
            at = start[retry] + cursor[retry]
            value = halves.reshape(-1)[at[:, None] + window] & np.uint32(mask)
            ok = value <= i
            first = ok.argmax(axis=1)
            found = ok[np.arange(retry.size), first]
            j[retry] = value[np.arange(retry.size), first]
            cursor[retry] += np.where(found, first + 1, _WINDOW)
            retry = retry[~found]
        at = row_start + j
        swapped = flat_perm[at]
        flat_perm[at] = perm[:, i]
        perm[:, i] = swapped
    return perm
