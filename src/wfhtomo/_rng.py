"""Deterministic 64-bit PRNG for dataset sampling.

xoshiro256++ with splitmix64 seeding, implemented from the published update
rules so that datasets are byte-identical across language implementations:

    splitmix64: state += 0x9E3779B97F4A7C15
                z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                return z ^ (z >> 31)

    xoshiro256++: result = rotl64(s0 + s3, 23) + s0
                  t = s1 << 17
                  s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t
                  s3 = rotl64(s3, 45)

The four xoshiro state words come from four consecutive splitmix64 outputs.
Doubles are (x >> 11) * 2**-53, uniform on [0, 1).

``inverse_cdf_counts`` draws the same streams in numpy ``uint64`` lanes. The
xoshiro256++ state update T is linear over GF(2), so J = T^_LANE is a
256 x 256 bit matrix, and lane k of a stream starts at J^k applied to its
seed state: the lanes together produce the stream's draws in order.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_LANE = 256  # draws per lane; lane k of a stream starts after k * _LANE steps
_CHUNK = 8  # steps drawn per pass over the lanes (8 words of working set per lane)
_U = np.uint64
_BITS = np.arange(64, dtype=np.uint64)
_jump_rows = None  # J as 4 x 256 words, built on first use


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256PP:
    __slots__ = ("s",)

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self.s = [sm.next_u64() for _ in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s0 + s3) & _MASK, 23) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)


def setting_seed(seed: int, index: int) -> int:
    """Derived stream seed for one setting: splitmix64 hash of seed XOR index."""
    return SplitMix64((seed ^ index) & _MASK).next_u64()


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U(k)) | (x >> _U(64 - k))


def _step(s: np.ndarray) -> np.ndarray:
    """One xoshiro256++ step of every lane of s (4 words x lanes), in place;
    returns the lanes' outputs."""
    s0, s1, s2, s3 = s
    result = _rotl_lanes(s0 + s3, 23)
    result += s0
    t = s1 << _U(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[...] = _rotl_lanes(s3, 45)
    return result


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bits (..., 256) of 0 and 1 as words (..., 4), bit 64 w + b in word w."""
    return np.bitwise_or.reduce(bits.reshape(*bits.shape[:-1], 4, 64) << _BITS, axis=-1)


def _jump_table() -> np.ndarray:
    """J = T^_LANE by rows: word w of row i is rows[w, i], and bit i of J s
    is the parity of the AND of row i with s."""
    global _jump_rows
    if _jump_rows is None:
        bit = np.arange(256)
        cols = np.zeros((4, 256), dtype=np.uint64)  # column j: the unit state e_j
        cols[bit // 64, bit] = _U(1) << (bit % 64).astype(np.uint64)
        for _ in range(_LANE):
            _step(cols)
        # cols[:, j] = J e_j; bit b of word w of every column is row 64 w + b
        rows = [_pack((cols[w] >> b) & _U(1)) for w in range(4) for b in _BITS]
        _jump_rows = np.ascontiguousarray(np.array(rows).T)
    return _jump_rows


def _jump(states: np.ndarray) -> np.ndarray:
    """J s for every state of states (streams x 4 words): each state advanced
    by _LANE steps."""
    rows = _jump_table()
    x = rows[0] & states[:, 0, None]
    for w in range(1, 4):
        x ^= rows[w] & states[:, w, None]
    for k in (32, 16, 8, 4, 2, 1):  # parity of each word lands in its bit 0
        x ^= x >> _U(k)
    x &= _U(1)
    return _pack(x)


def inverse_cdf_counts(seeds: list[int], cums: list[list[float]], totals: list[int]
                       ) -> list[np.ndarray]:
    """Outcome counts of totals[i] inverse-CDF draws from Xoshiro256PP(seeds[i]).

    Each draw u = next_double() of stream i counts in bin
    bisect_right(cums[i], u); cums[i] must end at 1.0. The result equals the
    scalar loop over the streams, but every stream is cut into lanes of
    _LANE draws and all lanes of all streams step together.
    """
    totals = np.asarray(totals, dtype=np.int64)
    lanes = -(-totals // _LANE)
    first = np.cumsum(lanes) - lanes
    owner = np.repeat(np.arange(len(totals)), lanes)
    left = totals[owner] - (np.arange(lanes.sum()) - first[owner]) * _LANE  # draws per lane
    short = np.nonzero(left < _LANE)[0]  # each stream's last lane, unless it is full
    state = np.empty((4, int(lanes.sum())), dtype=np.uint64)
    start = np.array([Xoshiro256PP(seed).s for seed in seeds], dtype=np.uint64)
    for k in range(int(lanes.max())):
        if k:
            start = _jump(start)
        live = lanes > k
        state[:, first[live] + k] = start[live].T
    cums = [np.asarray(c, dtype=np.float64) for c in cums]
    tallies = [np.zeros(len(c) + 1, dtype=np.int64) for c in cums]  # last bin: no draw
    steps = int(min(_LANE, totals.max()))
    chunk = np.empty((state.shape[1], _CHUNK))
    for j0 in range(0, steps, _CHUNK):
        u = chunk[:, :min(_CHUNK, steps - j0)]
        for j in range(u.shape[1]):
            u[:, j] = _step(state) >> _U(11)
        u *= 2.0 ** -53
        past = j0 + np.arange(u.shape[1]) >= left[short, None]  # steps after a stream's end
        u[short] = np.where(past, 2.0, u[short])
        for i, (a, b) in enumerate(zip(first, first + lanes)):
            tallies[i] += np.bincount(np.searchsorted(cums[i], u[a:b].ravel(), "right"),
                                      minlength=len(tallies[i]))
    return [t[:-1] for t in tallies]
