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
seed state: the lanes together produce the stream's draws in order. J s is
the XOR of 32 entries of a table indexed by the bytes (8-bit digits) of s;
the entries are XORs of J's columns. A pass steps every lane of every
stream as many times as _PASS draws allow (at least once), writing the
outputs as rows of one array, then bins and tallies the whole array; the
streams of many datasets can share one call, and so every pass.

A draw u = k * 2**-53, k = x >> 11, counts in bin bisect_right(cum, u).
Since c * 2**53 is exact, that is the number of integer thresholds
ceil(cum_j * 2**53) that are <= k. A guide table (Chen & Asau, AIIE Trans. 6,
163 (1974)) gives that number for every k of a bucket k >> _SHIFT that holds
no threshold inside it; a draw in any other bucket is searched exactly among
the thresholds. So the counts are those of the scalar loop.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_LANE = 256  # draws per lane; lane k of a stream starts after k * _LANE steps
_PASS = 1 << 14  # most draws per pass, unless one step has more (binning holds ~18 B a draw)
_G = 10  # guide-table bits: a draw k < 2**53 is in bucket k >> _SHIFT
_SHIFT = 53 - _G
_U = np.uint64
_BYTES = np.arange(32)[:, None]
_jump_digits = None  # J by 8-bit digits, 32 x 256 x 4 words, built on first use


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


def _step(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One xoshiro256++ step of every lane of s (4 words x lanes), in place;
    returns the lanes' outputs, written into out when it is given."""
    s0, s1, s2, s3 = s
    result = np.add(s0, s3, out=out)
    high = result >> _U(41)
    result <<= _U(23)
    result |= high  # rotl(s0 + s3, 23)
    result += s0
    t = s1 << _U(17)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[:1:-1]  # s0 ^= s3, s1 ^= s2
    s2 ^= t
    np.right_shift(s3, _U(19), out=t)
    s3 <<= _U(45)
    s3 |= t  # rotl(s3, 45)
    return result


def _jump_table() -> np.ndarray:
    """J = T^_LANE by 8-bit digits: table[p, v] is J applied to the state whose
    bits 8 p .. 8 p + 7 hold v and whose other bits are 0 (4 words)."""
    global _jump_digits
    if _jump_digits is None:
        bit = np.arange(256)
        cols = np.zeros((4, 256), dtype=np.uint64)  # column j: the unit state e_j
        cols[bit // 64, bit] = _U(1) << (bit % 64).astype(np.uint64)
        for _ in range(_LANE):
            _step(cols)
        cols = cols.T.reshape(32, 8, 4)  # cols[p, b] = J e_(8 p + b)
        table = np.zeros((32, 256, 4), dtype=np.uint64)
        for b in range(8):
            table[:, 2 ** b:2 ** (b + 1)] = table[:, :2 ** b] ^ cols[:, b, None]
        _jump_digits = table
    return _jump_digits


def _jump(states: np.ndarray) -> np.ndarray:
    """J s for every state of states (streams x 4 words): each state advanced
    by _LANE steps, as the XOR of one table entry per 8-bit digit of s."""
    # byte p of a little-endian state holds its bits 8 p .. 8 p + 7
    digits = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(_jump_table()[_BYTES, digits.T], axis=0)


def _guide(cums: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Guide table and sorted keys s * 2**53 + ceil(cums[s][j] * 2**53) of settings s.

    Setting s's bin j is global bin j + s + (the number of keys of settings
    before s). table[s, b] is the global bin of every k of bucket b = k >> _SHIFT,
    or -1 when a threshold falls inside the bucket (past its first k)."""
    # clipped, setting s's keys stay in [s, s + 1] * 2**53; no count moves, as 0 <= k < 2**53
    thr = [np.ceil(np.ldexp(np.clip(c, 0.0, 1.0), 53)).astype(np.int64) for c in cums]
    row = np.arange(len(cums))
    keys = np.concatenate(thr) + (np.repeat(row, [len(t) for t in thr]) << 53)
    starts = np.arange(2 ** _G) << _SHIFT  # each bucket's first k
    table = np.empty((len(cums), 2 ** _G), dtype=np.int32)
    for s in row:
        table[s] = np.searchsorted(keys, (s << 53) + starts, "right") + s
    inside = keys[keys & (2 ** _SHIFT - 1) != 0]
    table.reshape(-1)[inside >> _SHIFT] = -1
    return table, keys


def _bins(table: np.ndarray, keys: np.ndarray, owner: np.ndarray, k: np.ndarray):
    """Global bins (see _guide) of draws k < 2**53 (int64) of settings owner, which
    broadcasts against k; a draw in an ambiguous bucket is searched among the keys."""
    index = k >> _SHIFT
    index += owner << _G
    bins = table.reshape(-1)[index].reshape(-1)
    amb = np.flatnonzero(bins < 0)
    if amb.size:
        at = np.unravel_index(amb, k.shape)
        s = np.broadcast_to(owner, k.shape)[at]
        bins[amb] = np.searchsorted(keys, (s << 53) + k[at], "right") + s
    return bins.reshape(k.shape)


def inverse_cdf_counts(seeds: list[int], cums: list[list[float]], totals: list[int]
                       ) -> list[np.ndarray]:
    """Outcome counts of totals[i] inverse-CDF draws from Xoshiro256PP(seeds[i]).

    Each draw u = next_double() of stream i counts in bin
    bisect_right(cums[i], u); cums[i] must be non-decreasing and end at 1.0.
    The result equals the scalar loop over the streams, but every stream is
    cut into lanes of _LANE draws, all lanes of all streams step together,
    and the draws are binned through one guide table (_guide, _bins).
    """
    if len(seeds) > 1023:  # _guide's keys s * 2**53 + threshold must fit in int64
        return (inverse_cdf_counts(seeds[:1023], cums[:1023], totals[:1023])
                + inverse_cdf_counts(seeds[1023:], cums[1023:], totals[1023:]))
    totals = np.asarray(totals, dtype=np.int64)
    lanes = -(-totals // _LANE)
    first = np.cumsum(lanes) - lanes
    owner = np.repeat(np.arange(len(totals)), lanes)
    left = totals[owner] - (np.arange(lanes.sum()) - first[owner]) * _LANE  # draws per lane
    short = np.nonzero(left < _LANE)[0]  # each stream's last lane, unless it is full
    state = np.empty((4, int(lanes.sum())), dtype=np.uint64)
    start = np.array([Xoshiro256PP(seed).s for seed in seeds], dtype=np.uint64)
    for lane in range(int(lanes.max())):
        if lane:
            start = _jump(start)
        live = lanes > lane
        state[:, first[live] + lane] = start[live].T
    table, keys = _guide([np.asarray(c, dtype=np.float64) for c in cums])
    spare = np.cumsum([len(c) for c in cums]) + np.arange(len(cums))  # "no draw" bins
    tally = np.zeros(spare[-1] + 1, dtype=np.int64)
    steps = int(min(_LANE, totals.max()))
    chunk = np.empty((min(steps, max(1, _PASS // state.shape[1])), state.shape[1]),
                     dtype=np.uint64)
    for j0 in range(0, steps, len(chunk)):
        rows = chunk[:steps - j0]
        for row in rows:
            _step(state, row)
        rows >>= _U(11)
        bins = _bins(table, keys, owner, rows.view(np.int64))
        past = j0 + np.arange(len(rows))[:, None] >= left[short]  # steps after a stream's end
        bins[:, short] = np.where(past, spare[owner[short]], bins[:, short])
        tally += np.bincount(bins.ravel(), minlength=len(tally))
        del bins  # not live through the next pass's steps
    return [tally[b - len(c):b] for b, c in zip(spare, cums)]
