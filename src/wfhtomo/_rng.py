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

``inverse_cdf_counts`` draws the same streams in numpy ``uint64`` lanes of
_LANE draws. The state update T is linear over GF(2), so J = T^_LANE and
J_B = J^_BLOCK are 256 x 256 bit matrices, and lane a + _BLOCK * b of a stream
starts at J_B^b J^a applied to its seed state. M s is the XOR of one row of
M's digit table per 4-bit digit of s (64 x 16 rows, 32 KiB for each of J and
J_B). A pass steps every lane of every stream as many times as _PASS
draws allow, then bins and tallies the pass at once. Only a stream's tally
matters, not its draws' order, so any lane length gives the same counts.

A draw u = k * 2**-53, k = x >> 11, counts in bin bisect_right(cum, u).
Since c * 2**53 is exact, that is the number of integer thresholds
ceil(cum_j * 2**53) that are <= k. A guide table (Chen & Asau, AIIE Trans. 6,
163 (1974)), one row per distinct cumulative table, gives that number for
every k of a bucket (the top _G bits of x) that holds no threshold inside it;
a draw in any other bucket is searched exactly among the thresholds. So the
counts are those of the scalar loop.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_LANE = 128  # draws per lane; lane k of a stream starts after k * _LANE steps
_BLOCK = 16  # lanes per jump block, a power of 2
_PASS = 12288  # most draws per pass, unless one step has more (binning holds ~19 B a draw)
_G = 10  # guide-table bits: a draw k < 2**53 is in bucket k >> _SHIFT
_SHIFT = 53 - _G
_U = np.uint64
# the shift amounts of _step and _bins, as 0-d arrays (see _step)
_S11, _S17, _S19, _S23, _S41, _S45, _S_BUCKET = (np.array(k, dtype=_U)
                                                 for k in (11, 17, 19, 23, 41, 45, 64 - _G))
_DIGITS = np.arange(64)[:, None] << 4  # the row of (digit p, value 0) in a digit table
_jumps = None  # the digit tables of J and J_B, built on first use


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


def _step(s: np.ndarray, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """One xoshiro256++ step of every lane of s (4 words x lanes), in place;
    returns the lanes' outputs, written into out when it is given.

    scratch, a lane-sized uint64 row, holds both shifted temporaries, so a loop
    of steps allocates nothing; without it each step allocates the row. Every
    shift amount is a 0-d array (_S17 ...): a ufunc converts a numpy-scalar
    operand to an array on every call, which costs about as much as shifting a
    row of 2.5k lanes, the quick start's size."""
    s0, s1, s2, s3 = s
    result = np.add(s0, s3, out=out)
    high = np.right_shift(result, _S41, out=scratch)
    result <<= _S23
    result |= high  # rotl(s0 + s3, 23)
    result += s0
    t = np.left_shift(s1, _S17, out=high)
    s[2:] ^= s[:2]  # s2 ^= s0, s3 ^= s1
    s[:2] ^= s[:1:-1]  # s0 ^= s3, s1 ^= s2
    s2 ^= t
    np.right_shift(s3, _S19, out=t)
    s3 <<= _S45
    s3 |= t  # rotl(s3, 45)
    return result


def _digit_table(cols: np.ndarray) -> np.ndarray:
    """The bit matrix of columns cols (256 states x 4 words) by 4-bit digits: row 16 p + v
    is its image of the state whose digit p holds v, other bits 0. Digit q < 32 is bits
    8 q .. 8 q + 3 and digit 32 + q bits 8 q + 4 .. 8 q + 7 (byte q's low and high halves)."""
    cols = cols.reshape(32, 2, 4, 4).transpose(1, 0, 2, 3).reshape(64, 4, 4)  # digit p's bits
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for b in range(4):
        table[:, 2 ** b:2 ** (b + 1)] = table[:, :2 ** b] ^ cols[:, b, None]
    return table.reshape(1024, 4)


def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """Digit tables of J = T^_LANE and of J_B = J^_BLOCK, by squaring J."""
    global _jumps
    if _jumps is None:
        bit = np.arange(256)  # column j: the unit state e_j, whose word j // 64 holds bit j % 64
        cols = np.where(bit // 64 == np.arange(4)[:, None], _U(1) << (bit % 64).astype(_U), _U(0))
        for _ in range(_LANE):
            _step(cols)
        cols = cols.T
        lane = block = _digit_table(cols)
        for _ in range(_BLOCK.bit_length() - 1):
            cols = _jump(cols, block)  # M M e_j: the columns of M^2
            block = _digit_table(cols)
        _jumps = lane, block
    return _jumps


def _jump(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """M s for each state s (n x 4 words), table M's digit table: the XOR of one row per
    digit of s, gathered for at most 64 states at once."""
    # row q of byte: bits 8 q .. 8 q + 7 of each little-endian state
    byte = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    digits = np.concatenate((byte & 15, byte >> 4))
    return np.concatenate([np.bitwise_xor.reduce(np.take(table, d + _DIGITS, axis=0), axis=0)
                           for d in np.split(digits, range(64, digits.shape[1], 64), axis=1)])


def _lanes(seeds: list[int], totals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Started lanes (4 words x lanes; full lanes lane after lane, then each stream's
    short last lane), each lane's stream, and the short lanes' draws. Lane l of stream i,
    column cols[i, l], is jumped by J from lane l - 1 if l < _BLOCK, else by J_B from l - _BLOCK."""
    left = np.minimum(totals[:, None] - np.arange(-(-totals.max() // _LANE)) * _LANE, _LANE)
    full, short = left == _LANE, (left > 0) & (left < _LANE)
    cols = np.full(left.shape, -1)
    cols.T[full.T] = np.arange(full.sum())
    cols[short] = full.sum() + np.arange(short.sum())
    owner = np.concatenate((np.nonzero(full.T)[1], np.nonzero(short)[0]))
    state = np.empty((4, len(owner)), dtype=np.uint64)
    live = cols[:, 0] >= 0
    state[:, cols[live, 0]] = np.array([Xoshiro256PP(s).s for s in seeds], dtype=_U)[live].T
    lane, block = _jump_tables()
    for l, w, table in ([(a, 1, lane) for a in range(1, min(_BLOCK, cols.shape[1]))]
                        + [(b, _BLOCK, block) for b in range(_BLOCK, cols.shape[1], _BLOCK)]):
        dst, src = cols[:, l:l + w], cols[:, l - w:l]
        live = dst >= 0
        state[:, dst[live]] = _jump(state[:, src[:, :dst.shape[1]][live]].T, table).T
    return state, owner, left[short]


def _guide(cums: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Guide table and sorted keys s * 2**53 + ceil(cums[s][j] * 2**53) of tables s. Table
    s's bin j is global bin j + s + (the number of keys of tables before s); table[s, b] is
    the global bin of every k of bucket b = k >> _SHIFT, or -1 if a threshold splits it."""
    # clipped, table s's keys stay in [s, s + 1] * 2**53; no count moves, as 0 <= k < 2**53
    thr = np.ceil(np.ldexp(np.clip(np.concatenate(cums), 0.0, 1.0), 53)).astype(np.int64)
    row = np.arange(len(cums))
    keys = thr + (np.repeat(row, [len(c) for c in cums]) << 53)
    # key c is at most the first k of flat bucket (s << _G) + b from -(-key_c >> _SHIFT) on
    edges = np.diff(-(-keys >> _SHIFT), prepend=0, append=len(cums) << _G)
    table = np.repeat(np.arange(len(keys) + 1, dtype=np.int32), edges).reshape(len(cums), -1)
    table += row[:, None]
    inside = keys[keys & (2 ** _SHIFT - 1) != 0]
    table.reshape(-1)[inside >> _SHIFT] = -1
    return table, keys


def _bins(table: np.ndarray, keys: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Global bins (see _guide) of draws k = x >> 11 (x uint64) from tables rows >> _G: the
    bucket is x's top _G bits; only a draw in an ambiguous bucket is searched by its k."""
    index = np.right_shift(x, _S_BUCKET).view(np.int64)
    index += rows
    bins = np.take(table, index)
    amb = np.flatnonzero(bins < 0)
    if amb.size:
        s = index.reshape(-1)[amb] >> _G
        k = (x.reshape(-1)[amb] >> _S11).view(np.int64)
        bins.reshape(-1)[amb] = np.searchsorted(keys, (s << 53) + k, "right") + s
    return bins


def inverse_cdf_counts(seeds: list[int], cums: list[list[float]], totals: list[int]
                       ) -> list[np.ndarray]:
    """Outcome counts of totals[i] inverse-CDF draws from Xoshiro256PP(seeds[i]).

    Each draw u = next_double() of stream i counts in bin bisect_right(cums[i], u);
    cums[i] must be non-decreasing and end at 1.0. The result equals the scalar loop,
    but all lanes (_lanes) of all streams step together, and each draw is binned by
    its table's guide row (_guide, _bins), then moved into its stream's tally.
    A quick-start call steps 2.5k-5k lanes, where a numpy call's fixed cost is about
    as large as its arithmetic: so one scratch row, allocated once, serves every
    step's temporaries, and the shift operands are 0-d arrays (see _step).
    """
    if len(seeds) > 1023:  # _guide's keys s * 2**53 + threshold must fit in int64
        return (inverse_cdf_counts(seeds[:1023], cums[:1023], totals[:1023])
                + inverse_cdf_counts(seeds[1023:], cums[1023:], totals[1023:]))
    cums = [np.asarray(c, dtype=np.float64) for c in cums]
    distinct = {}  # each distinct table's bytes -> its guide row
    row = np.array([distinct.setdefault(c.tobytes(), len(distinct)) for c in cums])
    tables = [np.frombuffer(c) for c in distinct]
    table, keys = _guide(tables)
    totals = np.asarray(totals, dtype=np.int64)
    state, owner, left = _lanes(seeds, totals)
    spare = np.cumsum([len(c) + 1 for c in cums]) - 1  # each stream's "no draw" bin
    first = np.cumsum([len(c) + 1 for c in tables]) - 1 - [len(c) for c in tables]
    rows, shift = (row << _G)[owner], (spare - [len(c) for c in cums] - first[row])[owner]
    tally = np.zeros(spare[-1] + 1, dtype=np.int64)
    steps = int(min(_LANE, totals.max()))
    chunk = np.empty((min(steps, max(1, _PASS // len(owner))), len(owner)), dtype=np.uint64)
    scratch = np.empty(len(owner), dtype=np.uint64)  # every step's temporaries (_step)
    for j0 in range(0, steps, len(chunk)):
        x = chunk[:steps - j0]
        for r in x:
            _step(state, r, scratch)
        bins = np.add(_bins(table, keys, rows, x), shift, dtype=np.int64)  # own tallies
        if left.size and j0 + len(x) > left.min():
            past = j0 + np.arange(len(x))[:, None] >= left  # steps after a stream's end
            bins[:, len(owner) - left.size:][past] = spare[-1]
        tally += np.bincount(bins.ravel(), minlength=len(tally))
        del bins  # not live through the next pass's binning
    return [tally[b - len(c):b] for b, c in zip(spare, cums)]
