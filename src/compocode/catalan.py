"""Catalan-Bertrand strings, ranking/unranking, and the reconstruction codebooks.

A Catalan-Bertrand (CB) string has strictly more 0s than 1s in every prefix
(so its first bit is 0).  cb_count(m, i) counts CB strings of length m with i
ones; the closed form is C(m-1, i) - C(m-1, i-1) and the total over i is
C(m-1, floor((m-1)/2)).

The reconstruction codebook of shift t >= 0 and even length n consists of the
strings with a 0^t prefix, a 1^t suffix, and a partition of the remaining
first-half positions {t+1 .. n/2} into a set I (mirror bit differs) carrying a
CB string and its complement (mirror bit equal) carrying free bits.  Position
t+1 always belongs to I, which is what gives every prefix of length
j in [t+1, n/2] at least t+1 more 0s than its mirrored suffix.  For t = 0 this
is exactly the codebook with s_1 = 0, s_n = 1; odd lengths (t = 0 only) are
obtained by doubling: a free middle bit is inserted into an even codeword.

All ranks are 0-based.  The encoder is a bijection obtained by mixed-radix
composition of (1-count block, partition rank, free bits, CB rank, middle bit).
The decoder reads a string in one pass: a walk over the mirrored pairs of the
first half collects the set I, the free bits and the CB string, and checks
the bits, the 0^t/1^t ends, t+1 in I and CB-ness once each, so a non-member
is the string the walk gives no rank.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb


def cb_count(m: int, i: int) -> int:
    """Number of CB strings of length m containing i ones (f_m(i))."""
    if i < 0 or m < 0:
        return 0
    if m == 0:
        return 1 if i == 0 else 0
    if 2 * i >= m:
        return 0
    return comb(m - 1, i) - (comb(m - 1, i - 1) if i >= 1 else 0)


@lru_cache(maxsize=None)
def cb_total(m: int) -> int:
    """Number of CB strings of length m: C(m-1, floor((m-1)/2))."""
    if m == 0:
        return 1
    return comb(m - 1, (m - 1) // 2)


def is_catalan_bertrand(s: str) -> bool:
    zeros = ones = 0
    for ch in s:
        if ch == "0":
            zeros += 1
        else:
            ones += 1
        if zeros <= ones:
            return False
    return True


def cb_rank(s: str) -> int:
    """0-based rank of a CB string; blocks ordered by 1-count ascending.

    Scanning s_m down to s_1 with l ones still unplaced, a 0 at position p is
    preceded (within the block, from the top) by the cb_count(p-1, l-1)
    strings that place a 1 there instead.
    """
    if not is_catalan_bertrand(s):
        raise ValueError("not a Catalan-Bertrand string")
    m = len(s)
    i = s.count("1")
    ind = cb_count(m, i)
    l = i
    for p in range(m, 0, -1):
        if s[p - 1] == "0":
            ind -= cb_count(p - 1, l - 1)
        else:
            l -= 1
    # the blocks below telescope: sum_{j<i} cb_count(m, j) = C(m-1, i-1)
    return (comb(m - 1, i - 1) if i else 0) + (ind - 1)


def cb_unrank(m: int, rank: int) -> str:
    if not (0 <= rank < cb_total(m)):
        raise ValueError(f"rank {rank} out of range for length {m}")
    if m == 0:
        return ""
    i = below = 0  # block i spans ranks C(m-1, i-1) .. C(m-1, i) - 1
    while rank >= (end := comb(m - 1, i)):
        i, below = i + 1, end
    target = rank - below + 1  # 1-based index within the block
    ind = cb_count(m, i)
    l = i
    bits = []
    for p in range(m, 0, -1):
        c = cb_count(p - 1, l - 1) if l > 0 else 0
        if l > 0 and target > ind - c:
            bits.append("1")
            l -= 1
        else:
            bits.append("0")
            ind -= c
    return "".join(reversed(bits))


# -- partitions (subsets of [m]) in combinatorial-number-system order -------


def partition_rank(m: int, subset) -> int:
    """0-based rank of an i-subset of {1..m} among the i-subsets, in the
    combinatorial number system: the inverse of partition_unrank(m, i, .)."""
    ell = sorted(subset)
    if ell and (ell[0] < 1 or ell[-1] > m):
        raise ValueError("subset out of range")
    if len(set(ell)) != len(ell):
        raise ValueError("subset has repeats")
    return sum(comb(e - 1, j) for j, e in enumerate(ell, 1))


def partition_unrank(m: int, i: int, within: int):
    """The rank-`within` i-subset of {1..m}: the inverse of partition_rank."""
    v = comb(m, i)  # comb(ell, j), always > r
    if not 0 <= within < v:
        raise ValueError("rank out of range")
    out = []
    r, ell = within, m
    for j in range(i, 0, -1):
        # walk down to the smallest ell with comb(ell, j) > r >= comb(ell-1, j);
        # then r - comb(ell-1, j) < comb(ell-1, j-1), so the next ell < ell
        while (below := v * (ell - j) // ell) > r:  # comb(ell-1, j)
            ell, v = ell - 1, below
        r -= below
        out.append(ell)
        ell, v = ell - 1, v * j // ell  # comb(ell-1, j-1)
    return out[::-1]


# -- codebook sizes and parameters -----------------------------------------


@lru_cache(maxsize=None)
def sr_size(n: int, t: int = 0) -> int:
    """Codebook size for shift t and length n (odd n allowed only for t=0)."""
    if t < 0:
        raise ValueError("shift must be >= 0")
    if n % 2 == 1:
        if t != 0:
            raise ValueError("odd lengths only supported for shift 0")
        if n < 3:
            raise ValueError("length too short")
        return 2 * sr_size(n - 1, 0)
    if n < 2 * t + 2:
        raise ValueError("length too short for the requested shift")
    return _block_offsets(n // 2 - t - 1)[-1]


# bounded: a table holds about n/2 big ints, and a process needs only those
# of the few lengths its parameter searches try
@lru_cache(maxsize=8)
def _block_offsets(hf: int) -> tuple[int, ...]:
    """First rank of each 1-count block, then the codebook size: hf free
    first-half positions (t+2 .. n/2), i of them joining position t+1 in the
    CB set I, the rest free bits."""
    return tuple(accumulate((comb(hf, i) * 2 ** (hf - i) * cb_total(i + 1)
                             for i in range(hf + 1)), initial=0))


@lru_cache(maxsize=None)
def sr_params(k: int, t: int = 0):
    """Smallest codeword length n with codebook size >= 2^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # a codeword fixes 2t+2 bits (0^t, 1^t, s_{t+1} = 0 and its mirror), so
    # sr_size(n, t) <= 2^(n-2-2t) < 2^k below k+2+2t; t >= 1 takes even n
    n = k + 2 + 2 * t + (k % 2 if t else 0)
    while sr_size(n, t) < 2 ** k:
        n += 1 if t == 0 else 2
    return n


# -- the bijective encoder --------------------------------------------------


def _encode_even(ind: int, n: int, t: int):
    half = n // 2
    hf = half - t - 1
    offsets = _block_offsets(hf)
    i = bisect_right(offsets, ind) - 1
    if i > hf:
        raise ValueError("info rank exceeds codebook size")
    ind -= offsets[i]
    cbt = cb_total(i + 1)
    nfree = hf - i
    p, rem = divmod(ind, (2 ** nfree) * cbt)
    v, rc = divmod(rem, cbt)
    extra = partition_unrank(hf, i, p)  # subset of {1..hf} -> positions t+2..half
    i_half = [t + 1] + [t + 1 + e for e in extra]
    cb = cb_unrank(i + 1, rc)
    in_i = set(i_half)
    free_pos = [j for j in range(t + 1, half + 1) if j not in in_i]
    free_bits = format(v, f"0{nfree}b") if nfree else ""
    s = ["?"] * n
    for j in range(1, t + 1):
        s[j - 1] = "0"
        s[n - j] = "1"
    for pos, bit in zip(i_half, cb):
        s[pos - 1] = bit
        s[n - pos] = "1" if bit == "0" else "0"
    for pos, bit in zip(free_pos, free_bits):
        s[pos - 1] = bit
        s[n - pos] = bit
    return "".join(s)


def sr_encode(info: str, t: int = 0, n: int | None = None) -> str:
    """Map a k-bit info string bijectively into the shift-t codebook."""
    k = len(info)
    if set(info) - {"0", "1"}:
        raise ValueError("info must be a bit string")
    if n is None:
        n = sr_params(k, t)
    if sr_size(n, t) < 2 ** k:
        raise ValueError("info rank exceeds codebook size")
    ind = int(info, 2) if info else 0
    if n % 2 == 1:
        mid = ind & 1
        inner = _encode_even(ind >> 1, n - 1, 0)
        half = (n - 1) // 2
        return inner[:half] + str(mid) + inner[half:]
    return _encode_even(ind, n, t)


def sr_decode(codeword: str, k: int, t: int = 0) -> str:
    """Inverse of sr_encode; raises ValueError on non-codewords."""
    ind = _rank(codeword, t)
    if ind is None:
        raise ValueError("membership violation: not a codeword")
    if ind >= 2 ** k:
        raise ValueError("codeword outside the 2^k information range")
    return format(ind, f"0{k}b")


def is_member(s: str, t: int = 0) -> bool:
    return _rank(s, t) is not None


def _rank(s: str, t: int) -> int | None:
    """Rank of s in the shift-t codebook of its length; None for a non-member."""
    n = len(s)
    half = n // 2
    if n % 2 == 1:  # drop the free middle bit
        inner = None if t else _rank(s[:half] + s[half + 1:], 0)
        if inner is None or s[half] not in ("0", "1"):
            return None
        return inner << 1 | int(s[half])
    if set(s) - {"0", "1"} or not 0 <= t < half or s[:t] != "0" * t \
            or s[n - t:] != "1" * t or s[t] == s[n - 1 - t]:
        return None
    # positions t+2 .. half against their mirrors n-t-1 .. half+1 (1-based)
    extra, cb, free = [], [s[t]], []
    for e, (x, y) in enumerate(zip(s[t + 1:half], reversed(s[half:n - t - 1])), 1):
        if x != y:
            extra.append(e)
            cb.append(x)
        else:
            free.append(x)
    try:
        rc = cb_rank("".join(cb))  # global rank: the radix slot spans cb_total(i+1)
    except ValueError:  # not a CB string
        return None
    hf, i = half - t - 1, len(extra)
    v = int("".join(free), 2) if free else 0
    ind = (partition_rank(hf, extra) * 2 ** (hf - i) + v) * cb_total(i + 1) + rc
    return _block_offsets(hf)[i] + ind
