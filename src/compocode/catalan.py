"""Catalan-Bertrand strings and the reconstruction codebooks, ranked by one walk.

A Catalan-Bertrand (CB) string has strictly more 0s than 1s in every prefix
(so its first bit is 0).  cb_count(m, i) counts CB strings of length m with i
ones: by the ballot theorem it is C(m, i)(m - 2i)/m, and the total over i is
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
composition of (1-count block, I mask, free bits, CB string, middle bit).
One colex lattice-path walk ranks and unranks both paths of a codeword, the
I mask over positions t+2 .. n/2 and the CB string: reading a string from
its top position down, it adds at each 1 the admissible completions that put
a 0 there, all of them for the mask and the ballot number for the CB string,
with the binomial carried from position to position by ratio.  The block
sizes are stepped by ratio in the same way, so no binomial is computed from
scratch inside a loop.  The decoder reads a string in one pass: the XOR of
the first half with the reversed second half is the I mask, and the bits,
the 0^t/1^t ends, t+1 in I and CB-ness are checked once each, so a
non-member is the string that gets no rank.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb


def cb_count(m: int, i: int) -> int:
    """Number of CB strings of length m containing i ones (f_m(i)): the
    ballot number C(m, i)(m - 2i)/m."""
    if m == 0:
        return int(i == 0)
    if not 0 <= 2 * i < m:
        return 0
    return comb(m, i) * (m - 2 * i) // m


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


def _walk(m: int, i: int, ballot: bool, bits: str | None = None,
          target: int = 0) -> tuple[int, str]:
    """The colex walk over the length-m bit strings with i ones.

    Going down from position m, at a 1 in position p with j ones in
    positions 1..p, the rank gains the admissible completions that put a 0
    there instead.  For a subset (ballot=False) that is all C(P, j) of them,
    P = p - 1; for a CB string it is the ballot number C(P, j)(P - 2j)/P,
    and the rank counts within the string's 1-count block.  C(P, j) is
    carried from position to position by ratio.  Reading `bits`, the walk
    returns (rank, bits); with bits=None it writes the string of rank
    `target` and returns (target, string).
    """
    out = ["0"] * m
    rank, j = 0, i
    c = comb(m - 1, i) if m else 0  # C(P, j)
    for P in range(m - 1, 0, -1):
        z = c * (P - 2 * j) // P if ballot else c  # completions with a 0 at p
        if (bits[P] == "1") if bits is not None else (rank + z <= target):
            out[P] = "1"
            rank += z
            c, j = c * j // P, j - 1
        else:
            c = c * (P - j) // P
    if j:  # a 1 left over sits at position 1, where no completion puts a 0
        out[0] = "1"
    return rank, "".join(out)


def cb_rank(s: str) -> int:
    """0-based rank of a CB string; blocks ordered by 1-count ascending,
    colex order within a block."""
    if not is_catalan_bertrand(s):
        raise ValueError("not a Catalan-Bertrand string")
    m, i = len(s), s.count("1")
    # the blocks below telescope: sum_{j<i} cb_count(m, j) = C(m-1, i-1)
    return (comb(m - 1, i - 1) if i else 0) + _walk(m, i, True, s)[0]


def cb_unrank(m: int, rank: int) -> str:
    if not (0 <= rank < cb_total(m)):
        raise ValueError(f"rank {rank} out of range for length {m}")
    i, below, end = 0, 0, 1  # block i spans ranks C(m-1, i-1) .. C(m-1, i) - 1
    while rank >= end:
        i, below, end = i + 1, end, end * (m - 1 - i) // (i + 1)
    return _walk(m, i, True, target=rank - below)[1]


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
    # hf = n/2 - t - 1: shift t at length n has the blocks of shift 0 at n - 2t
    return sr_size(n - 2 * t, 0) if t else sum(_block_sizes(n // 2 - 1))


def _block_sizes(hf: int):
    """The size of each 1-count block: hf free first-half positions
    (t+2 .. n/2), i of them joining position t+1 in the CB set I, the rest
    free bits.  Block i holds C(hf, i) masks, 2^(hf-i) free words and
    cb_total(i+1) = C(i, i//2) CB strings; from block i to i+1 the masks
    grow by (hf-i)/(i+1), the free words halve and the central binomial
    doubles (i odd) or grows by (i+1)/(i//2+1) (i even)."""
    size = 1 << hf
    for i in range(hf + 1):
        yield size
        size = size * (hf - i) // (i + 1 if i % 2 else i + 2)


# bounded: a table holds about n/2 big ints, and a process encodes at only
# a few lengths
@lru_cache(maxsize=8)
def _block_offsets(hf: int) -> tuple[int, ...]:
    """First rank of each 1-count block, then the codebook size."""
    return tuple(accumulate(_block_sizes(hf), initial=0))


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
    # sr_encode checked ind < sr_size, the last offset, so i <= hf
    i = bisect_right(offsets, ind) - 1
    cbt = cb_total(i + 1)
    nfree = hf - i
    p, rem = divmod(ind - offsets[i], cbt << nfree)
    v, rc = divmod(rem, cbt)
    # the I mask over positions t+1 .. half: t+1, then i of the hf others
    mask = "1" + _walk(hf, i, False, target=p)[1]
    cb = iter(cb_unrank(i + 1, rc))
    free = iter(format(v, f"0{nfree}b") if nfree else "")
    head = "".join(next(cb) if b == "1" else next(free) for b in mask)
    # a mirror bit differs from its first-half bit exactly on I
    tail = format(int(head, 2) ^ int(mask, 2), f"0{half - t}b")
    return "0" * t + head + tail[::-1] + "1" * t


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
            or s[n - t:] != "1" * t:
        return None
    # positions t+1 .. half against their mirrors: the mask is 1 on I
    head = s[t:half]
    mask = format(int(head, 2) ^ int(s[half:n - t][::-1], 2), f"0{half - t}b")
    if mask[0] == "0":  # t+1 not in I
        return None
    cb = "".join(x for x, b in zip(head, mask) if b == "1")
    free = "".join(x for x, b in zip(head, mask) if b == "0")
    try:
        rc = cb_rank(cb)  # global rank: the radix slot spans cb_total(i+1)
    except ValueError:  # not a CB string
        return None
    hf, i = half - t - 1, len(cb) - 1
    p = _walk(hf, i, False, mask[1:])[0]
    v = int(free, 2) if free else 0
    return _block_offsets(hf)[i] + ((p << hf - i) + v) * cb_total(i + 1) + rc
