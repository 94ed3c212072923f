"""Codes correcting asymmetric composition errors.

Two constructions share the same skeleton: protect the sigma sequence with
number-theoretic (single error) or Reed-Solomon (t errors) redundancy, recover
sigma from the corrupted multiset's cumulative level weights, then run the
tolerant backtracking reconstruction on those same weights and strip the
redundancy.

Single-error code, odd length n with ceil(n/2) divisible by 3:
  * deleting positions 2 and n-1 leaves a reconstruction codeword of length
    n-2 (odd, so its middle bit is free);
  * (s_2, s_{n-1}) with s_2 <= s_{n-1} makes sum_{i<=ceil(n/2)} w_i = 0 mod 3
    (each of the two bits joins 2*ceil(n/2)-1 = -1 mod 3 of those
    compositions, so the three admissible pairs hit all three residues);
  * the free middle bit makes wt(s) even; it joins a multiple-of-3 count of
    the checksummed compositions, so the flip leaves the mod-3 state alone.

t-error code, even inner length m: the inner codeword is t-shifted, its
sigma prefix is extended by 3t ternary-code check symbols, and the check
digits are realized as bit pairs (0->00, 1->01, 2->11) forming a block b
spliced between the inner halves: s = s'_1..s'_{m/2}  b  s'_{m/2+1}..s'_m.
Pair k of b sits at mirrored positions of s, so sigma_{m/2+k}(s) is exactly
check digit k, and sigma_i(s) = sigma_i(s') for i <= m/2.
"""

from __future__ import annotations

from . import compositions
from .backtrack import ReconstructionFailure, tolerant_reconstruct
from .catalan import sr_decode, sr_encode, sr_params, sr_size
from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    check_length,
    cumulative_weights,
    mirror_mismatches,
    sigma_of_string,
    sigma_partial,
    weight,
    weights_from_sigma,
)
from .fields import ternary_erasure_decode, ternary_erasure_encode, ternary_field_params


# -- single composition error ----------------------------------------------


def s1_params(k: int) -> int:
    """Smallest odd n with ceil(n/2) = 0 mod 3 whose inner codebook fits k bits."""
    # no inner length below sr_params(k, 0) fits k bits
    n = (sr_params(k, 0) + 3) | 1
    while (n + 1) // 2 % 3 or sr_size(n - 3, 0) < 2 ** k:
        n += 2
    return n


def _checksum(s: str) -> int:
    """sum of w_i over levels i <= ceil(n/2), mod 3."""
    n = len(s)
    w = weights_from_sigma(sigma_of_string(s), weight(s), n)
    return sum(w[:(n + 1) // 2]) % 3


# ternary digit d -> a bit pair holding d ones, the smaller bit first
_PAIRS = ("00", "01", "11")


def s1_codewords(info: str) -> tuple[str, str]:
    """The two codewords of info in the single-error code of length
    s1_params(len(info)): s1_encode(info), whose free middle bit makes wt(s)
    even, then its odd-weight twin, which differs in that bit alone."""
    n = s1_params(len(info))
    h = (n + 1) // 2
    inner = sr_encode(info + "0", 0, n - 2)  # the free middle bit starts at 0
    # each 1 in (s_2, s_{n-1}) moves the checksum by -1 mod 3
    zeros = inner[0] + "0" + inner[1:-1] + "0" + inner[-1]
    pair = _PAIRS[_checksum(zeros)]
    s = inner[0] + pair[0] + inner[1:-1] + pair[1] + inner[-1]
    twin = s[:h - 1] + "1" + s[h:]
    if s.count("1") % 2 == 1:
        s, twin = twin, s
    if _checksum(s) != 0:
        raise RuntimeError("middle flip broke the checksum")
    return s, twin


def s1_encode(info: str) -> str:
    """Map info into the single-error code of length s1_params(len(info))."""
    return s1_codewords(info)[0]


def recover_w1(w1_obs: int, wn_obs: int) -> int:
    """True w_1 when at most one of levels 1, n is corrupted.

    A corrupted level-1 or level-n element shifts the level weight by exactly
    one, flipping its parity; s1_encode's free middle bit makes wt(s) even,
    so the even value is the clean one.
    """
    if w1_obs == wn_obs or w1_obs % 2 == 0:
        return w1_obs
    return wn_obs


def _mod3_pin(base: int, target: int) -> int:
    """The v in base-2..base with v = target mod 3: three consecutive
    integers hold each residue mod 3 exactly once, so v exists and is unique."""
    return base - (base - target) % 3


def s1_recover_sigma(w_obs, n: int):
    """Exact sigma sequence from the weight profile w_1..w_n of a multiset
    with at most one bad element.

    A corrupted level j != ceil(n/2) betrays itself by w_j != w_{n+1-j};
    level ceil(n/2) is its own mirror, so an undetected error is attributed
    there.  Either way one cumulative weight is unknown; it is pinned by
    w_j = base - sigma_{j-1} with sigma_{j-1} in {0,1,2} (a width-3 window)
    plus the mod-3 checksum over levels <= ceil(n/2).
    """
    h = (n + 1) // 2
    # for even n, level n/2 is pinned below like the middle of odd n
    mism = [j for j in mirror_mismatches(w_obs, n) if j < h]
    if len(mism) > 1:
        raise CorruptedInput("more than one corrupted level: outside the model")
    # trusted profile: levels below j agree with their mirrors (w_1 repaired)
    w = list(w_obs[:h])
    w[0] = recover_w1(w_obs[0], w_obs[n - 1])
    j = mism[0] if mism else h
    if j >= 2:
        base = 2 * w[j - 2] - (w[j - 3] if j >= 3 else 0)
        w[j - 1] = _mod3_pin(base, (w[j - 1] - sum(w)) % 3)
    return compositions.sigma_from_weights(w, n)


def s1_reconstruct(c: CompositionMultiset) -> str:
    """The codeword string behind a multiset with at most one bad element."""
    c.validate_shape()
    w_obs = cumulative_weights(c)
    sigma = s1_recover_sigma(w_obs, c.n)
    s, _ = tolerant_reconstruct(c, w_obs, sigma, 1)
    return s


def s1_decode(c: CompositionMultiset, k: int) -> str:
    check_length(c.n, s1_params(k))
    return s1_strip(s1_reconstruct(c), k)


def s1_strip(s: str, k: int) -> str:
    """The k info bits of a single-error codeword."""
    inner = s[0] + s[2:-2] + s[-1]  # drop positions 2 and n-1
    return sr_decode(inner, k + 1, 0)[:-1]  # less the free middle bit


# -- t asymmetric composition errors ---------------------------------------


def st_params(k: int, t: int):
    """(m, n) for the t-error code: inner length and total length."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = sr_params(k, t)
    e = ternary_field_params(m // 2, 3 * t)
    n = m + 6 * t * e
    return m, n


def st_encode(info: str, t: int) -> str:
    k = len(info)
    m, n = st_params(k, t)
    inner = sr_encode(info, t, m)
    sig = list(sigma_of_string(inner))
    word = ternary_erasure_encode(sig, 3 * t)
    parity = word[m // 2:]
    D = len(parity)
    if n != m + 2 * D:
        raise RuntimeError(f"length {m} + 2*{D} check digits != n = {n}")
    b = [""] * (2 * D)
    for idx, d in enumerate(parity):  # pair idx+1 at positions idx, 2D-1-idx
        pair = _PAIRS[d]
        b[idx] = pair[0]
        b[2 * D - 1 - idx] = pair[1]
    return inner[:m // 2] + "".join(b) + inner[m // 2:]


def st_decode(c: CompositionMultiset, k: int, t: int) -> str:
    c.validate_shape()
    n = c.n
    m, n_expected = st_params(k, t)
    check_length(n, n_expected)
    w_obs = cumulative_weights(c)
    sigma_vals, known = sigma_partial(w_obs, n)
    word = [v if ok else None for v, ok in zip(sigma_vals, known)]
    try:
        sigma = ternary_erasure_decode(word, m // 2, 3 * t)
    except ValueError as e:
        raise ReconstructionFailure(f"sigma recovery failed: {e}") from e
    s, _ = tolerant_reconstruct(c, w_obs, sigma, t)
    inner = s[:m // 2] + s[n - m // 2:]
    return sr_decode(inner, k, t)


def st_redundancy(k: int, t: int) -> int:
    m, n = st_params(k, t)
    return n - k
