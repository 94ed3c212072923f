"""Codes correcting symmetric composition errors.

Two constructions:

* An evaluation-constrained code with a systematic encoder.  The string is
  summarized by its prefix polynomial P(x, y) (one monomial per prefix, x for
  a 1, y for a 0); the multiset polynomial S(x, y) satisfies
  P(x,y) P(1/x,1/y) = (n+1) + S(x,y) + S(1/x,1/y), so t composition errors
  perturb P*P' by a sparse polynomial recoverable from grid evaluations.  The
  encoder stores wt(u) mod (2t+1) plus the grid evaluations of P_u, protects
  them with a distance-(2t+1) block code into a bit string sbar, and lays sbar
  down as the mod-2 parities of the even-level cumulative weights through a
  parity suffix z: s = 0^(rhat/2) u rev(z).  The z block is appended reversed
  so that z_j lands at position n+1-j; the weight parities w_{2j} mod 2 then
  read back exactly sbar_j, which is what the decoder consumes first.

* A Catalan-path code: 0^(4t+1), a balanced prefix-dominated (Catalan) middle,
  1^(4t+1).  Distinct codewords have multiset symmetric difference >= 4t+1;
  decoding is brute force over reverted corrections, up to the first codeword.

etn_decode reads any compositions.CompositionMultiset: the dense form of a
parsed file, or compose_all's source-backed one, which answers the
decoder's reads from the source string plus the sparse error delta (at
this code's lengths, bincounts of an int64 prefix array) and so keeps
large-n trials tractable.  A string's P goes on the (2R+1)^2 evaluation
grid through fields.prefix_grid, one monomial per run of zeros, in
O(n + R^2 wt) rather than O(R^2 n); monomial_grid's blocked product sums
those monomials (with P's y = 1 column from the same gather), the delta
read as a signed multiset, and the one-term shifts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import backtrack, compositions
from .backtrack import ReconstructionFailure
from .catalan import cb_count, cb_rank, cb_total, cb_unrank, sr_decode, sr_encode
from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    check_bits,
    cumulative_weights,
    mirror_mismatches,
    sigma_from_weights,
    weight,
)
from .fields import (
    PrimeField,
    SparsityExceeded,
    SupportFit,
    alpha_power_table,
    bblock_code,
    bch_shape,
    field_setup,
    monomial_grid,
    prefix_grid,
    sparse_interpolate,
    sparse_support,
)


class BlockCodeFailure(CorruptedInput):
    """The even-level weight parities are beyond the block code's reach."""


# -- bivariate polynomial formulation ---------------------------------------


@dataclass
class PrefixPolynomial:
    """One term per total degree: x^(ones) y^(zeros) of each prefix."""

    terms: dict  # (i, j) -> 1
    d_x: int
    d_y: int


@dataclass
class MultisetPolynomial:
    """Coefficient of x^w y^z = multiplicity of the composition 0^z 1^w."""

    terms: dict  # (w, z) -> count
    n: int


def string_to_P(s: str) -> PrefixPolynomial:
    check_bits(s)
    terms = {(0, 0): 1}
    i = j = 0
    for ch in s:
        if ch == "1":
            i += 1
        else:
            j += 1
        terms[(i, j)] = 1
    return PrefixPolynomial(terms, i, j)


def multiset_to_S(c: CompositionMultiset) -> MultisetPolynomial:
    terms: dict = {}
    for l in range(1, c.n + 1):
        for w, cnt in c.level_counter(l).items():
            terms[(w, l - w)] = terms.get((w, l - w), 0) + cnt
    return MultisetPolynomial(terms, c.n)


def verify_identity(P: PrefixPolynomial, S: MultisetPolynomial, n: int) -> bool:
    """P(x,y) P(1/x,1/y) == (n+1) + S(x,y) + S(1/x,1/y), as Laurent polynomials."""
    left: dict = {}
    for (i1, j1) in P.terms:
        for (i2, j2) in P.terms:
            key = (i1 - i2, j1 - j2)
            left[key] = left.get(key, 0) + 1
    right: dict = {(0, 0): n + 1}
    for (w, z), c in S.terms.items():
        right[(w, z)] = right.get((w, z), 0) + c
        right[(-w, -z)] = right.get((-w, -z), 0) + c
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


def resolve_weight(observed: int, c_w: int, t: int, n: int) -> int:
    """Exact wt(s) from a level-1 weight off by at most t, given wt mod 2t+1:
    the window observed-t..observed+t holds each residue exactly once."""
    v = observed + t - (observed + t - c_w) % (2 * t + 1)
    if not (0 <= c_w <= 2 * t and 0 <= v <= n):
        raise CorruptedInput("weight residue fails to pin wt(s)")
    return v


def _signed(v: int, q: int) -> int:
    return v - q if v > q // 2 else v


def _interpolate_rows(rows, T: int, field: PrimeField):
    """sparse_interpolate of each row (values mod q), one per step so that a
    caller's checks keep their order.  Rows share one SupportFit, on the support
    of sum_k (k+1) row_k found by one scan.  A fit that passes its check is the
    only one with <= T terms (two would differ by <= 2T terms vanishing at 2T+1
    consecutive powers of alpha); a row that does not fit is interpolated alone.
    The fit of every row is one SupportFit.rows call."""
    stack = np.asarray(rows, dtype=np.int64).reshape(-1, 2 * T + 1)
    mix = (np.arange(1, len(stack) + 1) @ stack % field.q).tolist()
    try:
        fit = SupportFit(sparse_support(mix, T, field), T, field)
    except SparsityExceeded:
        fit = SupportFit((), T, field)  # no support: only zero rows fit
    for row, poly in zip(rows, fit.rows(stack)):
        yield sparse_interpolate(row, T, field) if poly is None else poly


def recover_error_poly(e_grid: np.ndarray, d_x: int, d_y: int, t: int,
                       field: PrimeField, n: int) -> dict:
    """The error polynomial E from the grid of its trace Etilde.

    e_grid holds Etilde(alpha^l1, alpha^l2) at [l1 + R, l2 + R], |l1|,
    |l2| <= R = 4t, where Etilde = x^dx y^dy (E(x,y) + E(1/x,1/y)).  Two
    sparse-interpolation stages (x then y, both with term bound 4t) rebuild
    Etilde.  A composition exponent pair is componentwise nonnegative, so E
    is Etilde's quadrant p, r >= 0 around (dx, dy) without the origin, and
    it is accepted only if its own trace is Etilde and it is t replacements.
    Returns {(w, z): coefficient} with coefficients in [-t, t].
    """
    q = field.q
    R = 4 * t
    rng_l = range(-R, R + 1)

    def stage(rows, d):
        # full-circle exponents into the degree window d-n..d+n, which holds
        # each residue mod q-1 at most once since q-1 > 2n
        for found in _interpolate_rows(rows, R, field):
            out = {d - n + (e - d + n) % (q - 1): v for e, v in found.items()}
            if any(e > d + n for e in out):
                raise CorruptedInput("error exponent outside the degree window")
            yield out

    # stage 1: for each l2 (a column), the x-support and the values M_i(alpha^l2)
    col_vals: dict[int, dict[int, int]] = {}
    for l2, found in zip(rng_l, stage(e_grid.T.tolist(), d_x)):
        for i, v in found.items():
            col_vals.setdefault(i, {})[l2] = v
    if len(col_vals) > R:
        raise SparsityExceeded("more than 4t x-exponents in the error trace")
    # stage 2: per x-exponent in first-seen order, the y-polynomial multiplier
    rows = [[vals.get(l2, 0) for l2 in rng_l] for vals in col_vals.values()]
    etilde = {(i, j): _signed(c, q) for i, found in zip(col_vals, stage(rows, d_y))
              for j, c in found.items()}
    if len(etilde) > R:
        raise SparsityExceeded("more than 4t terms in the error trace")
    error = {(i - d_x, j - d_y): c for (i, j), c in etilde.items()
             if i >= d_x and j >= d_y and (i, j) != (d_x, d_y)}
    trace = {(d_x + s * p, d_y + s * r): c
             for (p, r), c in error.items() for s in (1, -1)}
    by_level = Counter()
    for (p, r), c in error.items():
        by_level[p + r] += c
    # balanced levels of total mass <= 2t also bound each |c| by t
    if (trace != etilde or any(by_level.values()) or max(by_level, default=0) > n
            or sum(map(abs, error.values())) > 2 * t):
        raise CorruptedInput("error trace is not that of t replacements")
    return error


# -- multiset observations --------------------------------------------------


def _prefix_arrays(s: str):
    pref = compositions.prefix_array(s)
    return pref, np.arange(len(s) + 1, dtype=np.int64) - pref


def _string_weight_profile(s: str) -> np.ndarray:
    """w_1..w_n of C(s) in O(n), from the prefix sums of s's prefix weights."""
    return compositions.compose_all(s).weight_profile()


class DeltaObservation(CompositionMultiset):
    """compose_all(s) under the names bench/tracer.py wraps on this class;
    it goes once the tracer's METHODS names CompositionMultiset's."""

    def __init__(self, s: str):
        self.__dict__ = compositions.compose_all(s).__dict__

    sym_eval = CompositionMultiset.sym_eval
    level_counter = CompositionMultiset.level_counter


# -- the systematic evaluation-constrained encoder --------------------------


@dataclass(frozen=True)
class PolyCodeParams:
    n: int
    t: int
    nu: int            # payload length n - r_hat
    r_hat: int
    field: PrimeField
    msg_len: int       # block-code message bits: a plus the evaluation grid
    code_len: int      # sbar length, r_hat / 4
    a_bits: int
    elem_bits: int


def _grid_msg_len(t: int, elem_bits: int) -> int:
    a_bits = (2 * t).bit_length()
    return a_bits + (8 * t + 1) ** 2 * elem_bits


@lru_cache(maxsize=None)
def poly_params_from_payload(nu: int, t: int) -> PolyCodeParams:
    """Smallest consistent length for a payload of nu bits."""
    if t < 1 or nu < 1:
        raise ValueError("need t >= 1 and a nonempty payload")
    for elem_bits in range(2, 64):
        msg_len = _grid_msg_len(t, elem_bits)
        n = nu + 4 * (msg_len + bch_shape(msg_len, t)[1])
        if (field_setup(n).q - 1).bit_length() == elem_bits:
            return poly_params_from_length(n, t)
    raise ValueError("no consistent parameter point")  # unreachable in range


@lru_cache(maxsize=None)
def poly_params_from_length(n: int, t: int) -> PolyCodeParams:
    if t < 1:
        raise ValueError("t must be >= 1")
    field = field_setup(n)
    elem_bits = (field.q - 1).bit_length()
    msg_len = _grid_msg_len(t, elem_bits)
    code_len = msg_len + bch_shape(msg_len, t)[1]
    r_hat = 4 * code_len
    nu = n - r_hat
    if nu < 1:
        raise ValueError(f"length {n} too short for t={t} (needs > {r_hat})")
    return PolyCodeParams(n, t, nu, r_hat, field, msg_len, code_len,
                          (2 * t).bit_length(), elem_bits)


def _bits_str(bits: np.ndarray) -> str:
    return (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def _parity_block(sbar) -> str:
    """z: even positions 0, odd position j making the running parity sbar_{(j+1)/2}.

    The running parity after odd position 2k-1 is sbar_k itself, so that
    position holds sbar_k xor sbar_{k-1} (sbar_0 = 0).
    """
    sb = np.asarray(sbar, dtype=np.int64) % 2
    z = np.zeros(2 * len(sb), dtype=np.int64)
    z[0::2] = sb ^ np.concatenate(([0], sb[:-1]))
    return _bits_str(z)


def _eval_prefix_string(s: str, l1: int, l2: int, field: PrimeField) -> int:
    pref, zeros = _prefix_arrays(s)
    table = alpha_power_table(field)
    idx = (l1 * pref + l2 * zeros) % (field.q - 1)
    return int(table[idx].sum() % field.q)


def _grid_points(t: int):
    R = 4 * t
    return [(l1, l2) for l1 in range(-R, R + 1) for l2 in range(-R, R + 1)]


def _msb_first(width: int) -> np.ndarray:
    return np.arange(width - 1, -1, -1)


def _grid_to_bits(a: int, grid: dict, p: PolyCodeParams) -> list[int]:
    """a in a_bits bits, then each grid value in elem_bits bits, MSB first."""
    vals = np.array([grid[pt] for pt in _grid_points(p.t)], dtype=np.int64)
    head = (a >> _msb_first(p.a_bits)) & 1
    body = (vals[:, None] >> _msb_first(p.elem_bits)) & 1
    return np.concatenate((head, body.ravel())).tolist()


def _bits_to_grid(bits, p: PolyCodeParams):
    """Inverse of _grid_to_bits: a, and the grid at [l1 + R, l2 + R]."""
    bits = np.asarray(bits[:p.msg_len], dtype=np.int64)
    a = int(bits[:p.a_bits] @ (1 << _msb_first(p.a_bits)))
    if a > 2 * p.t:
        raise CorruptedInput("weight residue out of range")
    size = 8 * p.t + 1
    grid = bits[p.a_bits:].reshape(size, size, p.elem_bits) \
        @ (1 << _msb_first(p.elem_bits))
    if (grid >= p.field.q).any():
        raise CorruptedInput("grid element out of field range")
    return a, grid


def etn_encode(u: str, t: int, params: PolyCodeParams | None = None) -> str:
    """Systematic map of a uniquely reconstructable payload into the code."""
    check_bits(u)
    p = params or poly_params_from_payload(len(u), t)
    if len(u) != p.nu or t != p.t:
        raise ValueError("payload length does not match the parameters")
    a = weight(u) % (2 * t + 1)
    values = prefix_grid(u, 4 * t, p.field)
    grid = dict(zip(_grid_points(t), values.ravel().tolist()))
    sbar = bblock_code(p.msg_len, t).encode(_grid_to_bits(a, grid, p))
    z = _parity_block(sbar)
    s = "0" * (p.r_hat // 2) + u + z[::-1]
    if len(s) != p.n:
        raise RuntimeError(f"codeword length {len(s)} != n = {p.n}")
    return s


def _reconstruct_known_shell(obs, zeta: str, sigma) -> str:
    """Rebuild 0^r ... zeta, r = len(zeta), from its corrected multiset.

    Pair k (0-based) holds a_k = s_k and b_k = s_(n-1-k).  The first r pairs
    are the known shell (0, rev(zeta)_k), which sigma must match; a payload
    pair with sigma 0 or 2 is forced.  A pair with sigma 1 reads level n-k-1:
    all but a length-j prefix and a length-(k+1-j) suffix, weighing
    W - pw_j - sw_(k+1-j) with W = sum(sigma) = wt(s).  Its k inner windows
    are known, and the branch kept is the one whose two end windows are
    exactly what the level has left, the test backtrack._search makes.  The
    counting is numpy: these levels hold thousands of distinct weights.
    sigma is a tuple or sigma_from_weights' int64 array, read as it is, in
    {0, 1, 2} ({0, 1} at the middle of odd n): each placed pair sums to its
    sigma, so an inner window counts the ones of level bits, in 0..level.
    """
    n, h, r = obs.n, obs.n // 2, len(zeta)
    sigma = np.asarray(sigma, dtype=np.int64)
    W = int(sigma.sum())
    sig = sigma[:h]
    a, b = sig // 2, sig // 2
    a[:r] = 0
    b[:r] = np.frombuffer(zeta[::-1].encode("ascii"), np.uint8) - ord("0")
    bad = np.flatnonzero(b[:r] != sig[:r])
    if bad.size:
        raise ReconstructionFailure(
            f"sigma disagrees with the known shell at pair {bad[0] + 1}")
    for k in (r + np.flatnonzero(sig[r:] == 1)).tolist():
        level = n - k - 1
        counts = obs.level_counts(level)
        pw = np.concatenate(([0], np.cumsum(a[:k])))
        sw = np.concatenate(([0], np.cumsum(b[:k])))
        rest = counts - np.bincount(W - pw[1:] - sw[:0:-1], minlength=level + 1)
        # the level's weights besides the inner windows, sorted
        left = np.repeat(np.arange(level + 1), rest).tolist() if rest.min() >= 0 else []
        x, y = W - int(sw[k]), W - int(pw[k])
        picked = [ca for ca, ends in ((0, (x - 1, y)), (1, (x, y - 1)))
                  if sorted(ends) == left]
        if len(picked) != 1:
            raise ReconstructionFailure(
                f"pair {k + 1} is not settled by level {level}")
        a[k], b[k] = picked[0], 1 - picked[0]
    mid = sigma[h:]  # odd n: 0 or 1, by sigma_from_weights
    return _bits_str(np.concatenate((a, mid, b[::-1])))


def etn_decode(obs, t: int) -> str:
    """Recover the payload from an observation with at most t symmetric errors.

    Failure modes raise distinct types: BlockCodeFailure, a CorruptedInput,
    when the weight parities cannot be corrected; CorruptedInput when the
    observation's shape, the decoded grid, the weight residue, the error
    trace or the corrected sigma is inconsistent; SparsityExceeded when the
    error trace does not fit the sparse model; ReconstructionFailure when
    the corrected multiset does not assemble back into a string.
    """
    obs.validate_shape()
    p = poly_params_from_length(obs.n, t)
    n, field, q = p.n, p.field, p.field.q
    half = p.r_hat // 2
    w_obs = obs.weight_profile()
    received = (w_obs[1:half:2] % 2).tolist()
    try:
        sbar = bblock_code(p.msg_len, t).decode(received)
    except ValueError as e:
        raise BlockCodeFailure(f"weight parities undecodable: {e}") from e
    a, u_grid = _bits_to_grid(sbar, p)
    z = _parity_block(sbar)
    zeta = z[::-1]
    wt_z = z.count("1")
    wt_u = resolve_weight(int(w_obs[0]) - wt_z, a, t, p.nu)
    d_x = wt_u + wt_z
    d_y = n - d_x
    d_xu, d_yu = wt_u, p.nu - wt_u
    R = 4 * t
    # the codeword's P on the grid: P(0^half) + y^half (P_u - 1)
    # + x^dxu y^(half+dyu) (P_zeta - 1), where P(0^half) is a single run
    p_grid = (prefix_grid("0" * half, R, field)
              + monomial_grid(np.array([0]), np.array([half]), R, field)
              * (u_grid - 1)
              + monomial_grid(np.array([d_xu]), np.array([half + d_yu]), R, field)
              * (prefix_grid(zeta, R, field) - 1)) % q
    # Etilde = x^dx y^dy ((n+1) + S(x,y) + S(1/x,1/y) - P(x,y) P(1/x,1/y))
    scale = monomial_grid(np.array([d_x]), np.array([d_y]), R, field)
    e_grid = scale * ((n + 1 + obs.sym_eval(R, field)
                       - p_grid * p_grid[::-1, ::-1] % q) % q) % q
    error = recover_error_poly(e_grid, d_x, d_y, t, field, n)
    fixed = obs.correct(error)
    w = fixed.weight_profile()
    if w[0] != d_x or w[n - 1] != d_x:
        raise ReconstructionFailure("corrected weights disagree with wt(s)")
    sigma = sigma_from_weights(w, n)
    s = _reconstruct_known_shell(fixed, zeta, sigma)
    if not np.array_equal(_string_weight_profile(s), w):
        raise ReconstructionFailure("reassembled string misses the multiset")
    return s[half:half + p.nu]


def etn_encode_info(info: str, t: int) -> str:
    """Info bits -> reconstructable payload -> codeword."""
    return etn_encode(sr_encode(info, 0), t)


def etn_decode_info(c, k: int, t: int) -> str:
    return sr_decode(etn_decode(c, t), k, 0)


# -- the Catalan-path code --------------------------------------------------
# Ranks are lexicographic.  Reversed, bit-swapped and behind a leading 0, the
# balanced prefix-dominated strings of length 2h are the CB strings of length
# 2h+1 with h ones: the last block of catalan.cb_rank, in reverse order.


def catalan_number(h: int) -> int:
    return cb_count(2 * h + 1, h)


_SWAP = str.maketrans("01", "10")


def catalan_rank(s: str) -> int:
    """Rank among the balanced prefix-dominated strings of the same length."""
    check_bits(s)
    if len(s) % 2:
        raise ValueError("balanced strings have even length")
    if 2 * s.count("1") != len(s):
        raise ValueError("string is not balanced")
    return cb_total(len(s) + 1) - 1 - cb_rank("0" + s[::-1].translate(_SWAP))


def catalan_unrank(r: int, h: int) -> str:
    if not 0 <= r < catalan_number(h):
        raise ValueError("rank out of range")
    cb = cb_unrank(2 * h + 1, cb_total(2 * h + 1) - 1 - r)
    return cb[1:][::-1].translate(_SWAP)


def catalan_code_params(k: int, t: int) -> int:
    """Smallest even length whose Catalan middle holds 2^k messages."""
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    h = 1
    while catalan_number(h) < 2 ** k:
        h += 1
    return 2 * h + 2 * (4 * t + 1)


def catalan_code_encode(info: str, t: int) -> str:
    pad = 4 * t + 1
    h = catalan_code_params(len(info), t) // 2 - pad
    return "0" * pad + catalan_unrank(int(check_bits(info), 2), h) + "1" * pad


def catalan_code_strip(s: str, k: int, t: int) -> str:
    pad = 4 * t + 1
    rank = catalan_rank(s[pad:len(s) - pad])
    if rank >= 2 ** k:
        raise ValueError("codeword outside the 2^k information range")
    return format(rank, f"0{k}b")


def is_catalan_codeword(s: str, t: int) -> bool:
    pad = 4 * t + 1
    if len(s) % 2 or len(s) < 2 * pad + 2:
        return False
    if s[:pad] != "0" * pad or s[-pad:] != "1" * pad:
        return False
    try:
        catalan_rank(s[pad:len(s) - pad])
    except ValueError:
        return False
    return True


def _revert_candidates(c: CompositionMultiset, w, budget: int):
    """Lazily yield (multiset, weight profile) for each mirror-consistent
    multiset within budget reverts of c, whose profile is w.

    A revert (level, removed, added) swaps one element for a different
    same-length composition and moves one level weight, so a candidate needs
    at least one revert per mirror-mismatched level pair; branches that
    cannot rebalance within the budget are pruned before any copy is made.
    replace checks each revert, so every candidate is a multiset and its
    profile exact.  Its delta, c's plus its net reverts kept canonical by
    _bump, names it.  Candidates are to be read and not changed.
    """
    mism = mirror_mismatches(w, c.n)
    if not mism:
        yield c, w
    if budget == 0 or len(mism) > budget:
        return
    if mism:
        targets = (mism[0], c.n + 1 - mism[0])
    else:
        if budget < 2:
            return  # a lone revert always unbalances some pair
        targets = range(1, c.n + 1)
    for level in targets:
        other = c.n + 1 - level
        for rm in sorted(c.level_counter(level)):
            if mism and budget == len(mism):
                # the revert must rebalance this pair exactly; the pair is
                # mismatched, so delta != 0 and the new weight differs
                delta = w[other - 1] - w[level - 1]
                adds = [rm + delta] if 0 <= rm + delta <= level else []
            else:
                adds = [v for v in range(level + 1) if v != rm]
            for add in adds:
                cc = c.copy()
                cc.replace(level, rm, add)
                cw = list(w)
                cw[level - 1] += add - rm
                yield from _revert_candidates(cc, cw, budget - 1)


def catalan_code_decode_bruteforce(c: CompositionMultiset, t: int) -> str:
    """The codeword whose multiset is within t replacements, the first found.

    Each string the t = 0 search returns has exactly its candidate's
    multiset, and each candidate is within t replacements of c, so two
    codewords found would be within 2t replacements (4t elements) of each
    other, below the code's distance 4t+1: the first codeword is the only
    one.  A codeword's prefixes are strictly lighter than its suffixes up to
    n/2, so up to reversal it is its multiset's only string: the first
    solution, whose first sigma = 1 pair is (0, 1).
    """
    c.validate_shape()
    pad = 4 * t + 1
    if c.n % 2 or c.n < 2 * pad + 2:
        raise ValueError("length incompatible with the code format")
    tried = set()
    for cand, w in _revert_candidates(c, cumulative_weights(c), t):
        key = frozenset((l, wt, m) for l, d in cand.delta.items() for wt, m in d.items())
        if key in tried:
            continue
        tried.add(key)
        try:
            s, _ = backtrack.tolerant_reconstruct(cand, w, sigma_from_weights(w, c.n), 0)
        except (ReconstructionFailure, CorruptedInput):
            continue
        if is_catalan_codeword(s, t):
            return s
    raise ReconstructionFailure("no codeword within the error budget")
