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
  decoding is brute force over reverted corrections.

Both decoders accept either a CompositionMultiset or an Observation wrapper;
DeltaObservation answers multiset queries in O(n) from a base string plus a
sparse error delta, which keeps large-n trials tractable.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backtrack import ReconstructionFailure, reconstruct
from .catalan import cb_count, sr_decode, sr_encode
from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    check_bits,
    cumulative_weights,
    sigma_from_weights,
    weight,
)
from .fields import (
    PrimeField,
    SparsityExceeded,
    alpha_power_table,
    bblock_code,
    bch_shape,
    field_setup,
    sparse_interpolate,
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
        for w, cnt in c.levels[l].items():
            terms[(w, l - w)] = terms.get((w, l - w), 0) + cnt
    return MultisetPolynomial(terms, c.n)


def _eval_terms(terms, bx: int, by: int, field: PrimeField) -> int:
    q = field.q
    acc = 0
    for (i, j), c in terms.items():
        acc = (acc + c * pow(bx, i, q) * pow(by, j, q)) % q
    return acc


def verify_identity(P: PrefixPolynomial, S: MultisetPolynomial, n: int,
                    field: PrimeField | None = None, points: int = 20,
                    rng=None) -> bool:
    """P(x,y) P(1/x,1/y) == (n+1) + S(x,y) + S(1/x,1/y).

    Symbolic Laurent comparison by default; with a field, checked instead at
    `points` random nonzero evaluation pairs.
    """
    if field is None:
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
    rng = rng if rng is not None else random.Random(0)
    q = field.q
    for _ in range(points):
        bx = rng.randrange(1, q)
        by = rng.randrange(1, q)
        bxi, byi = field.inv(bx), field.inv(by)
        lhs = _eval_terms(P.terms, bx, by, field) * \
            _eval_terms(P.terms, bxi, byi, field) % q
        rhs = (n + 1 + _eval_terms(S.terms, bx, by, field)
               + _eval_terms(S.terms, bxi, byi, field)) % q
        if lhs != rhs:
            return False
    return True


def resolve_weight(observed: int, c_w: int, t: int, n: int) -> int:
    """Exact wt(s) from a level-1 weight off by at most t, given wt mod 2t+1."""
    cands = [v for v in range(observed - t, observed + t + 1)
             if 0 <= v <= n and v % (2 * t + 1) == c_w]
    if len(cands) != 1:
        raise CorruptedInput("weight residue fails to pin wt(s)")
    return cands[0]


def _signed(v: int, q: int) -> int:
    return v - q if v > q // 2 else v


def recover_error_poly(F: dict, p_grid: dict, d_x: int, d_y: int, t: int,
                       field: PrimeField, n: int) -> dict:
    """The error polynomial E from F values and P evaluations on the grid.

    F and p_grid map (l1, l2) over {-4t..4t}^2 to field values; p_grid holds
    P(alpha^l1, alpha^l2).  Two sparse-interpolation stages (x then y, both
    with term bound 4t) rebuild Etilde = x^dx y^dy (E(x,y) + E(1/x,1/y));
    the reciprocal pair is folded off using d_x, d_y.  Returns
    {(w, z): coefficient} with coefficients in [-t, t].
    """
    q, alpha = field.q, field.alpha
    R = 4 * t
    rng_l = range(-R, R + 1)
    et_evals = {}
    for l1 in rng_l:
        for l2 in rng_l:
            pp = pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q) \
                * p_grid[(l1, l2)] * p_grid[(-l1, -l2)] % q
            et_evals[(l1, l2)] = (F[(l1, l2)] - pp) % q

    def in_window(poly, lo, hi):
        # full-circle exponents back into the unique degree window
        out = {}
        for e, v in poly.items():
            cands = [x for x in (e - (q - 1), e, e + (q - 1)) if lo <= x <= hi]
            if len(cands) != 1:
                raise CorruptedInput("error exponent outside the degree window")
            out[cands[0]] = v
        return out

    # stage 1: for each l2, the x-support and the values M_i(alpha^l2)
    col_vals: dict[int, dict[int, int]] = {}
    for l2 in rng_l:
        evals = [et_evals[(l1, l2)] for l1 in rng_l]
        poly = in_window(sparse_interpolate(evals, R, field),
                         d_x - n, d_x + n)
        for i, v in poly.items():
            col_vals.setdefault(i, {})[l2] = v
    if len(col_vals) > R:
        raise SparsityExceeded("more than 4t x-exponents in the error trace")
    # stage 2: per x-exponent, interpolate the y-polynomial multiplier
    etilde: dict = {}
    for i, vals in col_vals.items():
        evals = [vals.get(l2, 0) for l2 in rng_l]
        my = in_window(sparse_interpolate(evals, R, field), d_y - n, d_y + n)
        for j, c in my.items():
            etilde[(i, j)] = c
    if len(etilde) > R:
        raise SparsityExceeded("more than 4t terms in the error trace")
    # fold: Etilde coefficient at (dx+p, dy+r) is E_{p,r} + E_{-p,-r}, and a
    # composition exponent pair is componentwise nonnegative, so the two
    # quadrants separate cleanly
    error: dict = {}
    for (i, j), c in etilde.items():
        p, r = i - d_x, j - d_y
        cs = _signed(c, q)
        if not -t <= cs <= t:
            raise CorruptedInput(f"error coefficient {cs} exceeds the budget")
        if p >= 0 and r >= 0:
            if (p, r) == (0, 0) or p + r > n:
                raise CorruptedInput("error exponent outside the multiset range")
            error[(p, r)] = cs
        elif not (p <= 0 and r <= 0):
            raise CorruptedInput("mixed-sign error exponent")
    for (p, r), cs in error.items():
        mirror = etilde.get((d_x - p, d_y - r))
        if mirror is None or _signed(mirror, q) != cs:
            raise CorruptedInput("error trace is not reciprocal-symmetric")
    if len(etilde) != 2 * len(error):
        raise CorruptedInput("unmatched reciprocal error terms")
    if sum(abs(c) for c in error.values()) > 2 * t:
        raise CorruptedInput("more error mass than t replacements allow")
    by_level: dict[int, int] = {}
    for (w, z), cs in error.items():
        by_level[w + z] = by_level.get(w + z, 0) + cs
    if any(v != 0 for v in by_level.values()):
        raise CorruptedInput("error does not preserve per-level counts")
    return error


# -- multiset observations --------------------------------------------------


def _prefix_arrays(s: str):
    bits = np.frombuffer(s.encode("ascii"), np.uint8) - ord("0")
    pref = np.concatenate(([0], np.cumsum(bits))).astype(np.int64)
    zeros = np.arange(len(s) + 1, dtype=np.int64) - pref
    return pref, zeros


_EXACT_SUM = 2 ** 63 - 1  # int64 partial sums stay exact below this


def _prefix_grid(pref, zeros, R: int, field: PrimeField) -> np.ndarray:
    """P(alpha^l1, alpha^l2) mod q for l1, l2 in -R..R, at [l1 + R, l2 + R].

    P(x, y) = sum_i x^pref_i y^zeros_i has one monomial per prefix.  The
    block Y[l2] = alpha^(l2 * zeros) is built once; each l1 row is then an
    int64 mat-vec of Y with alpha^(l1 * pref), split into spans short enough
    that no partial sum of products below q^2 overflows (one span for every
    n with n q^2 < 2^63).
    """
    q = field.q
    table = alpha_power_table(field)
    ls = range(-R, R + 1)
    y = np.empty((len(ls), len(zeros)), dtype=np.int64)
    for row, l2 in zip(y, ls):
        np.take(table, l2 * zeros % (q - 1), out=row)
    span = max(1, _EXACT_SUM // (q - 1) ** 2)
    out = np.zeros((len(ls), len(ls)), dtype=np.int64)
    for row, l1 in zip(out, ls):
        x = np.take(table, l1 * pref % (q - 1))
        for lo in range(0, len(x), span):
            row += y[:, lo:lo + span] @ x[lo:lo + span] % q
        row %= q
    return out


def _string_weight_profile(s: str) -> np.ndarray:
    """w_1..w_n of C(s) in O(n): w_l = CS[n+1] - CS[l] - CS[n-l+1]."""
    pref, _ = _prefix_arrays(s)
    n = len(s)
    cs = np.concatenate(([0], np.cumsum(pref)))
    ls = np.arange(1, n + 1)
    return cs[n + 1] - cs[ls] - cs[n + 1 - ls]


class _LevelView:
    """Read-mostly stand-in for CompositionMultiset.levels."""

    def __init__(self, obs):
        self._obs = obs

    def __getitem__(self, l):
        return self._obs.level_counter(l)


class DeltaObservation:
    """A composition multiset as a base string plus a sparse error delta.

    All queries cost O(n) or less, so corruption and decoding of long strings
    never materialize the quadratic multiset.
    """

    def __init__(self, s: str):
        check_bits(s)
        self.s = s
        self.n = len(s)
        self.pref, self.zeros = _prefix_arrays(s)
        self.base_w = _string_weight_profile(s)
        self.delta: dict[int, dict[int, int]] = {}  # level -> weight -> count
        self._p_cache: dict = {}  # field -> (R, P grid of s with radius R)

    def copy(self) -> "DeltaObservation":
        out = object.__new__(DeltaObservation)
        out.s, out.n = self.s, self.n
        out.pref, out.zeros = self.pref, self.zeros
        out.base_w = self.base_w
        out.delta = {l: dict(d) for l, d in self.delta.items()}
        out._p_cache = self._p_cache  # shared: keyed on the immutable base
        return out

    @property
    def levels(self) -> _LevelView:
        # built per access: a stored view would close a reference cycle and
        # keep every observation's arrays alive until a cyclic collection
        return _LevelView(self)

    def _bump(self, l: int, w: int, by: int) -> None:
        d = self.delta.setdefault(l, {})
        d[w] = d.get(w, 0) + by
        if d[w] == 0:
            del d[w]
        if not d:
            del self.delta[l]

    def replace(self, l: int, old_w: int, new_w: int) -> None:
        if self.level_counter(l)[old_w] <= 0:
            raise CorruptedInput(f"no composition of weight {old_w} at level {l}")
        if not (0 <= new_w <= l):
            raise ValueError(f"weight {new_w} invalid at level {l}")
        self._bump(l, old_w, -1)
        self._bump(l, new_w, 1)

    def validate_shape(self) -> None:
        for l, d in self.delta.items():
            if sum(d.values()) != 0:
                raise CorruptedInput(f"level {l} count drifted")
            for w in d:
                if not 0 <= w <= l:
                    raise CorruptedInput(f"level {l} weight {w} out of range")

    def weight_profile(self) -> np.ndarray:
        w = self.base_w.copy()
        for l, d in self.delta.items():
            w[l - 1] += sum(wt * c for wt, c in d.items())
        return w

    def level_counter(self, l: int) -> Counter:
        if not 1 <= l <= self.n:
            raise KeyError(l)
        wts = self.pref[l:self.n + 1] - self.pref[:self.n - l + 1]
        counts = np.bincount(wts)
        ws = np.flatnonzero(counts)
        out = Counter(dict(zip(ws.tolist(), counts[ws].tolist())))
        for w, c in self.delta.get(l, {}).items():
            out[w] += c
            if out[w] < 0:
                raise CorruptedInput(f"negative multiplicity at level {l}")
            if out[w] == 0:
                del out[w]
        return out

    def sym_eval(self, l1: int, l2: int, field: PrimeField) -> int:
        """S(alpha^l1, alpha^l2) + S(alpha^-l1, alpha^-l2) mod q.

        P(s) comes from one grid covering the point, grown on demand; a
        decoder's first query, at the corner of its grid, builds it whole.
        """
        q, alpha = field.q, field.alpha
        R, grid = self._p_cache.get(field, (-1, None))
        if R < max(abs(l1), abs(l2)):
            R = max(abs(l1), abs(l2))
            grid = _prefix_grid(self.pref, self.zeros, R, field)
            self._p_cache[field] = R, grid
        base = (int(grid[R + l1, R + l2]) * int(grid[R - l1, R - l2])
                - (self.n + 1)) % q
        for l, d in self.delta.items():
            for w, c in d.items():
                e = (l1 * w + l2 * (l - w)) % (q - 1)
                base = (base + c * (pow(alpha, e, q)
                                    + pow(alpha, (q - 1 - e) % (q - 1), q))) % q
        return base

    def correct(self, error: dict) -> "DeltaObservation":
        out = self.copy()
        for (w, z), c in error.items():
            out._bump(w + z, w, -c)
        out.validate_shape()
        return out


class DenseObservation:
    """Adapter giving a real CompositionMultiset the observation interface."""

    def __init__(self, c: CompositionMultiset):
        c.validate_shape()
        self.c = c
        self.n = c.n
        self._arrays = None

    def weight_profile(self) -> np.ndarray:
        return np.array(cumulative_weights(self.c), dtype=np.int64)

    def level_counter(self, l: int) -> Counter:
        return self.c.levels[l]

    def sym_eval(self, l1: int, l2: int, field: PrimeField) -> int:
        q = field.q
        if self._arrays is None or self._arrays[3] != q:
            ls, ws, cnts = [], [], []
            for l in range(1, self.n + 1):
                for w, cnt in self.c.levels[l].items():
                    ls.append(l)
                    ws.append(w)
                    cnts.append(cnt)
            self._arrays = (np.array(ls, dtype=np.int64),
                            np.array(ws, dtype=np.int64),
                            np.array(cnts, dtype=np.int64), q)
        ls, ws, cnts, _ = self._arrays
        table = alpha_power_table(field)
        e = (l1 * ws + l2 * (ls - ws)) % (q - 1)
        fwd = int((cnts * table[e] % q).sum() % q)
        bwd = int((cnts * table[(q - 1 - e) % (q - 1)] % q).sum() % q)
        return (fwd + bwd) % q

    def correct(self, error: dict) -> "DenseObservation":
        fixed = self.c.copy()
        for (w, z), c in error.items():
            l = w + z
            if c > 0:
                if fixed.levels[l][w] < c:
                    raise CorruptedInput(
                        f"cannot remove {c} copies of weight {w} at level {l}")
                fixed.levels[l][w] -= c
                if fixed.levels[l][w] == 0:
                    del fixed.levels[l][w]
            elif c < 0:
                fixed.levels[l][w] += -c
        fixed.validate_shape()
        return DenseObservation(fixed)


def as_observation(c):
    if isinstance(c, (DeltaObservation, DenseObservation)):
        return c
    return DenseObservation(c)


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
        code_len = msg_len + bch_shape(msg_len, t)[1]
        r_hat = 4 * code_len
        n = nu + r_hat
        field = field_setup(n)
        if (field.q - 1).bit_length() == elem_bits:
            return PolyCodeParams(n, t, nu, r_hat, field, msg_len,
                                  code_len, (2 * t).bit_length(), elem_bits)
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


def _grid_to_bits(a: int, grid: dict, p: PolyCodeParams) -> list[int]:
    bits = [int(b) for b in format(a, f"0{p.a_bits}b")]
    for pt in _grid_points(p.t):
        bits.extend(int(b) for b in format(grid[pt], f"0{p.elem_bits}b"))
    return bits


def _bits_to_grid(bits, p: PolyCodeParams):
    a = int("".join(map(str, bits[:p.a_bits])), 2)
    if a > 2 * p.t:
        raise CorruptedInput("weight residue out of range")
    grid = {}
    pos = p.a_bits
    for pt in _grid_points(p.t):
        v = int("".join(map(str, bits[pos:pos + p.elem_bits])), 2)
        if v >= p.field.q:
            raise CorruptedInput("grid element out of field range")
        grid[pt] = v
        pos += p.elem_bits
    return a, grid


def etn_encode(u: str, t: int, params: PolyCodeParams | None = None) -> str:
    """Systematic map of a uniquely reconstructable payload into the code."""
    check_bits(u)
    p = params or poly_params_from_payload(len(u), t)
    if len(u) != p.nu or t != p.t:
        raise ValueError("payload length does not match the parameters")
    a = weight(u) % (2 * t + 1)
    values = _prefix_grid(*_prefix_arrays(u), 4 * t, p.field)
    grid = dict(zip(_grid_points(t), values.ravel().tolist()))
    sbar = bblock_code(p.msg_len, t).encode(_grid_to_bits(a, grid, p))
    z = _parity_block(sbar)
    s = "0" * (p.r_hat // 2) + u + z[::-1]
    if len(s) != p.n:
        raise RuntimeError(f"codeword length {len(s)} != n = {p.n}")
    return s


def etn_split(s: str, t: int) -> tuple[str, str, str]:
    """(zero prefix, payload, parity suffix) of a codeword-shaped string."""
    p = poly_params_from_length(len(s), t)
    half = p.r_hat // 2
    return s[:half], s[half:half + p.nu], s[half + p.nu:]


def _zero_run_eval(m: int, l2: int, field: PrimeField) -> int:
    """P of 0^m at y = alpha^l2: the geometric sum over y^0..y^m."""
    q, alpha = field.q, field.alpha
    y = pow(alpha, l2 % (q - 1), q)
    if y == 1:
        return (m + 1) % q
    return (pow(y, m + 1, q) - 1) * field.inv(y - 1) % q


def _reconstruct_known_shell(obs, pre_len: int, suffix: str,
                             sigma, total_wt: int) -> str:
    """Rebuild the string when prefix zeros and the suffix are already known.

    The only free region is the payload window; its mirrored pairs follow the
    sigma sequence, and each ambiguous pair (sigma = 1) is settled by matching
    the fully determined level n-i of the corrected multiset.  Payload
    prefix/suffix weights always differ there, so exactly one branch fits.
    """
    n = obs.n
    h = n // 2
    s = np.full(n, -1, dtype=np.int64)
    s[:pre_len] = 0
    s[n - len(suffix):] = np.frombuffer(suffix.encode("ascii"), np.uint8) - ord("0")
    sig = np.asarray(sigma[:h], dtype=np.int64)
    # pair i holds s_i and s_(n+1-i): a views s, b is written back at the end
    a, b = s[:h], s[::-1][:h].copy()
    known = (a >= 0) & (b >= 0)
    bad = np.flatnonzero(known & (a + b != sig))
    if bad.size:
        raise ReconstructionFailure(
            f"sigma disagrees with the known shell at pair {bad[0] + 1}")
    free = ~known
    a[free] = b[free] = sig[free] // 2  # sigma 0 or 2; sigma 1 is settled next
    for k in np.flatnonzero(free & (sig != 0) & (sig != 2)).tolist():
        # level n-i, i = k+1, holds i+1 elements: all but a length-j prefix
        # and a length-(i-j) suffix, weighing total_wt - pw_j - sw_(i-j)
        level = n - k - 1
        observed = obs.level_counter(level)
        counts = np.zeros(level + 1, dtype=np.int64)
        counts[list(observed)] = list(observed.values())
        picked = []
        for ca in (0, 1):
            a[k], b[k] = ca, 1 - ca
            pw = np.concatenate(([0], np.cumsum(a[:k + 1])))
            sw = np.concatenate(([0], np.cumsum(b[:k + 1])))
            wts = total_wt - pw - sw[::-1]
            if wts.min() >= 0 and np.array_equal(
                    np.bincount(wts, minlength=level + 1), counts):
                picked.append(ca)
        if len(picked) != 1:
            raise ReconstructionFailure(
                f"pair {k + 1} is not settled by level {level}")
        a[k], b[k] = picked[0], 1 - picked[0]
    s[n - h:] = b[::-1]
    if n % 2:
        mid = sigma[(n + 1) // 2 - 1]
        if mid not in (0, 1):
            raise ReconstructionFailure("middle entry out of range")
        s[h] = mid
    return _bits_str(s)


def etn_decode(c, t: int) -> str:
    """Recover the payload from a multiset with at most t symmetric errors.

    Failure modes raise distinct types: BlockCodeFailure when the weight
    parities cannot be corrected, SparsityExceeded when the error trace does
    not fit the sparse model, ReconstructionFailure when the corrected
    multiset does not assemble back into a string.
    """
    obs = as_observation(c)
    p = poly_params_from_length(obs.n, t)
    n, q, alpha = p.n, p.field.q, p.field.alpha
    half = p.r_hat // 2
    w_obs = obs.weight_profile()
    received = (w_obs[1:half:2] % 2).tolist()
    try:
        msg = bblock_code(p.msg_len, t).decode(received)
    except ValueError as e:
        raise BlockCodeFailure(f"weight parities undecodable: {e}") from e
    sbar = bblock_code(p.msg_len, t).encode(msg)
    a, u_grid = _bits_to_grid(msg, p)
    z = _parity_block(sbar)
    zeta = z[::-1]
    wt_z = z.count("1")
    wt_u = resolve_weight(int(w_obs[0]) - wt_z, a, t, p.nu)
    d_x = wt_u + wt_z
    d_y = n - d_x
    d_xu, d_yu = wt_u, p.nu - wt_u
    R = 4 * t
    z_grid = _prefix_grid(*_prefix_arrays(zeta), R, p.field)
    p_grid = {}
    F = {}
    for l1, l2 in _grid_points(t):
        pu = u_grid[(l1, l2)]
        pz = int(z_grid[l1 + R, l2 + R])
        ps = (_zero_run_eval(half, l2, p.field)
              + pow(alpha, (l2 * half) % (q - 1), q) * (pu - 1)
              + pow(alpha, (l1 * d_xu + l2 * (half + d_yu)) % (q - 1), q)
              * (pz - 1)) % q
        p_grid[(l1, l2)] = ps
        scale = pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q)
        F[(l1, l2)] = scale * (n + 1 + obs.sym_eval(l1, l2, p.field)) % q
    error = recover_error_poly(F, p_grid, d_x, d_y, t, p.field, n)
    fixed = obs.correct(error)
    w = fixed.weight_profile()
    if w[0] != d_x or w[n - 1] != d_x:
        raise ReconstructionFailure("corrected weights disagree with wt(s)")
    sigma = sigma_from_weights(w.tolist(), n)
    s = _reconstruct_known_shell(fixed, half, zeta, sigma, d_x)
    if not np.array_equal(_string_weight_profile(s), w):
        raise ReconstructionFailure("reassembled string misses the multiset")
    return s[half:half + p.nu]


def etn_encode_info(info: str, t: int) -> str:
    """Info bits -> reconstructable payload -> codeword."""
    return etn_encode(sr_encode(info, 0), t)


def etn_decode_info(c, k: int, t: int) -> str:
    return sr_decode(etn_decode(c, t), k, 0)


def etn_redundancy(k: int, t: int) -> int:
    u_len = len(sr_encode("0" * k, 0))
    return poly_params_from_payload(u_len, t).n - k


# -- the Catalan-path code --------------------------------------------------
# Ranks are lexicographic.  Reversed, bit-swapped and behind a leading 0, the
# prefix-dominated completions of rem bits from 0-surplus d are the CB strings
# of length rem+1 with (rem-d)/2 ones, which cb_count counts.


def catalan_number(h: int) -> int:
    return cb_count(2 * h + 1, h)


def catalan_rank(s: str) -> int:
    """Rank among the balanced prefix-dominated strings of the same length."""
    check_bits(s)
    if len(s) % 2:
        raise ValueError("balanced strings have even length")
    d = 0
    r = 0
    rem = len(s)
    for ch in s:
        rem -= 1
        if ch == "1":
            r += cb_count(rem + 1, (rem - d - 1) // 2)
            d -= 1
        else:
            d += 1
        if d < 0:
            raise ValueError("prefix dominance violated")
    if d:
        raise ValueError("string is not balanced")
    return r


def catalan_unrank(r: int, h: int) -> str:
    if not 0 <= r < catalan_number(h):
        raise ValueError("rank out of range")
    out = []
    d = 0
    rem = 2 * h
    for _ in range(2 * h):
        rem -= 1
        c0 = cb_count(rem + 1, (rem - d - 1) // 2)
        if r < c0:
            out.append("0")
            d += 1
        else:
            r -= c0
            out.append("1")
            d -= 1
    return "".join(out)


def catalan_code_params(k: int, t: int) -> int:
    """Smallest even length whose Catalan middle holds 2^k messages."""
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    h = 1
    while catalan_number(h) < 2 ** k:
        h += 1
    return 2 * h + 2 * (4 * t + 1)


def catalan_code_encode(info: str, t: int, n: int | None = None) -> str:
    if info:
        check_bits(info)
    k = len(info)
    if n is None:
        n = catalan_code_params(k, t)
    pad = 4 * t + 1
    mid = n - 2 * pad
    if n % 2 or mid < 2:
        raise ValueError("length must be even with a nonempty middle")
    rank = int(info, 2) if info else 0
    if rank >= catalan_number(mid // 2):
        raise ValueError("info too long for the codebook")
    return "0" * pad + catalan_unrank(rank, mid // 2) + "1" * pad


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


def _mirror_mismatches(w, n: int):
    return [l for l in range(1, n // 2 + 1) if w[l - 1] != w[n - l]]


def _consistent(c: CompositionMultiset) -> bool:
    w = cumulative_weights(c)
    if _mirror_mismatches(w, c.n):
        return False
    try:
        sigma_from_weights(w, c.n)
    except (CorruptedInput, ValueError):
        return False
    return True


def _revert_candidates(c: CompositionMultiset, budget: int):
    """Lazily yield mirror-consistent multisets reachable by <= budget reverts.

    A revert swaps one element for a different same-length composition.  Each
    revert changes exactly one level weight, so a candidate needs at least one
    revert per mirror-mismatched level pair; branches that cannot rebalance
    within the budget are pruned before any copy is made.
    """
    w = cumulative_weights(c)
    mism = _mirror_mismatches(w, c.n)
    if not mism and _consistent(c):
        yield c.copy()
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
        cost_after = len(mism) - 1 if (level in mism or other in mism) \
            else len(mism) + 1
        if cost_after > budget - 1:
            continue
        for rm in sorted(c.levels[level]):
            if mism and budget == len(mism):
                # the revert must rebalance this pair exactly
                delta = w[other - 1] - w[level - 1]
                adds = [rm + delta] if 0 <= rm + delta <= level else []
            else:
                adds = [v for v in range(level + 1) if v != rm]
            for add in adds:
                if add == rm:
                    continue
                cc = c.copy()
                cc.replace(level, rm, add)
                yield from _revert_candidates(cc, budget - 1)


def catalan_code_decode_bruteforce(c: CompositionMultiset, t: int) -> str:
    """The unique codeword whose multiset is within t replacements.

    Pairwise codeword multisets differ in at least 4t+1 elements, so at most
    one codeword can explain the observation; none or several signal a
    violated error model.
    """
    c.validate_shape()
    pad = 4 * t + 1
    if c.n % 2 or c.n < 2 * pad + 2:
        raise ValueError("length incompatible with the code format")
    found = set()
    for cand in _revert_candidates(c, t):
        try:
            strings = reconstruct(cand)
        except ReconstructionFailure:
            continue
        for s in strings:
            if is_catalan_codeword(s, t):
                found.add(s)
    if not found:
        raise ReconstructionFailure("no codeword within the error budget")
    if len(found) > 1:
        raise ReconstructionFailure("ambiguous: multiple codewords fit")
    return found.pop()
