"""Finite-field machinery on two field types.

* ``PrimeField(q, alpha)``: GF(q) for a prime q with a primitive element
  alpha; elements are plain ints in [0, q).
* ``GF(p, m)``: GF(p^m) with log/antilog tables.  Elements are packed base-p
  ints whose digit i is the coefficient of x^i.  Multiplication goes through
  the log tables and addition through a Zech-logarithm table.

Both expose add/sub/mul/inv, so one Berlekamp-Massey serves the sparse
polynomial recovery over GF(q), the systematic erasure code over the ternary
alphabet (built on GF(3^e)) and the systematic binary BCH codes of minimum
distance 2t+1 (built on GF(2^m)).  Both codes' decoders return the whole
corrected codeword, message first, so no caller re-encodes what it decoded.

On the (2R+1)^2 grid x = alpha^l1, y = alpha^l2 over GF(q),
``monomial_grid`` evaluates a signed sum of monomials as float64 matrix
products; it serves a multiset delta, a lone shift, and ``prefix_grid``,
which sums a bit string's prefix polynomial one run of prefixes at a time
(those holding v ones), in O(n + R^2 wt) instead of O(R^2 n) for one term
per prefix.

Only sym-poly's machinery uses numpy, and it imports numpy on first call:
``alpha_power_table``, ``monomial_grid``, ``prefix_grid``, ``_scan_table``,
``sparse_support`` (under ``sparse_interpolate``) and ``BCHCode``.  The
ternary erasure code of asym1 and asym-t loads none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul


class SparsityExceeded(ValueError):
    """The evaluations are not explained by any polynomial within the bound."""


class EraseBudgetExceeded(ValueError):
    """Too many erased symbols for the designed redundancy."""


# -- small number theory (trial division; every shipped q is below ~2^16) ---


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _has_order(power, order: int, one) -> bool:
    """g has multiplicative order `order`, given power(e) = g^e."""
    return power(order) == one and all(
        power(order // r) != one for r in _prime_factors(order))


def _generates(alpha: int, q: int) -> bool:
    """alpha has multiplicative order q-1 modulo the prime q."""
    return _has_order(lambda e: pow(alpha, e, q), q - 1, 1)


# -- prime fields ----------------------------------------------------------


@dataclass(frozen=True)
class PrimeField:
    q: int
    alpha: int

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if not _generates(self.alpha, self.q):
            raise ValueError(f"{self.alpha} does not generate GF({self.q})*")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        return pow(a, self.q - 2, self.q)


@lru_cache(maxsize=None)
def alpha_power_table(field: PrimeField) -> np.ndarray:
    """alpha^i mod q for i = 0..q-2 as int32: it gathers faster; products need int64."""
    import numpy as np
    q, alpha = field.q, field.alpha
    out = np.empty(q - 1, dtype=np.int32)
    v = 1
    for i in range(q - 1):
        out[i] = v
        v = v * alpha % q
    return out


_EXACT_SUM = 2 ** 53  # float64 sums of nonnegative integers stay exact up to this
_BLOCK = 1 << 16      # terms per block: memory is O(R * _BLOCK)


def monomial_grid(xe, ye, R: int, field: PrimeField, mult=None) -> np.ndarray:
    """sum_i mult_i x^xe_i y^ye_i at x = alpha^l1, y = alpha^l2, mod q.

    Returns the grid l1, l2 in -R..R at [l1 + R, l2 + R]; mult defaults to
    all ones.  The terms go in blocks, each one float64 matrix product of
    X[l1, i] = mult_i alpha^(l1 xe_i) and Y[i, l2] = alpha^(l2 ye_i) mod q.
    A block holds at most _BLOCK terms, and few enough that its sums of
    products below q^2 stay exact integers, so q - 1 may not pass 2^26.5.
    """
    import numpy as np
    q = field.q
    if (q - 1) ** 2 > _EXACT_SUM:
        raise ValueError(f"GF({q}) is too large for an exact float64 grid")
    table = alpha_power_table(field)
    ls = np.arange(-R, R + 1)
    span = min(_BLOCK, _EXACT_SUM // (q - 1) ** 2)
    out = np.zeros((len(ls), len(ls)))
    for lo in range(0, len(xe), span):
        # mode="wrap" reduces the exponents mod q - 1
        x = np.take(table, np.outer(ls, xe[lo:lo + span]), mode="wrap")
        if mult is not None:
            x = x * (mult[lo:lo + span] % q) % q
        y = np.take(table, np.outer(ls, ye[lo:lo + span]), mode="wrap")
        out += np.fmod(x.astype(np.float64) @ y.T.astype(np.float64), q)
    return out.astype(np.int64) % q


def prefix_grid(s: str, R: int, field: PrimeField) -> np.ndarray:
    """The prefix polynomial of the bit string s on monomial_grid's grid.

    P sums x^(ones) y^(zeros) over the prefixes of s.  Let e_v count the
    zeros before the v-th one, e_0 = 0 and e_(wt+1) = n - wt.  The prefixes
    holding v ones have e_v..e_(v+1) zeros, so with A = sum_v x^v y^(e_v)
    over v = 0..wt,
        P (y - 1) = sum_v x^v (y^(e_(v+1) + 1) - y^(e_v))
                  = x^-1 y (A - 1) + x^wt y^(n - wt + 1) - A,
    and where y = 1 the run lengths e_(v+1) - e_v + 1 weight the x^v
    instead: one grid of wt + 1 terms and one vector, O(n + R^2 wt) in all.
    """
    import numpy as np
    q, n = field.q, len(s)
    pos = np.flatnonzero(np.frombuffer(s.encode("ascii"), np.uint8) == ord("1"))
    wt = len(pos)
    vs = np.arange(wt + 1)
    e = np.concatenate(([0], pos - vs[:-1], [n - wt]))
    a = monomial_grid(vs, e[:-1], R, field)
    grid = (monomial_grid(np.array([-1]), np.array([1]), R, field) * (a - 1)
            + monomial_grid(np.array([wt]), np.array([n - wt + 1]), R, field)
            - a) % q
    table, ls = alpha_power_table(field), np.arange(-R, R + 1)
    y = np.take(table, ls, mode="wrap")
    grid = grid * [1 if v == 1 else pow(int(v) - 1, -1, q) for v in y] % q
    x = np.take(table, np.outer(ls, vs), mode="wrap")
    grid[:, y == 1] = (x * ((np.diff(e) + 1) % q) % q).sum(1, keepdims=True) % q
    return grid


@lru_cache(maxsize=None)
def field_setup(n: int) -> PrimeField:
    """Smallest prime q with q - 1 > 2n, and its smallest primitive element.

    The strict inequality keeps the exponents 0..2n distinct mod q-1, so a
    degree-2n polynomial's terms cannot alias under x^(q-1) = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = 2 * n + 2
    while not _is_prime(q):
        q += 1
    return PrimeField(q, next(g for g in range(1, q) if _generates(g, q)))


# -- extension fields GF(p^m) ----------------------------------------------


def _x_power(n: int, low: list[int], p: int) -> list[int]:
    """x^n modulo x^m + low(x) over GF(p), as m digits, low-order first."""
    m = len(low)

    def mulmod(a, b):
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for d in range(2 * m - 2, m - 1, -1):  # x^d = -x^(d-m) low(x)
            c = prod[d] % p
            if c:
                for j, rj in enumerate(low):
                    prod[d - m + j] -= c * rj
        return [v % p for v in prod[:m]]

    base = [0, 1] + [0] * (m - 2) if m > 1 else [-low[0] % p]
    out = [1] + [0] * (m - 1)
    while n:
        if n & 1:
            out = mulmod(out, base)
        base = mulmod(base, base)
        n >>= 1
    return out


def _primitive_modulus(p: int, m: int) -> int:
    """The first monic x^m + r(x), packed, whose residue class of x is primitive.

    Candidates are scanned in increasing packed order.  x is primitive iff
    x^(p^m-1) = 1 and x^((p^m-1)/r) != 1 for each prime r of p^m-1; such a
    modulus is necessarily irreducible.
    """
    one = [1] + [0] * (m - 1)
    for code in range(p ** m):
        low = [code // p ** i % p for i in range(m)]
        if _has_order(lambda e: _x_power(e, low, p), p ** m - 1, one):
            return p ** m + code
    raise RuntimeError(f"no primitive modulus for GF({p}^{m})")  # unreachable


class GF:
    """GF(p^m) over packed base-p ints, with log, antilog and Zech tables.

    antilog[i] = x^i modulo the first primitive modulus (see
    `_primitive_modulus`), log inverts it, and zech[i] = log(1 + x^i), or -1
    where 1 + x^i = 0.
    """

    def __init__(self, p: int, m: int):
        if not _is_prime(p) or m < 1:
            raise ValueError(f"GF({p}^{m}) needs a prime p and m >= 1")
        self.p, self.m = p, m
        self.order = p ** m - 1
        self.modulus = _primitive_modulus(p, m)
        # multiply by x: shift the digits up one place, then fold the overflowing
        # digit c back in as c * x^m = -c * r(x), r the modulus's m low digits
        top = p ** (m - 1)
        fold = [self.pack([-c * d % p for d in self.digits(self.modulus)])
                for c in range(p)]
        antilog = [0] * self.order
        v = 1
        for i in range(self.order):
            antilog[i] = v
            c, low = divmod(v, top)
            v = self._add_digits(low * p, fold[c]) if c else low * p
        self.antilog = antilog
        self.log = [-1] * (self.order + 1)
        for i, v in enumerate(antilog):
            self.log[v] = i
        # 1 + a changes only digit 0 of a
        self.zech = [self.log[v - v % p + (v + 1) % p] for v in antilog]

    def _add_digits(self, a: int, b: int) -> int:
        out, place = 0, 1
        while a or b:
            out += (a + b) % self.p * place
            a //= self.p
            b //= self.p
            place *= self.p
        return out

    def pack(self, digits) -> int:
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def digits(self, v: int) -> list[int]:
        return [v // self.p ** i % self.p for i in range(self.m)]

    def pow_alpha(self, e: int) -> int:
        return self.antilog[e % self.order]

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.order]
        return 0 if z < 0 else self.antilog[(la + z) % self.order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.mul(self.p - 1, b))  # p - 1 is -1

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self.antilog[-self.log[a] % self.order]


_field = lru_cache(maxsize=None)(GF)  # shared GF(p, m) instances


# -- Berlekamp-Massey over either field type -------------------------------


def _berlekamp_massey(seq, F) -> list[int]:
    """Shortest LFSR [1, c_1, .., c_L] with s_i = -sum c_j s_{i-j} over F."""
    C = [1]
    B = [1]
    L, m, b = 0, 1, 1
    for i, s in enumerate(seq):
        d = s
        for j in range(1, L + 1):
            d = F.add(d, F.mul(C[j], seq[i - j]))
        if d == 0:
            m += 1
            continue
        T = C[:]
        coef = F.mul(d, F.inv(b))
        C = C + [0] * max(0, len(B) + m - len(C))
        for j, bj in enumerate(B):
            C[j + m] = F.sub(C[j + m], F.mul(coef, bj))
        if 2 * L <= i:
            L, B, b, m = i + 1 - L, T, d, 1
        else:
            m += 1
    return C[:L + 1]


# -- sparse recovery from power evaluations --------------------------------


class SupportFit:
    """Fits values E(alpha^l), l = -T..T, on a fixed support of L <= T exponents:
    the inverse Vandermonde matrix of the support at the first L points solves
    for the coefficients, and each term's value at every point checks them."""

    def __init__(self, support, T: int, field: PrimeField):
        q, alpha = field.q, field.alpha
        self.q, self.support = q, tuple(support)
        xs = [pow(alpha, e, q) for e in self.support]
        self.powers = [[pow(x, l, q) for x in xs] for l in range(-T, T + 1)]
        # row j: X_j^T prod_{m != j} (z - X_m) / (X_j - X_m), low power first
        self.inverse = []
        for x in xs:
            row = [pow(x, T, q)]
            for y in (y for y in xs if y != x):
                s = pow(x - y, -1, q)
                row = [(lo - y * hi) * s % q for lo, hi in zip([0, *row], [*row, 0])]
            self.inverse.append(row)

    def __call__(self, seq) -> dict[int, int] | None:
        """The fit of seq (values in [0, q)) without its zero terms, or None."""
        coeffs = [sum(map(mul, row, seq)) % self.q for row in self.inverse]
        fits = all(sum(map(mul, row, coeffs)) % self.q == v
                   for row, v in zip(self.powers, seq))
        return {e: c for e, c in zip(self.support, coeffs) if c} if fits else None


@lru_cache(maxsize=64)
def _scan_table(field: PrimeField, j: int) -> np.ndarray:
    """alpha^(-e*j) for e = 0..q-2, the j-th column of the full root scan."""
    import numpy as np
    es = np.arange(field.q - 1, dtype=np.int64)
    return alpha_power_table(field)[(-es * j) % (field.q - 1)].astype(np.int64)


def sparse_support(evals, T: int, field: PrimeField) -> list[int]:
    """The exponents, ascending, of the <= T terms that sparse_interpolate fits to
    evals (values in [0, q)): the roots of their Berlekamp-Massey locator, unchecked."""
    import numpy as np
    if len(evals) != 2 * T + 1:
        raise ValueError("need exactly 2T+1 evaluations")
    lam = _berlekamp_massey(evals, field)
    L = len(lam) - 1
    if L > T:
        raise SparsityExceeded(f"locator degree {L} exceeds the bound {T}")
    # Lambda(alpha^-e) for every e at once, from cached per-degree columns;
    # each term is below q^2 and L <= T, so one reduction at the end is exact
    acc = sum(c * _scan_table(field, j) for j, c in enumerate(lam) if c)
    roots = np.flatnonzero(acc % field.q == 0).tolist()
    if len(roots) != L:
        raise SparsityExceeded(f"locator has {len(roots)} roots in range, expected {L}")
    return roots


def sparse_interpolate(evals, T: int, field: PrimeField) -> dict[int, int]:
    """Recover a polynomial with <= T nonzero terms from its values at alpha^l,
    l = -T..T (evals[i] = E(alpha^(i-T))), as {exponent: coefficient} over exponents
    0..q-2.  Raises SparsityExceeded when no such polynomial reproduces them."""
    # the L <= T roots are distinct and alpha is primitive, so the Vandermonde
    # solve succeeds; the locator's LFSR generates all 2T+1 values, so each is
    # sum_k c_k alpha^(e_k l) and the fit on the first L points passes
    seq = [v % field.q for v in evals]
    return SupportFit(sparse_support(seq, T, field), T, field)(seq)


# -- the ternary erasure code over GF(3^e) ----------------------------------


def ternary_field_params(msg_digits: int, n_era: int) -> int:
    """Smallest extension degree e fitting message symbols plus n_era parity."""
    e = 1
    while 3 ** e - 1 < -(-msg_digits // e) + n_era:
        e += 1
    return e


def _rs_interpolate_eval(F: GF, pts, N: int) -> list[int]:
    """The interpolant through the points (alpha^a, y), from (a, y) pairs with
    distinct a < N <= F.order, at alpha^0..alpha^(N-1).

    Barycentric form (Berrut & Trefethen, SIAM Review 2004): l(x) times
    sum_i v_i y_i / (x - x_i), with l(x) = prod_i (x - x_i) and weights
    v_i = 1 / prod_{j != i} (x_i - x_j); a node takes its own y.  With
    alpha^h = -1, log(alpha^a - alpha^b) = a + zech[(b - a + h) % order], so
    the sum over every b != a below N is (N - 1) a + P(N - 1 - a) + M(a),
    P and M the prefix sums of zech[(h + c) % order] and zech[(h - c) % order]
    over c >= 1.  Taking out the missing points' terms gives each v_i and
    each missing point's l(x): O(N m) for m missing points, and K F.add
    calls for each.
    """
    order, zech, antilog = F.order, F.zech, F.antilog
    h = F.log[F.p - 1]  # p - 1 is -1
    P, M = [0], [0]
    for c in range(1, N):
        P.append(P[-1] + zech[(h + c) % order])
        M.append(M[-1] + zech[(h - c) % order])
    at_node = dict(pts)
    missing = [a for a in range(N) if a not in at_node]

    def log_prod(a):  # log prod (alpha^a - alpha^b) over the nodes b != a
        others = [b for b in missing if b != a]
        return ((N - 1 - len(others)) * a + P[N - 1 - a] + M[a]
                - sum(zech[(b - a + h) % order] for b in others))

    log_vy = [(a, F.log[y] - log_prod(a)) for a, y in pts if y]
    out = []
    for t in range(N):
        if t in at_node:
            out.append(at_node[t])
            continue
        acc = 0
        for a, lv in log_vy:  # v_i y_i / (x_t - x_i)
            acc = F.add(acc, antilog[(lv - t - zech[(a - t + h) % order]) % order])
        out.append(antilog[(F.log[acc] + log_prod(t)) % order] if acc else 0)
    return out


def _ternary_complete(word, msg_len: int, n_era: int) -> list[int]:
    """The codeword that the first K intact field symbols of word fix, with
    erased digits marked None: message digits first, then the check digits.

    The message, zero-padded to K symbols of e digits, and the n_era check
    symbols sit at the points alpha^0, alpha^1, ...; the interpolant through
    the first K intact symbols is evaluated at every point.  A codeword's pad
    digits are zero, so a nonzero one means that no codeword fits.
    """
    e = ternary_field_params(msg_len, n_era)
    F = _field(3, e)
    K = -(-msg_len // e)
    if len(word) != msg_len + n_era * e:
        raise ValueError("codeword length inconsistent with parameters")
    padded = word[:msg_len] + [0] * (K * e - msg_len) + word[msg_len:]
    chunks = [padded[i * e:(i + 1) * e] for i in range(K + n_era)]
    known = [(a, F.pack(c)) for a, c in enumerate(chunks) if None not in c]
    if len(known) < K:
        raise EraseBudgetExceeded(
            f"only {len(known)} intact symbols, need {K}")
    digits = [d for y in _rs_interpolate_eval(F, known[:K], K + n_era)
              for d in F.digits(y)]
    if any(digits[msg_len:K * e]):
        raise EraseBudgetExceeded("no codeword fits the intact symbols")
    return digits[:msg_len] + digits[K * e:]


def ternary_erasure_encode(msg, n_era: int) -> list[int]:
    """Systematic erasure code over {0,1,2}: message digits verbatim, then
    n_era extension-field check symbols spelled out as ternary digits.

    Any n_era erased digit positions remain correctable, since each erased
    digit costs at most one field symbol.
    """
    msg = list(msg)
    if any(d not in (0, 1, 2) for d in msg):
        raise ValueError("message digits must be ternary")
    e = ternary_field_params(len(msg), n_era)
    return _ternary_complete(msg + [None] * (n_era * e), len(msg), n_era)


def ternary_erasure_decode(word, msg_len: int, n_era: int) -> list[int]:
    """The whole codeword, message digits first, from a received word with
    erased digits marked None."""
    word = list(word)
    if any(d not in (0, 1, 2, None) for d in word):
        raise ValueError("codeword digits must be ternary or None")
    return _ternary_complete(word, msg_len, n_era)


# -- binary BCH codes of distance 2t+1 -------------------------------------


def _bch_roots(m: int, t: int) -> set[int]:
    """Exponents j of the roots alpha^j of the generator over GF(2^m): the
    union of the cyclotomic cosets of 1..2t modulo 2^m - 1."""
    order = (1 << m) - 1
    roots: set[int] = set()
    for i in range(1, 2 * t + 1):
        j = i
        while j not in roots:
            roots.add(j)
            j = (j * 2) % order
    return roots


def bch_shape(msg_len: int, t: int) -> tuple[int, int]:
    """(m, parity bits) of the distance-(2t+1) code for msg_len-bit messages.

    m is the smallest field degree from 3 up whose block length 2^m - 1
    holds the message plus the generator's degree, the size of the coset
    union; integers only, no field tables.
    """
    if t < 1:
        raise ValueError("a BCH code needs t >= 1")
    m = 2
    while True:
        m += 1
        if (1 << m) - 1 - m * t < msg_len:
            continue
        n_parity = len(_bch_roots(m, t))
        if (1 << m) - 1 - n_parity >= msg_len:
            return m, n_parity


class BCHCode:
    """Shortened narrow-sense BCH code with design distance 2t+1, systematic.

    Codeword layout: message bits first, then deg(g) parity bits; bit i of the
    parity block is the coefficient of x^i, message bit j sits at degree
    deg(g) + j of the code polynomial.
    """

    def __init__(self, msg_len: int, t: int):
        import numpy as np
        m, self.n_parity = bch_shape(msg_len, t)
        self.msg_len = msg_len
        self.t = t
        self.f = _field(2, m)
        self.g = self._generator(self.f, _bch_roots(m, t))
        self.code_len = msg_len + self.n_parity
        # g without its leading x^r term, as a bitmask (bit i = coefficient
        # of x^i), for the division in `encode`
        self._g_low = sum(c << i for i, c in enumerate(self.g[:-1]))
        self._antilog = np.array(self.f.antilog, dtype=np.int64)
        # bit index -> degree in the code polynomial
        self._degree = np.concatenate((
            np.arange(self.n_parity, self.code_len, dtype=np.int64),
            np.arange(self.n_parity, dtype=np.int64)))

    @staticmethod
    def _generator(f, roots):
        # g is the product of x + alpha^j over the roots, i.e. of their
        # minimal polynomials
        g = [1]
        for j in sorted(roots):  # g *= x + alpha^j, coefficients low first
            a = f.pow_alpha(j)
            g = [f.add(f.mul(a, c), prev) for c, prev in zip(g + [0], [0] + g)]
        if any(c not in (0, 1) for c in g):
            raise RuntimeError("generator polynomial is not binary")
        return g

    def _syndromes(self, word):
        """word(alpha^i) for i = 1..2t; all zero exactly on codewords."""
        import numpy as np
        degs = self._degree[np.flatnonzero(np.asarray(word, dtype=np.int64))]
        return [int(np.bitwise_xor.reduce(
                    self._antilog[degs * i % self.f.order], initial=0))
                for i in range(1, 2 * self.t + 1)]

    def encode(self, bits):
        bits = list(bits)
        if len(bits) != self.msg_len:
            raise ValueError("message length mismatch")
        r = self.n_parity
        g_low, mask = self._g_low, (1 << r) - 1
        rem = 0
        # msg(x) * x^r mod g, msb first: a shift register holding the
        # remainder, bit i the coefficient of x^i
        for b in reversed(bits):
            feedback = (rem >> (r - 1)) ^ b
            rem = (rem << 1) & mask
            if feedback:
                rem ^= g_low
        return bits + [(rem >> i) & 1 for i in range(r)]

    def decode(self, received):
        """The corrected codeword, message bits first."""
        import numpy as np
        received = list(received)
        if len(received) != self.code_len:
            raise ValueError("codeword length mismatch")
        f, t = self.f, self.t
        # all-zero syndromes give the locator [1], which has no root
        lam = _berlekamp_massey(self._syndromes(received), f)
        L = len(lam) - 1
        if L > t:
            raise ValueError("more errors than the design distance allows")
        # Chien search: Lambda(alpha^-deg) at every bit index at once, the
        # terms c_j alpha^(-j deg) summed (xor) through the log table
        acc = np.zeros(self.code_len, dtype=np.int64)
        for j, c in enumerate(lam):
            if c:
                acc ^= self._antilog[(f.log[c] - j * self._degree) % f.order]
        roots = np.flatnonzero(acc == 0)
        if len(roots) != L:
            raise ValueError("error locator failed to split over the block")
        # S_2i = S_i^2 for a binary word, so the L roots carry coefficient 1;
        # flipping them in this copy of the word zeroes all 2t syndromes
        for idx in roots.tolist():
            received[idx] ^= 1
        return received


# the shared distance-(2t+1) code for msg_len-bit messages
bblock_code = lru_cache(maxsize=None)(BCHCode)
