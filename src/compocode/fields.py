"""Finite-field machinery on two field types.

* ``PrimeField(q, alpha)``: GF(q) for a prime q with a primitive element
  alpha; elements are plain ints in [0, q).
* ``GF(p, m)``: GF(p^m) with log/antilog tables.  Elements are packed base-p
  ints whose digit i is the coefficient of x^i.  Multiplication goes through
  the log tables and addition through a Zech-logarithm table.

Both expose add/sub/mul/inv, so one Berlekamp-Massey serves the sparse
polynomial recovery over GF(q), the systematic erasure code over the ternary
alphabet (built on GF(3^e)) and the systematic binary BCH codes of minimum
distance 2t+1 (built on GF(2^m)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
    """alpha^i mod q for i = 0..q-2, as an int64 array for bulk evaluation."""
    q, alpha = field.q, field.alpha
    out = np.empty(q - 1, dtype=np.int64)
    v = 1
    for i in range(q - 1):
        out[i] = v
        v = v * alpha % q
    return out


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


def _solve_linear(mat, rhs, q):
    """Gaussian elimination over GF(q); mat is square and expected invertible."""
    k = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] % q), None)
        if piv is None:
            raise SparsityExceeded("locator roots are not distinct")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], q - 2, q)
        a[col] = [v * inv % q for v in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % q for v, w in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


@lru_cache(maxsize=64)
def _scan_table(field: PrimeField, j: int) -> np.ndarray:
    """alpha^(-e*j) for e = 0..q-2, the j-th column of the full root scan."""
    es = np.arange(field.q - 1, dtype=np.int64)
    return alpha_power_table(field)[(-es * j) % (field.q - 1)]


def sparse_interpolate(evals, T: int, field: PrimeField) -> dict[int, int]:
    """Recover a polynomial with <= T nonzero terms from its values at
    alpha^l, l = -T..T (evals[i] = E(alpha^(i-T))).

    Returns {exponent: coefficient} over exponents 0..q-2.  Raises
    SparsityExceeded when no such polynomial reproduces the evaluations.
    """
    q, alpha = field.q, field.alpha
    if len(evals) != 2 * T + 1:
        raise ValueError("need exactly 2T+1 evaluations")
    seq = [v % q for v in evals]
    if all(v == 0 for v in seq):
        return {}
    lam = _berlekamp_massey(seq, field)
    L = len(lam) - 1
    if L > T:
        raise SparsityExceeded(f"locator degree {L} exceeds the bound {T}")
    # Lambda(alpha^-e) for every e at once, from cached per-degree columns;
    # each term is below q^2 and L <= T, so one reduction at the end is exact
    acc = np.zeros(q - 1, dtype=np.int64)
    for j, c in enumerate(lam):
        if c:
            acc += c * _scan_table(field, j)
    roots = np.flatnonzero(acc % q == 0).tolist()
    if len(roots) != L:
        raise SparsityExceeded(
            f"locator has {len(roots)} roots in range, expected {L}")
    xs = [pow(alpha, e, q) for e in roots]
    mat = [[pow(x, i, q) for x in xs] for i in range(L)]
    shifted = _solve_linear(mat, seq[:L], q)  # c_j * X_j^(-T)
    coeffs = [c * pow(x, T, q) % q for c, x in zip(shifted, xs)]
    poly = {e: c for e, c in zip(roots, coeffs) if c}
    # confirm against every provided evaluation
    for i, v in enumerate(seq):
        ell = i - T
        acc = 0
        for e, c in poly.items():
            acc = (acc + c * pow(alpha, (e * ell) % (q - 1), q)) % q
        if acc != v:
            raise SparsityExceeded("evaluations inconsistent with any sparse fit")
    return poly


# -- the ternary erasure code over GF(3^e) ----------------------------------


def ternary_field_params(msg_digits: int, n_era: int) -> int:
    """Smallest extension degree e fitting message symbols plus n_era parity."""
    e = 1
    while 3 ** e - 1 < -(-msg_digits // e) + n_era:
        e += 1
    return e


def _rs_interpolate_eval(F: GF, pts, targets):
    """From (x, y) pairs with distinct x, evaluate the interpolant at targets.

    Barycentric form (Berrut & Trefethen, SIAM Review 2004): with node
    weights v_i = 1 / prod_{j != i} (x_i - x_j), computed once, the value at
    x is l(x) * sum_i v_i y_i / (x - x_i), l(x) = prod_i (x - x_i).  A target
    that is itself a node takes that node's y.
    """
    vy = []
    for i, (xi, yi) in enumerate(pts):
        den = 1
        for j, (xj, _) in enumerate(pts):
            if i != j:
                den = F.mul(den, F.sub(xi, xj))
        vy.append(F.mul(yi, F.inv(den)))
    at_node = {x: y for x, y in pts}
    out = []
    for xt in targets:
        if xt in at_node:
            out.append(at_node[xt])
            continue
        ell, acc = 1, 0
        for (xi, _), c in zip(pts, vy):
            d = F.sub(xt, xi)
            ell = F.mul(ell, d)
            acc = F.add(acc, F.mul(c, F.inv(d)))
        out.append(F.mul(ell, acc))
    return out


def ternary_erasure_encode(msg, n_era: int) -> list[int]:
    """Systematic erasure code over {0,1,2}: message digits verbatim, then
    n_era extension-field check symbols spelled out as ternary digits.

    Any n_era erased digit positions remain correctable, since each erased
    digit costs at most one field symbol.
    """
    msg = list(msg)
    if any(d not in (0, 1, 2) for d in msg):
        raise ValueError("message digits must be ternary")
    if n_era == 0:
        return msg
    e = ternary_field_params(len(msg), n_era)
    F = _field(3, e)
    K = -(-len(msg) // e)
    padded = msg + [0] * (K * e - len(msg))
    syms = [F.pack(padded[i * e:(i + 1) * e]) for i in range(K)]
    xs = [F.antilog[i] for i in range(K + n_era)]  # distinct nonzero points
    pts = list(zip(xs[:K], syms))
    parity = _rs_interpolate_eval(F, pts, xs[K:])
    out = msg[:]
    for p in parity:
        out.extend(F.digits(p))
    return out


def ternary_erasure_decode(word, msg_len: int, n_era: int) -> list[int]:
    """Recover the message from a codeword with erased digits marked None."""
    word = list(word)
    if any(d not in (0, 1, 2, None) for d in word):
        raise ValueError("codeword digits must be ternary or None")
    if n_era == 0:
        if any(d is None for d in word):
            raise EraseBudgetExceeded("erasures present but no redundancy")
        return word[:msg_len]
    e = ternary_field_params(msg_len, n_era)
    F = _field(3, e)
    K = -(-msg_len // e)
    if len(word) != msg_len + n_era * e:
        raise ValueError("codeword length inconsistent with parameters")
    padded = word[:msg_len] + [0] * (K * e - msg_len) + word[msg_len:]
    xs = [F.antilog[i] for i in range(K + n_era)]
    known = []
    for i in range(K + n_era):
        chunk = padded[i * e:(i + 1) * e]
        if all(d is not None for d in chunk):
            known.append((xs[i], F.pack(chunk)))
    if len(known) < K:
        raise EraseBudgetExceeded(
            f"only {len(known)} intact symbols, need {K}")
    msg_syms = _rs_interpolate_eval(F, known[:K], xs[:K])
    digits = []
    for s in msg_syms:
        digits.extend(F.digits(s))
    return digits[:msg_len]


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
        received = list(received)
        if len(received) != self.code_len:
            raise ValueError("codeword length mismatch")
        f, t = self.f, self.t
        synd = self._syndromes(received)
        if all(s == 0 for s in synd):
            return received[:self.msg_len]
        lam = _berlekamp_massey(synd, f)
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
        fixed = received[:]
        for idx in roots.tolist():
            fixed[idx] ^= 1
        if any(self._syndromes(fixed)):
            raise ValueError("correction did not cancel the syndromes")
        return fixed[:self.msg_len]


# the shared distance-(2t+1) code for msg_len-bit messages
bblock_code = lru_cache(maxsize=None)(BCHCode)
