import itertools
import random

import pytest
import sympy

from compocode.fields import (
    GF,
    BCHCode,
    EraseBudgetExceeded,
    PrimeField,
    SparsityExceeded,
    SupportFit,
    _rs_interpolate_eval,
    bblock_code,
    bch_shape,
    field_setup,
    sparse_interpolate,
    sparse_support,
    ternary_erasure_decode,
    ternary_erasure_encode,
    ternary_field_params,
)


def evaluate_sparse(poly: dict[int, int], ell: int, field: PrimeField) -> int:
    """Oracle: E(alpha^ell) for a sparse polynomial {exponent: coefficient}."""
    q, alpha = field.q, field.alpha
    acc = 0
    for e, c in poly.items():
        acc = (acc + c * pow(alpha, (e * ell) % (q - 1), q)) % q
    return acc


def test_field_setup_small():
    f = field_setup(10)
    assert f.q == 23
    for p in sympy.factorint(f.q - 1):
        assert pow(f.alpha, (f.q - 1) // p, f.q) != 1


def test_field_setup_exponent_distinctness():
    for n in (1, 5, 17, 100):
        f = field_setup(n)
        assert f.q - 1 > 2 * n
        seen = {e % (f.q - 1) for e in range(2 * n + 1)}
        assert len(seen) == 2 * n + 1


def test_prime_field_rejects_non_generator():
    with pytest.raises(ValueError):
        PrimeField(7, 2)  # 2 has order 3 mod 7
    with pytest.raises(ValueError):
        PrimeField(8, 3)
    with pytest.raises(ValueError):
        PrimeField(101, 0)  # 0 is no unit, though 0^e never equals 1
    with pytest.raises(ValueError):
        PrimeField(101, 101)


def test_sparse_interpolate_zero():
    f = field_setup(20)
    assert sparse_interpolate([0] * 7, 3, f) == {}


def test_sparse_interpolate_monomial():
    f = PrimeField(101, sympy.primitive_root(101))
    rng = random.Random(1)
    for _ in range(50):
        e = rng.randrange(100)
        c = rng.randrange(1, 101)
        poly = {e: c}
        evals = [evaluate_sparse(poly, ell, f) for ell in range(-3, 4)]
        assert sparse_interpolate(evals, 3, f) == poly


def test_sparse_interpolate_random_many():
    f = field_setup(1000)
    rng = random.Random(2)
    for _ in range(300):
        T = rng.randint(1, 5)
        nterms = rng.randint(0, T)
        exps = rng.sample(range(f.q - 1), nterms)
        poly = {e: rng.randrange(1, f.q) for e in exps}
        evals = [evaluate_sparse(poly, ell, f) for ell in range(-T, T + 1)]
        assert sparse_interpolate(evals, T, f) == poly


def lfsr_sequence(rng, q, L, length):
    """length values mod q of a random recurrence of order L."""
    taps = [rng.randrange(q) for _ in range(L)]
    seq = [rng.randrange(q) for _ in range(L)]
    while len(seq) < length:
        seq.append(sum(c * v for c, v in zip(taps, seq[::-1])) % q)
    return seq[:length]


def test_sparse_support_returns_only_supports_that_fit():
    # why sparse_interpolate rechecks nothing: when the Berlekamp-Massey
    # locator has L <= T distinct roots, its LFSR generates all 2T+1 values,
    # so each is sum_k c_k alpha^(e_k l) and the fit on L points passes.
    # Exhaustive at T = 1 over GF(7) and GF(11); seeded at T = 2..4, from
    # random values, random recurrences of order <= T and sparse sums
    def cases():
        for q in (7, 11):
            f = PrimeField(q, sympy.primitive_root(q))
            for seq in itertools.product(range(q), repeat=3):
                yield list(seq), 1, f
        rng = random.Random(4)
        for q in (7, 11, 13, 101):
            f = PrimeField(q, sympy.primitive_root(q))
            for T in (2, 3, 4):
                for _ in range(150):
                    yield [rng.randrange(q) for _ in range(2 * T + 1)], T, f
                    yield lfsr_sequence(rng, q, rng.randint(1, T), 2 * T + 1), T, f
                    poly = {e: rng.randrange(1, q)
                            for e in rng.sample(range(q - 1), min(T, q - 1))}
                    yield [evaluate_sparse(poly, l, f) for l in range(-T, T + 1)], T, f
    fitted = 0
    for seq, T, f in cases():
        try:
            support = sparse_support(seq, T, f)
        except SparsityExceeded:
            continue
        assert SupportFit(support, T, f)(seq) is not None, (seq, T, f.q)
        assert sparse_interpolate(seq, T, f) == SupportFit(support, T, f)(seq)
        fitted += 1
    assert fitted > 2000


def test_sparse_interpolate_overfull_raises():
    f = PrimeField(101, sympy.primitive_root(101))
    rng = random.Random(3)
    failures = 0
    for _ in range(30):
        exps = rng.sample(range(100), 5)
        poly = {e: rng.randrange(1, 101) for e in exps}
        evals = [evaluate_sparse(poly, ell, f) for ell in range(-2, 3)]
        try:
            got = sparse_interpolate(evals, 2, f)
        except SparsityExceeded:
            failures += 1
        else:
            assert got != poly  # cannot silently return a wrong dense answer
    assert failures > 0


def test_ternary_field_tables():
    for p, ms in ((3, (1, 2, 3, 4)), (2, (3, 4, 5, 8))):
        for m in ms:
            F = GF(p, m)
            assert sorted(F.antilog) == list(range(1, p ** m))
            a, b = F.antilog[1], F.antilog[-1]
            assert F.mul(a, F.inv(a)) == 1
            assert F.mul(0, b) == 0
            assert F.sub(F.add(a, b), b) == a
            assert F.digits(F.pack([1] * m)) == [1] * m


def test_zech_addition_matches_digitwise():
    for p, m in ((3, 1), (3, 2), (3, 3), (3, 4), (2, 3), (2, 4), (2, 5), (2, 6)):
        F = GF(p, m)
        for a in range(p ** m):
            for b in range(p ** m):
                da, db = F.digits(a), F.digits(b)
                assert F.add(a, b) == F.pack(
                    [(x + y) % p for x, y in zip(da, db)])
                assert F.sub(a, b) == F.pack(
                    [(x - y) % p for x, y in zip(da, db)])


def lagrange_eval(F, pts, targets):
    """Oracle: the interpolant at each target, every Lagrange basis term
    rebuilt per target."""
    out = []
    for xt in targets:
        acc = 0
        for i, (xi, yi) in enumerate(pts):
            num, den = yi, 1
            for j, (xj, _) in enumerate(pts):
                if i != j:
                    num = F.mul(num, F.sub(xt, xj))
                    den = F.mul(den, F.sub(xi, xj))
            acc = F.add(acc, F.mul(num, F.inv(den)))
        out.append(acc)
    return out


def test_barycentric_interpolation_matches_lagrange():
    rng = random.Random(17)
    for e in (1, 2, 3, 4):
        F = GF(3, e)
        for _ in range(10):
            # nodes among the first N powers of alpha, up to every one of them
            N = rng.randint(1, F.order)
            nodes = rng.sample(range(N), rng.randint(1, min(8, N)))
            pts = [(a, rng.randrange(3 ** e)) for a in nodes]
            assert _rs_interpolate_eval(F, pts, N) == lagrange_eval(
                F, [(F.antilog[a], y) for a, y in pts], F.antilog[:N])


def test_ternary_erasure_zero_message():
    out = ternary_erasure_encode([0] * 12, 3)
    assert all(d == 0 for d in out)


def test_ternary_erasure_roundtrip_no_erasures():
    rng = random.Random(4)
    for t in (1, 2, 3):
        msg = [rng.randrange(3) for _ in range(20)]
        cw = ternary_erasure_encode(msg, 3 * t)
        assert cw[:20] == msg  # systematic
        assert ternary_erasure_decode(cw, 20, 3 * t) == cw


def test_ternary_erasure_random_patterns():
    rng = random.Random(5)
    msg_len, n_era = 40, 6
    for _ in range(200):
        msg = [rng.randrange(3) for _ in range(msg_len)]
        cw = ternary_erasure_encode(msg, n_era)
        word = list(cw)
        for pos in rng.sample(range(len(cw)), n_era):
            word[pos] = None
        assert ternary_erasure_decode(word, msg_len, n_era) == cw


def test_ternary_erasure_exhaustive_short():
    msg = [1, 2, 0, 1, 1, 0, 2]
    n_era = 3
    cw = ternary_erasure_encode(msg, n_era)
    for positions in itertools.combinations(range(len(cw)), n_era):
        word = list(cw)
        for p in positions:
            word[p] = None
        assert ternary_erasure_decode(word, len(msg), n_era) == cw


def test_ternary_erasure_rejects_non_ternary_digits():
    msg = [1, 2, 0, 1, 1, 0, 2]
    word = ternary_erasure_encode(msg, 3)
    with pytest.raises(ValueError):
        ternary_erasure_encode([3] + msg[1:], 3)
    with pytest.raises(ValueError):
        ternary_erasure_decode([5] + word[1:], len(msg), 3)
    with pytest.raises(ValueError):
        ternary_erasure_decode([5] + msg[1:], len(msg), 0)


def test_ternary_erasure_budget_exceeded():
    msg = [1] * 9
    cw = ternary_erasure_encode(msg, 2)
    e = ternary_field_params(9, 2)
    word = list(cw)
    # kill more field symbols than the parity can cover
    for i in range(0, (2 + 1) * e, e):
        word[i] = None
    with pytest.raises(EraseBudgetExceeded):
        ternary_erasure_decode(word, 9, 2)
    with pytest.raises(EraseBudgetExceeded):
        ternary_erasure_decode([None] + msg[1:], 9, 0)


def test_ternary_erasure_decode_needs_zero_pad_digits():
    # 7 digits in K = 4 symbols of e = 2: the last message symbol holds one
    # pad digit, which a codeword keeps at zero
    assert ternary_field_params(7, 3) == 2
    rng = random.Random(7)
    raised = 0
    for _ in range(60):
        word = [rng.randrange(3) for _ in range(13)]
        word[6] = None
        try:
            got = ternary_erasure_decode(word, 7, 3)
        except EraseBudgetExceeded:
            raised += 1
            continue
        assert got == ternary_erasure_encode(got[:7], 3)
        assert got[:6] + got[7:9] == word[:6] + word[7:9]
    assert 0 < raised < 60


def test_ternary_erasure_linearity():
    rng = random.Random(6)
    for _ in range(30):
        a = [rng.randrange(3) for _ in range(15)]
        b = [rng.randrange(3) for _ in range(15)]
        ca = ternary_erasure_encode(a, 4)
        cb = ternary_erasure_encode(b, 4)
        cab = ternary_erasure_encode([(x + y) % 3 for x, y in zip(a, b)], 4)
        assert [(x + y) % 3 for x, y in zip(ca, cb)] == cab


def list_division_encode(code, bits):
    """Oracle: msg(x) x^r mod g by synthetic division over a list register."""
    r = len(code.g) - 1
    rem = [0] * r
    for b in reversed(bits):
        feedback = rem[-1] ^ b
        rem = [feedback if code.g[0] and i == 0 else
               (rem[i - 1] ^ (code.g[i] and feedback)) for i in range(r)]
    return list(bits) + rem


def per_bit_syndromes(code, word):
    """Oracle: word(alpha^i), i = 1..2t, one field power per set bit."""
    out = []
    for i in range(1, 2 * code.t + 1):
        s = 0
        for idx, bit in enumerate(word):
            if bit:
                deg = code.n_parity + idx if idx < code.msg_len \
                    else idx - code.msg_len
                s ^= code.f.pow_alpha(deg * i)
        out.append(s)
    return out


@pytest.mark.parametrize("msg_len,t", [(1, 1), (4, 1), (11, 1), (57, 2),
                                       (200, 3), (1000, 2), (4627, 2)])
def test_bch_encode_and_syndromes_match_oracles(msg_len, t):
    code = BCHCode(msg_len, t)
    assert bch_shape(msg_len, t)[1] == len(code.g) - 1
    rng = random.Random(msg_len * 10 + t)
    for _ in range(5):
        msg = [rng.randrange(2) for _ in range(msg_len)]
        cw = code.encode(msg)
        assert cw == list_division_encode(code, msg)
        assert per_bit_syndromes(code, cw) == [0] * (2 * t)
        word = [rng.randrange(2) for _ in range(code.code_len)]
        assert code._syndromes(word) == per_bit_syndromes(code, word)


def test_bch_zero_message():
    code = BCHCode(11, 1)
    assert code.encode([0] * 11) == [0] * code.code_len
    with pytest.raises(ValueError):
        BCHCode(11, 0)


def test_bch_t1_is_hamming_sized():
    code = BCHCode(11, 1)
    assert code.code_len == 15
    rng = random.Random(8)
    for _ in range(40):
        msg = [rng.randrange(2) for _ in range(11)]
        cw = code.encode(msg)
        assert cw[:11] == msg
        for p in range(len(cw)):
            word = list(cw)
            word[p] ^= 1
            assert code.decode(word) == cw


def test_bch_t2_exhaustive_double_errors():
    code = BCHCode(9, 2)
    rng = random.Random(9)
    for _ in range(10):
        msg = [rng.randrange(2) for _ in range(9)]
        cw = code.encode(msg)
        assert code.decode(list(cw)) == cw
        for flips in itertools.combinations(range(len(cw)), 2):
            word = list(cw)
            for p in flips:
                word[p] ^= 1
            assert code.decode(word) == cw


def test_bch_larger_instance_random_errors():
    rng = random.Random(10)
    msg_len, t = 200, 3
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(msg_len)]
        cw = bblock_code(msg_len, t).encode(msg)
        word = list(cw)
        for p in rng.sample(range(len(word)), t):
            word[p] ^= 1
        assert bblock_code(msg_len, t).decode(word) == cw


@pytest.mark.parametrize("call, args, exc, match", [
    (field_setup, (0,), ValueError, "^n must be >= 1$"),
    (GF, (4, 1), ValueError, r"^GF\(4\^1\) needs a prime p and m >= 1$"),
    (lambda: GF(3, 2).inv(0), (), ZeroDivisionError, "^$"),
    (sparse_support, ([0] * 4, 2, PrimeField(7, 3)), ValueError,
     r"^need exactly 2T\+1 evaluations$"),
    (ternary_erasure_decode, ([0] * 5, 4, 2), ValueError,
     "^codeword length inconsistent with parameters$"),
    (lambda: BCHCode(11, 1).encode([0] * 10), (), ValueError,
     "^message length mismatch$"),
    (lambda: BCHCode(11, 1).decode([0] * 16), (), ValueError,
     "^codeword length mismatch$"),
], ids=["field-n", "gf-prime", "inverse-of-zero", "evaluations",
        "ternary-length", "bch-message", "bch-word"])
def test_declared_rejections(call, args, exc, match):
    with pytest.raises(exc, match=match):
        call(*args)
