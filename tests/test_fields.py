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
    _rs_interpolate_eval,
    bblock_code,
    bch_shape,
    field_setup,
    sparse_interpolate,
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
            xs = rng.sample(range(1, 3 ** e), rng.randint(1, min(8, 3 ** e - 1)))
            pts = [(x, rng.randrange(3 ** e)) for x in xs]
            targets = list(range(1, 3 ** e))  # every node and every non-node
            assert _rs_interpolate_eval(F, pts, targets) == \
                lagrange_eval(F, pts, targets)


def test_ternary_erasure_zero_message():
    out = ternary_erasure_encode([0] * 12, 3)
    assert all(d == 0 for d in out)


def test_ternary_erasure_roundtrip_no_erasures():
    rng = random.Random(4)
    for t in (1, 2, 3):
        msg = [rng.randrange(3) for _ in range(20)]
        cw = ternary_erasure_encode(msg, 3 * t)
        assert cw[:20] == msg  # systematic
        assert ternary_erasure_decode(cw, 20, 3 * t) == msg


def test_ternary_erasure_random_patterns():
    rng = random.Random(5)
    msg_len, n_era = 40, 6
    for _ in range(200):
        msg = [rng.randrange(3) for _ in range(msg_len)]
        cw = ternary_erasure_encode(msg, n_era)
        word = list(cw)
        for pos in rng.sample(range(len(cw)), n_era):
            word[pos] = None
        assert ternary_erasure_decode(word, msg_len, n_era) == msg


def test_ternary_erasure_exhaustive_short():
    msg = [1, 2, 0, 1, 1, 0, 2]
    n_era = 3
    cw = ternary_erasure_encode(msg, n_era)
    for positions in itertools.combinations(range(len(cw)), n_era):
        word = list(cw)
        for p in positions:
            word[p] = None
        assert ternary_erasure_decode(word, len(msg), n_era) == msg


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
            assert code.decode(word) == msg


def test_bch_t2_exhaustive_double_errors():
    code = BCHCode(9, 2)
    rng = random.Random(9)
    for _ in range(10):
        msg = [rng.randrange(2) for _ in range(9)]
        cw = code.encode(msg)
        assert code.decode(list(cw)) == msg
        for flips in itertools.combinations(range(len(cw)), 2):
            word = list(cw)
            for p in flips:
                word[p] ^= 1
            assert code.decode(word) == msg


def test_bch_larger_instance_random_errors():
    rng = random.Random(10)
    msg_len, t = 200, 3
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(msg_len)]
        cw = bblock_code(msg_len, t).encode(msg)
        word = list(cw)
        for p in rng.sample(range(len(word)), t):
            word[p] ^= 1
        assert bblock_code(msg_len, t).decode(word) == msg
