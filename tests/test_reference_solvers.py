"""The solvers, the ranker and the search against the loops they replaced.

Each loop_* function is the earlier implementation, kept verbatim apart from
its name: per-entry differencing loops, a quadratic weights_from_sigma, a
lattice-path ranker of its own, per-substring composition counting, a
reconstruction search that recomposes every level of each candidate, and a
sym-catalan candidate enumeration that solves sigma before reconstruct does,
a channel that lists every element of a level to draw one, per-element
level sums and comparisons, a text format that lists every element,
parameter searches that walk up from the shortest admissible length,
a codeword ranker that checks membership and ranks in separate passes
through a partition rank counted across blocks, a CB ranker that sums and
searches its blocks, a single-error encoder that slices in its middle bit
and tries every check pair, a weight pin that lists its candidates,
ternary erasure and BCH decoders that return only the message, a ternary
erasure interpolation that multiplies out every pair of nodes, a
sym-poly decoder that keeps its evaluation grids in dicts keyed by grid point,
a known-shell reconstruction that recounts every window for both
branches of each ambiguous pair, an error-trace fold that runs each
rejection rule as its own check, and a CB ranker, a subset ranker and block
offsets that compute every binomial from scratch.
The current code must give the same value, or raise the same exception type,
on every input tried here, including profiles and strings that no codeword
produces.  The one intended difference: parse rejects a number the loop read
through int() but that is not spelled 0|[1-9][0-9]*.
"""

import itertools
import operator
import os
import random
import re
from collections import Counter
from itertools import accumulate
from math import comb

import numpy as np

from compocode.asym import (
    _checksum,
    recover_w1,
    s1_encode,
    s1_params,
    s1_recover_sigma,
    s1_strip,
    st_encode,
    st_params,
)
from compocode.backtrack import (
    BacktrackStats,
    ReconstructionFailure,
    _pair_choices,
    _search,
    reconstruct,
)
from compocode.catalan import (
    _block_offsets,
    _walk,
    cb_count,
    cb_rank,
    cb_total,
    cb_unrank,
    is_catalan_bertrand,
    is_member,
    sr_decode,
    sr_encode,
    sr_params,
    sr_size,
)
from compocode.channel import ErrorModel, corrupt
from compocode.compositions import (
    CompositionMultiset,
    CorruptedInput,
    check_bits,
    compose_all,
    cumulative_weights,
    mirror_mismatches,
    multiset_symmetric_difference,
    parse,
    serialize,
    sigma_from_weights,
    sigma_of_string,
    sigma_partial,
    weights_from_sigma,
)
from compocode.fields import (
    BCHCode,
    EraseBudgetExceeded,
    PrimeField,
    SparsityExceeded,
    _berlekamp_massey,
    _field,
    bblock_code,
    field_setup,
    monomial_grid,
    ternary_erasure_decode,
    ternary_erasure_encode,
    ternary_field_params,
)
from compocode.sym import (
    BlockCodeFailure,
    DeltaObservation,
    PolyCodeParams,
    _bits_str,
    _bits_to_grid,
    _grid_points,
    _grid_to_bits,
    _interpolate_rows,
    _parity_block,
    _prefix_arrays,
    _reconstruct_known_shell,
    _signed,
    _string_weight_profile,
    catalan_code_decode_bruteforce,
    catalan_code_encode,
    catalan_number,
    catalan_rank,
    catalan_unrank,
    etn_decode,
    etn_encode,
    is_catalan_codeword,
    poly_params_from_length,
    poly_params_from_payload,
    recover_error_poly,
    resolve_weight,
)


def outcome(f, *args):
    """f's return value, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return type(e)


# -- the references ---------------------------------------------------------


def loop_sigma_from_weights(wp, n):
    h = (n + 1) // 2
    if len(wp) < h:
        raise ValueError("weight profile too short")
    sigma = []
    for l in range(1, h):
        prev = wp[l - 2] if l >= 2 else 0
        sigma.append(2 * wp[l - 1] - prev - wp[l])
    prev = wp[h - 2] if h >= 2 else 0
    sigma.append(wp[h - 1] - prev)
    top = 1 if (n % 2 == 1) else 2
    for i, v in enumerate(sigma):
        hi = top if i == len(sigma) - 1 else 2
        if not (0 <= v <= hi):
            raise CorruptedInput(f"sigma_{i+1} = {v} out of range: corrupted input")
    if sum(sigma) != wp[0]:
        raise CorruptedInput("sigma sum does not match w_1: corrupted input")
    return tuple(sigma)


def loop_weights_from_sigma(sigma, w1, n):
    h = (n + 1) // 2
    if len(sigma) != h:
        raise ValueError("sigma length must be ceil(n/2)")
    w = [0] * n
    for j in range(1, h + 1):
        w[j - 1] = j * w1 - sum(i * sigma[j - i - 1] for i in range(1, j))
    for j in range(h + 1, n + 1):
        w[j - 1] = w[n - j]
    return tuple(w)


def loop_sigma_partial(wp, n):
    h = (n + 1) // 2
    trusted = [False] * (h + 2)
    trusted[0] = True
    for l in range(1, min(h + 1, n) + 1):
        mirror = n + 1 - l
        if mirror < 1 or mirror > n:
            continue
        trusted[l] = wp[l - 1] == wp[mirror - 1]
    sigma = [0] * h
    known = [False] * h
    for i in range(1, h + 1):
        if i < h:
            ok = trusted[i - 1] and trusted[i] and trusted[i + 1]
        else:
            ok = trusted[h - 1] and trusted[h]
        if not ok:
            continue
        prev = wp[i - 2] if i >= 2 else 0
        if i < h:
            v = 2 * wp[i - 1] - prev - wp[i]
        else:
            v = wp[h - 1] - prev
        top = 1 if (n % 2 == 1 and i == h) else 2
        if 0 <= v <= top:
            sigma[i - 1] = v
            known[i - 1] = True
    return tuple(sigma), tuple(known)


def loop_s1_recover_sigma(c):
    c.validate_shape()
    n = c.n
    h = (n + 1) // 2
    w_obs = cumulative_weights(c)
    mism = sorted(
        j for j in range(1, h) if w_obs[j - 1] != w_obs[n - j])
    if len(mism) > 1:
        raise CorruptedInput("more than one corrupted level: outside the model")
    w1 = recover_w1(w_obs[0], w_obs[n - 1])
    j = mism[0] if mism else h
    w = [0] * (h + 1)
    w[1] = w1
    for i in range(2, h + 1):
        w[i] = w_obs[i - 1]
    sigma = [0] * (h + 1)
    for i in range(1, j - 1):
        sigma[i] = 2 * w[i] - w[i - 1] - w[i + 1]
        if not 0 <= sigma[i] <= 2:
            raise CorruptedInput(f"sigma_{i} out of range: outside the model")
    if j >= 2:
        base = j * w1 - sum(i * sigma[j - i] for i in range(2, j))
        target = -(sum(w[1:j]) + sum(w[j + 1:h + 1])) % 3
        cands = [v for v in range(base - 2, base + 1) if v % 3 == target]
        if len(cands) != 1:
            raise CorruptedInput("checksum fails to pin the corrupted level")
        w[j] = cands[0]
    for i in range(max(1, j - 1), h):
        sigma[i] = 2 * w[i] - w[i - 1] - w[i + 1]
    sigma[h] = w[h] - w[h - 1]
    out = tuple(sigma[1:h + 1])
    top = 1 if n % 2 == 1 else 2
    for i, v in enumerate(out):
        hi = top if i == h - 1 else 2
        if not 0 <= v <= hi:
            raise CorruptedInput(f"sigma_{i+1} = {v} out of range")
    return out


def loop_catalan_rank(s):
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


def loop_catalan_unrank(r, h):
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


def loop_sr_params(k, t=0):
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 2 * t + 2
    while sr_size(n, t) < 2 ** k:
        n += 1 if t == 0 else 2
    return n


def loop_s1_params(k):
    n = 5
    while True:
        if (n + 1) // 2 % 3 == 0 and sr_size(n - 3, 0) >= 2 ** k:
            return n
        n += 2


def loop_st_params(k, t):
    if t < 1:
        raise ValueError("t must be >= 1")
    m = 2 * t + 2
    while sr_size(m, t) < 2 ** k:
        m += 2
    e = ternary_field_params(m // 2, 3 * t)
    n = m + 6 * t * e
    return m, n


def loop_cb_rank(s: str) -> int:
    """0-based rank of a CB string; blocks ordered by 1-count ascending."""
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
    return sum(cb_count(m, j) for j in range(i)) + (ind - 1)


def loop_cb_unrank(m: int, rank: int) -> str:
    if not (0 <= rank < cb_total(m)):
        raise ValueError(f"rank {rank} out of range for length {m}")
    i = 0
    while rank >= cb_count(m, i):
        rank -= cb_count(m, i)
        i += 1
    target = rank + 1  # 1-based index within the block
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


def loop_s1_encode(info: str, n: int | None = None) -> str:
    """Map info into the single-error code of length n."""
    k = len(info)
    if n is None:
        n = s1_params(k)
    h = (n + 1) // 2
    if n % 2 == 0 or h % 3 != 0:
        raise ValueError("length must be odd with ceil(n/2) divisible by 3")
    ev = sr_encode(info, 0, n - 3)
    inner_mid = (n - 3) // 2  # insertion point of the free middle bit
    for pair in ("00", "01", "11"):
        inner = ev[:inner_mid] + "0" + ev[inner_mid:]
        s = inner[0] + pair[0] + inner[1:-1] + pair[1] + inner[-1]
        if _checksum(s) == 0:
            break
    else:
        raise RuntimeError("no admissible (s_2, s_{n-1}) pair")  # unreachable
    if s.count("1") % 2 == 1:
        s = s[:h - 1] + ("1" if s[h - 1] == "0" else "0") + s[h:]
    if _checksum(s) != 0 or s.count("1") % 2 != 0:
        raise RuntimeError("middle flip broke the checksum or the parity")
    return s


def loop_s1_strip(s: str, k: int) -> str:
    """The k info bits of a single-error codeword."""
    n = len(s)
    inner = s[0] + s[2:n - 2] + s[n - 1]  # drop positions 2 and n-1
    mid = (n - 2 + 1) // 2  # middle of the inner string, 1-based
    ev = inner[:mid - 1] + inner[mid:]
    return sr_decode(ev, k, 0)


def loop_resolve_weight(observed: int, c_w: int, t: int, n: int) -> int:
    """Exact wt(s) from a level-1 weight off by at most t, given wt mod 2t+1."""
    cands = [v for v in range(observed - t, observed + t + 1)
             if 0 <= v <= n and v % (2 * t + 1) == c_w]
    if len(cands) != 1:
        raise CorruptedInput("weight residue fails to pin wt(s)")
    return cands[0]


def loop_partition_rank(m: int, subset) -> int:
    """0-based rank of subset of {1..m}; blocks by cardinality ascending,
    combinatorial number system within a block."""
    ell = sorted(subset)
    i = len(ell)
    if ell and (ell[0] < 1 or ell[-1] > m):
        raise ValueError("subset out of range")
    if len(set(ell)) != i:
        raise ValueError("subset has repeats")
    block = sum(comb(m, j) for j in range(i))
    within = sum(comb(ell[j] - 1, j + 1) for j in range(i))
    return block + within


def loop_comb_cb_rank(s: str) -> int:
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


def loop_comb_cb_unrank(m: int, rank: int) -> str:
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


def loop_cns_partition_rank(m: int, subset) -> int:
    """0-based rank of an i-subset of {1..m} among the i-subsets, in the
    combinatorial number system: the inverse of partition_unrank(m, i, .)."""
    ell = sorted(subset)
    if ell and (ell[0] < 1 or ell[-1] > m):
        raise ValueError("subset out of range")
    if len(set(ell)) != len(ell):
        raise ValueError("subset has repeats")
    return sum(comb(e - 1, j) for j, e in enumerate(ell, 1))


def loop_cns_partition_unrank(m: int, i: int, within: int):
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


def loop_comb_block_offsets(hf: int) -> tuple[int, ...]:
    """First rank of each 1-count block, then the codebook size: hf free
    first-half positions (t+2 .. n/2), i of them joining position t+1 in the
    CB set I, the rest free bits."""
    return tuple(accumulate((comb(hf, i) * 2 ** (hf - i) * cb_total(i + 1)
                             for i in range(hf + 1)), initial=0))


def loop_decode_even(s: str, t: int) -> int:
    """Rank of an even-length codeword; sr_decode has checked is_member."""
    n = len(s)
    half = n // 2
    hf = half - t - 1
    i_half = [j for j in range(t + 1, half + 1) if s[j - 1] != s[n - j]]
    extra = [j - (t + 1) for j in i_half if j > t + 1]
    i = len(extra)
    cb = "".join(s[j - 1] for j in i_half)
    in_i = set(i_half)
    free_pos = [j for j in range(t + 1, half + 1) if j not in in_i]
    free_bits = "".join(s[j - 1] for j in free_pos)
    cbt = cb_total(i + 1)
    nfree = hf - i
    p = loop_partition_rank(hf, extra) - sum(comb(hf, j) for j in range(i))
    v = int(free_bits, 2) if free_bits else 0
    rc = cb_rank(cb)  # global rank: the radix slot spans cb_total(i+1)
    ind = (p * 2 ** nfree + v) * cbt + rc
    return sum(comb(hf, j) * 2 ** (hf - j) * cb_total(j + 1)
               for j in range(i)) + ind


def loop_sr_decode(codeword: str, k: int, t: int = 0) -> str:
    """Inverse of sr_encode; raises ValueError on non-codewords."""
    if not loop_is_member(codeword, t):
        raise ValueError("membership violation: not a codeword")
    n = len(codeword)
    if n % 2 == 1:
        half = (n - 1) // 2
        mid = int(codeword[half])
        inner = codeword[:half] + codeword[half + 1:]
        ind = (loop_decode_even(inner, 0) << 1) | mid
    else:
        ind = loop_decode_even(codeword, t)
    if ind >= 2 ** k:
        raise ValueError("codeword outside the 2^k information range")
    return format(ind, f"0{k}b")


def loop_is_member(s: str, t: int = 0) -> bool:
    n = len(s)
    if set(s) - {"0", "1"}:
        return False
    if n % 2 == 1:
        if t != 0 or n < 3:
            return False
        half = (n - 1) // 2
        return loop_is_member(s[:half] + s[half + 1:], 0)
    if n < 2 * t + 2:
        return False
    half = n // 2
    for j in range(1, t + 1):
        if s[j - 1] != "0" or s[n - j] != "1":
            return False
    diff = [j for j in range(1, half + 1) if s[j - 1] != s[n - j]]
    cb_positions = [j for j in diff if j > t]
    if len(cb_positions) != len(diff) - t or (t + 1) not in cb_positions:
        return False
    return is_catalan_bertrand("".join(s[j - 1] for j in cb_positions))


def loop_of_string(s):
    check_bits(s)
    n = len(s)
    prefix = [0] * (n + 1)
    for i, ch in enumerate(s):
        prefix[i + 1] = prefix[i] + (ch == "1")
    levels = {}
    for l in range(1, n + 1):
        c = Counter()
        for i in range(n - l + 1):
            c[prefix[i + l] - prefix[i]] += 1
        levels[l] = c
    return CompositionMultiset(n, levels)


def loop_search(c, sigma, bad_levels, stats, *, collect_all):
    n = c.n
    h = (n + 1) // 2
    W = sum(sigma)
    steps = n // 2
    prefix = []
    suffix = []  # suffix[k-1] = s_{n+1-k}
    pw = [0]
    sw = [0]
    solutions = []
    first_one = next((i for i in range(steps) if sigma[i] == 1), None)

    def level_ok(k):
        # expected compositions at level n-k after k placed pairs
        m = n - k
        expected = Counter()
        for i in range(1, k + 2):
            expected[W - pw[i - 1] - sw[k + 1 - i]] += 1
        obs = c.levels[m]
        d = 0
        for w in expected.keys() | obs.keys():
            d += abs(expected[w] - obs.get(w, 0))
        if d == 0:
            return True
        return d == 2 and m in bad_levels

    def order_choices(k, choices):
        # try first the branch matching the largest composition left at the
        # next level after the already-determined ones are taken out
        rem = Counter(c.levels[n - k - 1])
        for i in range(2, k + 2):
            rem[W - pw[i - 1] - sw[k + 2 - i]] -= 1
        positives = [w for w, cnt in rem.items() if cnt > 0]
        if not positives:
            return choices
        wmax = max(positives)

        def score(pair):
            a, b = pair
            new = (W - sw[k] - (b == "1"), W - pw[k] - (a == "1"))
            return 0 if wmax in new else 1

        return tuple(sorted(choices, key=score))

    def finalize(s):
        cc = loop_of_string(s)
        for l in range(1, n + 1):
            a, b = cc.levels[l], c.levels[l]
            d = sum(abs(a[w] - b.get(w, 0)) for w in a.keys() | b.keys())
            if d == 0:
                continue
            if d == 2 and l in bad_levels:
                continue
            return False
        solutions.append(s)
        return True

    def extend(k):
        if k == steps:
            mid = str(sigma[h - 1]) if n % 2 else ""
            return finalize("".join(prefix) + mid + "".join(reversed(suffix)))
        choices = _pair_choices(sigma[k])
        if sigma[k] == 1:
            if k == first_one:
                choices = (("0", "1"),)
            else:
                if pw[k] == sw[k]:
                    stats.guesses += 1
                choices = order_choices(k, choices)
        found = False
        for a, b in choices:
            prefix.append(a)
            suffix.append(b)
            pw.append(pw[-1] + (a == "1"))
            sw.append(sw[-1] + (b == "1"))
            if level_ok(k + 1):
                sub = extend(k + 1)
                if not sub:
                    stats.backtracks += 1
                found = found or sub
            prefix.pop()
            suffix.pop()
            pw.pop()
            sw.pop()
            if found and not collect_all:
                break
        return found

    extend(0)
    return solutions


def loop_consistent(c: CompositionMultiset) -> bool:
    w = cumulative_weights(c)
    if mirror_mismatches(w, c.n):
        return False
    try:
        sigma_from_weights(w, c.n)
    except (CorruptedInput, ValueError):
        return False
    return True


def loop_revert_candidates(c: CompositionMultiset, budget: int):
    """Lazily yield mirror-consistent multisets reachable by <= budget reverts.

    A revert swaps one element for a different same-length composition.  Each
    revert changes exactly one level weight, so a candidate needs at least one
    revert per mirror-mismatched level pair; branches that cannot rebalance
    within the budget are pruned before any copy is made.
    """
    w = cumulative_weights(c)
    mism = mirror_mismatches(w, c.n)
    if not mism and loop_consistent(c):
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
                yield from loop_revert_candidates(cc, budget - 1)


def loop_catalan_code_decode_bruteforce(c: CompositionMultiset, t: int) -> str:
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
    for cand in loop_revert_candidates(c, t):
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


def loop_corrupt(c, model: ErrorModel, rng, adversarial=False):
    """Apply exactly model.t replacements to an observation.

    Returns (corrupted copy, log); the log lists (level, removed weight,
    added weight) per error.  In adversarial mode the replacement maximizes
    the weight change instead of being uniform.
    """
    n = c.n
    out = c.copy()
    chosen: list[int] = []
    pool = list(range(1, n + 1))
    rng.shuffle(pool)
    for level in pool:
        if len(chosen) == model.t:
            break
        if model.kind == "asymmetric" and (n + 1 - level) in chosen:
            continue
        chosen.append(level)
    if len(chosen) < model.t:
        raise ValueError("not enough levels for the requested error count")
    log = []
    for level in sorted(chosen):
        old = rng.choice(sorted(out.level_counter(level).elements()))
        others = [w for w in range(level + 1) if w != old]
        if adversarial:
            new = max(others, key=lambda w: abs(w - old))
        else:
            new = rng.choice(others)
        out.replace(level, old, new)
        log.append((level, old, new))
    return out, log


def loop_cumulative_weights(c: CompositionMultiset) -> tuple[int, ...]:
    """w_l = sum of 1-counts at level l; returned 0-indexed (entry l-1 = w_l)."""
    return tuple(
        sum(w * cnt for w, cnt in c.levels[l].items()) for l in range(1, c.n + 1))


def loop_multiset_symmetric_difference(c1, c2):
    """Total count and per-level detail of (C1 \\ C2) u (C2 \\ C1), for any observations."""
    if c1.n != c2.n:
        raise ValueError("multisets describe strings of different lengths")
    count = 0
    detail: dict[int, list[tuple[int, int]]] = {}
    for l in range(1, c1.n + 1):
        a, b = c1.level_counter(l), c2.level_counter(l)
        diffs = []
        for w in set(a) | set(b):
            d = a[w] - b[w]
            if d:
                diffs.append((w, d))
                count += abs(d)
        if diffs:
            detail[l] = sorted(diffs)
    return count, detail


def loop_serialize(c: CompositionMultiset) -> str:
    lines = [f"n={c.n}"]
    for l in range(c.n, 0, -1):
        ws = sorted(c.levels[l].elements())
        lines.append(f"{l}: " + " ".join(map(str, ws)))
    return "\n".join(lines) + "\n"


def loop_parse(text: str) -> CompositionMultiset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise CorruptedInput("first line must be n=<int>")
    try:
        n = int(lines[0][2:])
    except ValueError as e:
        raise CorruptedInput("malformed n= line") from e
    if n < 1 or len(lines) != n + 1:
        raise CorruptedInput(f"expected {n} level lines")
    levels: dict[int, Counter] = {}
    for ln in lines[1:]:
        head, _, rest = ln.partition(":")
        try:
            l = int(head)
            ws = [int(tok) for tok in rest.split()]
        except ValueError as e:
            raise CorruptedInput(f"malformed line: {ln!r}") from e
        if l in levels:
            raise CorruptedInput(f"level {l} repeated")
        levels[l] = Counter(ws)
    c = CompositionMultiset(n, levels)
    c.validate_shape()
    return c


def loop_rs_interpolate_eval(F, pts, targets):
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


def loop_ternary_complete(word, msg_len: int, n_era: int) -> list[int]:
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
    xs = F.antilog[:K + n_era]  # distinct nonzero points
    chunks = [padded[i * e:(i + 1) * e] for i in range(K + n_era)]
    known = [(x, F.pack(c)) for x, c in zip(xs, chunks) if None not in c]
    if len(known) < K:
        raise EraseBudgetExceeded(
            f"only {len(known)} intact symbols, need {K}")
    digits = [d for y in loop_rs_interpolate_eval(F, known[:K], xs)
              for d in F.digits(y)]
    if any(digits[msg_len:K * e]):
        raise EraseBudgetExceeded("no codeword fits the intact symbols")
    return digits[:msg_len] + digits[K * e:]


def loop_ternary_erasure_encode(msg, n_era: int) -> list[int]:
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
    parity = loop_rs_interpolate_eval(F, pts, xs[K:])
    out = msg[:]
    for p in parity:
        out.extend(F.digits(p))
    return out


def loop_ternary_erasure_decode(word, msg_len: int, n_era: int) -> list[int]:
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
    msg_syms = loop_rs_interpolate_eval(F, known[:K], xs[:K])
    digits = []
    for s in msg_syms:
        digits.extend(F.digits(s))
    return digits[:msg_len]


def loop_bch_decode(code: BCHCode, received):
    """BCHCode.decode when it returned only the message bits."""
    received = list(received)
    if len(received) != code.code_len:
        raise ValueError("codeword length mismatch")
    f, t = code.f, code.t
    synd = code._syndromes(received)
    if all(s == 0 for s in synd):
        return received[:code.msg_len]
    lam = _berlekamp_massey(synd, f)
    L = len(lam) - 1
    if L > t:
        raise ValueError("more errors than the design distance allows")
    # Chien search: Lambda(alpha^-deg) at every bit index at once, the
    # terms c_j alpha^(-j deg) summed (xor) through the log table
    acc = np.zeros(code.code_len, dtype=np.int64)
    for j, c in enumerate(lam):
        if c:
            acc ^= code._antilog[(f.log[c] - j * code._degree) % f.order]
    roots = np.flatnonzero(acc == 0)
    if len(roots) != L:
        raise ValueError("error locator failed to split over the block")
    fixed = received[:]
    for idx in roots.tolist():
        fixed[idx] ^= 1
    if any(code._syndromes(fixed)):
        raise ValueError("correction did not cancel the syndromes")
    return fixed[:code.msg_len]


def loop_recover_error_poly(F: dict, p_grid: dict, d_x: int, d_y: int, t: int,
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
    cols = [[(F[(l1, l2)] - pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q)
              * p_grid[(l1, l2)] * p_grid[(-l1, -l2)]) % q for l1 in rng_l]
            for l2 in rng_l]
    col_vals: dict[int, dict[int, int]] = {}
    for l2, found in zip(rng_l, _interpolate_rows(cols, R, field)):
        for i, v in in_window(found, d_x - n, d_x + n).items():
            col_vals.setdefault(i, {})[l2] = v
    if len(col_vals) > R:
        raise SparsityExceeded("more than 4t x-exponents in the error trace")
    # stage 2: per x-exponent, interpolate the y-polynomial multiplier
    etilde: dict = {}
    rows = [[vals.get(l2, 0) for l2 in rng_l] for vals in col_vals.values()]
    for i, found in zip(col_vals, _interpolate_rows(rows, R, field)):
        for j, c in in_window(found, d_y - n, d_y + n).items():
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


def loop_fold_error_poly(e_grid: np.ndarray, d_x: int, d_y: int, t: int,
                       field: PrimeField, n: int) -> dict:
    """The error polynomial E from the grid of its trace Etilde.

    e_grid holds Etilde(alpha^l1, alpha^l2) at [l1 + R, l2 + R], |l1|,
    |l2| <= R = 4t, where Etilde = x^dx y^dy (E(x,y) + E(1/x,1/y)).  Two
    sparse-interpolation stages (x then y, both with term bound 4t) rebuild
    Etilde; the reciprocal pair is folded off using d_x, d_y.  Returns
    {(w, z): coefficient} with coefficients in [-t, t].
    """
    q = field.q
    R = 4 * t
    rng_l = range(-R, R + 1)

    def in_window(poly, lo, hi):
        # full-circle exponents back into the unique degree window
        out = {}
        for e, v in poly.items():
            cands = [x for x in (e - (q - 1), e, e + (q - 1)) if lo <= x <= hi]
            if len(cands) != 1:
                raise CorruptedInput("error exponent outside the degree window")
            out[cands[0]] = v
        return out

    # stage 1: for each l2 (a column), the x-support and the values M_i(alpha^l2)
    col_vals: dict[int, dict[int, int]] = {}
    for l2, found in zip(rng_l, _interpolate_rows(e_grid.T.tolist(), R, field)):
        for i, v in in_window(found, d_x - n, d_x + n).items():
            col_vals.setdefault(i, {})[l2] = v
    if len(col_vals) > R:
        raise SparsityExceeded("more than 4t x-exponents in the error trace")
    # stage 2: per x-exponent, interpolate the y-polynomial multiplier
    etilde: dict = {}
    rows = [[vals.get(l2, 0) for l2 in rng_l] for vals in col_vals.values()]
    for i, found in zip(col_vals, _interpolate_rows(rows, R, field)):
        for j, c in in_window(found, d_y - n, d_y + n).items():
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


def loop_grid_to_bits(a: int, grid: dict, p: PolyCodeParams) -> list[int]:
    bits = [int(b) for b in format(a, f"0{p.a_bits}b")]
    for pt in _grid_points(p.t):
        bits.extend(int(b) for b in format(grid[pt], f"0{p.elem_bits}b"))
    return bits


def loop_bits_to_grid(bits, p: PolyCodeParams):
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


def loop_zero_run_eval(m: int, l2: int, field: PrimeField) -> int:
    """P of 0^m at y = alpha^l2: the geometric sum over y^0..y^m."""
    q, alpha = field.q, field.alpha
    y = pow(alpha, l2 % (q - 1), q)
    if y == 1:
        return (m + 1) % q
    return (pow(y, m + 1, q) - 1) * field.inv(y - 1) % q


def loop_known_shell(obs, pre_len: int, suffix: str,
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


def loop_etn_decode(obs, t: int) -> str:
    """Recover the payload from an observation with at most t symmetric errors.

    Failure modes raise distinct types: BlockCodeFailure when the weight
    parities cannot be corrected, SparsityExceeded when the error trace does
    not fit the sparse model, ReconstructionFailure when the corrected
    multiset does not assemble back into a string.
    """
    obs.validate_shape()
    p = poly_params_from_length(obs.n, t)
    n, q, alpha = p.n, p.field.q, p.field.alpha
    half = p.r_hat // 2
    w_obs = obs.weight_profile()
    received = (w_obs[1:half:2] % 2).tolist()
    try:
        sbar = bblock_code(p.msg_len, t).decode(received)
    except ValueError as e:
        raise BlockCodeFailure(f"weight parities undecodable: {e}") from e
    a, u_grid = loop_bits_to_grid(sbar, p)
    z = _parity_block(sbar)
    zeta = z[::-1]
    wt_z = z.count("1")
    wt_u = resolve_weight(int(w_obs[0]) - wt_z, a, t, p.nu)
    d_x = wt_u + wt_z
    d_y = n - d_x
    d_xu, d_yu = wt_u, p.nu - wt_u
    R = 4 * t
    z_grid = monomial_grid(*_prefix_arrays(zeta), R, p.field)
    s_grid = obs.sym_eval(R, p.field).tolist()
    p_grid = {}
    F = {}
    for l1, l2 in _grid_points(t):
        pu = u_grid[(l1, l2)]
        pz = int(z_grid[l1 + R, l2 + R])
        ps = (loop_zero_run_eval(half, l2, p.field)
              + pow(alpha, (l2 * half) % (q - 1), q) * (pu - 1)
              + pow(alpha, (l1 * d_xu + l2 * (half + d_yu)) % (q - 1), q)
              * (pz - 1)) % q
        p_grid[(l1, l2)] = ps
        scale = pow(alpha, (l1 * d_x + l2 * d_y) % (q - 1), q)
        F[(l1, l2)] = scale * (n + 1 + s_grid[l1 + R][l2 + R]) % q
    error = loop_recover_error_poly(F, p_grid, d_x, d_y, t, p.field, n)
    fixed = obs.correct(error)
    w = fixed.weight_profile()
    if w[0] != d_x or w[n - 1] != d_x:
        raise ReconstructionFailure("corrected weights disagree with wt(s)")
    sigma = sigma_from_weights(w.tolist(), n)
    s = loop_known_shell(fixed, half, zeta, sigma, d_x)
    if not np.array_equal(_string_weight_profile(s), w):
        raise ReconstructionFailure("reassembled string misses the multiset")
    return s[half:half + p.nu]


# -- the comparisons ----------------------------------------------------------


def random_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def random_profiles(rng, n):
    """An arbitrary integer profile, a real one, and the real one with 1-3
    levels moved by up to 2."""
    yield [rng.randint(-3, 2 * n) for _ in range(n)]
    w = list(cumulative_weights(compose_all(random_bits(rng, n))))
    yield list(w)
    for _ in range(rng.randint(1, 3)):
        w[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
    yield w


def test_solver_matches_the_loops_on_arbitrary_profiles():
    rng = random.Random(20)
    for n in range(1, 81):
        h = (n + 1) // 2
        for _ in range(10):
            for wp in random_profiles(rng, n):
                for prof in (wp, wp[:h], wp[:h - 1]):
                    assert outcome(sigma_from_weights, prof, n) == \
                        outcome(loop_sigma_from_weights, prof, n), (prof, n)
                    assert outcome(sigma_partial, prof, n) == \
                        outcome(loop_sigma_partial, prof, n), (prof, n)
            sigma = [rng.randint(-1, 3) for _ in range(h)]
            w1 = rng.randint(-2, n)
            for sig in (sigma, sigma[:-1], sigma + [1]):
                assert outcome(weights_from_sigma, sig, w1, n) == \
                    outcome(loop_weights_from_sigma, sig, w1, n), (sig, w1, n)


def test_s1_recover_sigma_matches_the_loop_on_0_to_3_errors():
    rng = random.Random(21)
    for trial in range(300):
        # asym1 codewords, and arbitrary strings of odd and even length
        s = s1_encode(random_bits(rng, rng.randint(1, 10))) if trial % 2 \
            else random_bits(rng, rng.randint(1, 30))
        errors = rng.randint(0, min(3, len(s) // 2))
        model = ErrorModel(rng.choice(("asymmetric", "symmetric")), errors)
        c, _ = corrupt(compose_all(s), model, rng)
        assert outcome(s1_recover_sigma, cumulative_weights(c), c.n) == \
            outcome(loop_s1_recover_sigma, c.copy()), s


def test_catalan_ranker_matches_the_loop():
    for h in range(11):
        for r in range(catalan_number(h)):
            s = loop_catalan_unrank(r, h)
            assert catalan_unrank(r, h) == s
            assert outcome(catalan_rank, s) == outcome(loop_catalan_rank, s)
        for r in (-1, catalan_number(h)):
            assert outcome(catalan_unrank, r, h) is ValueError
            assert outcome(loop_catalan_unrank, r, h) is ValueError
    # every string up to length 9: odd, unbalanced, non-dominated and valid
    for m in range(10):
        for tup in itertools.product("01", repeat=m):
            s = "".join(tup)
            assert outcome(catalan_rank, s) == outcome(loop_catalan_rank, s), s
    rng = random.Random(22)
    for _ in range(2000):
        s = random_bits(rng, rng.randint(10, 41))
        assert outcome(catalan_rank, s) == outcome(loop_catalan_rank, s), s


def test_cb_ranker_matches_the_loop():
    # every string up to length 12, members or not, and every rank
    for m in range(13):
        for r in range(-1, cb_total(m) + 1):
            assert outcome(cb_unrank, m, r) == outcome(loop_cb_unrank, m, r)
        for tup in itertools.product("01", repeat=m):
            s = "".join(tup)
            assert outcome(cb_rank, s) == outcome(loop_cb_rank, s), s
    rng = random.Random(36)
    for _ in range(300):
        m = rng.randint(13, 300)
        s = loop_cb_unrank(m, rng.randrange(cb_total(m)))
        assert cb_unrank(m, loop_cb_rank(s)) == s and cb_rank(s) == loop_cb_rank(s)


def test_s1_encoder_matches_the_loop():
    rng = random.Random(37)
    for k in list(range(1, 41)) + [64, 130, 257]:
        for _ in range(8):
            info = random_bits(rng, k)
            s = s1_encode(info)
            assert s == loop_s1_encode(info), info
            assert s1_strip(s, k) == info
    # the strip on every string of the code's lengths 5 and 11 (odd, with
    # ceil(n/2) divisible by 3): the info word or the same failure
    for n in (5, 11):
        for tup in itertools.product("01", repeat=n):
            s = "".join(tup)
            for k in (1, n // 2 - 1, n):
                assert decode_outcome(s1_strip, s, k) == \
                    decode_outcome(loop_s1_strip, s, k), (s, k)


def test_resolve_weight_matches_the_loop():
    for t in range(5):
        for n in range(30):
            for observed in range(-10, 45):
                for c_w in range(-3, 2 * t + 4):
                    args = (observed, c_w, t, n)
                    assert decode_outcome(resolve_weight, *args) == \
                        decode_outcome(loop_resolve_weight, *args), args


def test_parameter_searches_match_the_loops():
    for k in range(1, 401):
        assert s1_params(k) == loop_s1_params(k), k
        for t in range(4):
            assert sr_params(k, t) == loop_sr_params(k, t), (k, t)
            if t:
                assert st_params(k, t) == loop_st_params(k, t), (k, t)


def assert_ranks_like_the_loop(s, t, ks):
    assert is_member(s, t) == loop_is_member(s, t), (s, t)
    for k in ks:
        assert decode_outcome(sr_decode, s, k, t) == \
            decode_outcome(loop_sr_decode, s, k, t), (s, k, t)


def test_codeword_ranker_matches_the_loop_on_every_short_string():
    # k = n fits every rank; k = n // 2 puts the higher ranks out of range
    for n in range(15):
        for tup in itertools.product("01", repeat=n):
            s = "".join(tup)
            for t in (0, 1, 2):
                assert_ranks_like_the_loop(s, t, (max(n, 1), max(n // 2, 1)))
    for s in ("0x1", "0 01", "00x1", "0xx1", "00211"):  # not bit strings
        for t in (0, 1):
            assert_ranks_like_the_loop(s, t, (4,))


def test_codeword_ranker_matches_the_loop_on_long_strings():
    rng = random.Random(35)
    for _ in range(60):
        t = rng.randint(0, 2)
        k = rng.randint(1, 580)
        n = sr_params(k, t)
        member = sr_encode(random_bits(rng, k), t, n)
        for s in (member, random_bits(rng, n)):
            assert_ranks_like_the_loop(s, t, (k, k - 1 or 1))
        pos = rng.randrange(n)  # a near-member: one bit flipped
        flipped = member[:pos] + "10"[int(member[pos])] + member[pos + 1:]
        assert_ranks_like_the_loop(flipped, t, (k,))


def walk_subset(m, bits):
    """The 1-based positions of the ones of a bit string."""
    return [e for e, b in enumerate(bits, 1) if b == "1"]


def assert_walk_ranks_like_the_loops(bits):
    m, i = len(bits), bits.count("1")
    rank, same = _walk(m, i, False, bits)
    subset = walk_subset(m, bits)
    assert same == bits and rank == loop_cns_partition_rank(m, subset), bits
    assert walk_subset(m, _walk(m, i, False, target=rank)[1]) == \
        loop_cns_partition_unrank(m, i, rank) == subset, bits


def test_partition_rank_matches_the_loop():
    # the walk's subset ranks, offset by the smaller blocks, are the rank
    # across blocks of the loop that counted them
    rng = random.Random(36)
    for m in (0, 1, 5, 60, 300):
        for _ in range(30):
            subset = rng.sample(range(1, m + 1), rng.randint(0, m))
            bits = "".join("1" if e in subset else "0" for e in range(1, m + 1))
            block = sum(comb(m, j) for j in range(len(subset)))
            assert _walk(m, len(subset), False, bits)[0] == \
                loop_partition_rank(m, subset) - block


def test_walk_matches_the_comb_rankers_on_every_short_string():
    # every string up to length 14, as a subset and as a CB string (members
    # or not), and every CB rank
    for m in range(15):
        for r in range(-1, cb_total(m) + 1):
            assert outcome(cb_unrank, m, r) == outcome(loop_comb_cb_unrank, m, r)
        for tup in itertools.product("01", repeat=m):
            bits = "".join(tup)
            assert_walk_ranks_like_the_loops(bits)
            assert outcome(cb_rank, bits) == outcome(loop_comb_cb_rank, bits)


def test_walk_matches_the_comb_rankers_on_long_strings():
    rng = random.Random(38)
    for _ in range(300):
        m = rng.randint(15, 700)
        r = rng.randrange(cb_total(m))
        s = loop_comb_cb_unrank(m, r)
        assert cb_unrank(m, r) == s and cb_rank(s) == r == loop_comb_cb_rank(s)
        assert_walk_ranks_like_the_loops(random_bits(rng, m))
        # a sparse subset, as the I masks of long codewords are
        sparse = rng.sample(range(1, m + 1), rng.randint(0, m // 8))
        assert_walk_ranks_like_the_loops(
            "".join("1" if e in sparse else "0" for e in range(1, m + 1)))


def test_block_offsets_match_the_loop():
    for hf in (0, 1, 2, 5, 30, 101, 2050, 4100):
        assert _block_offsets(hf) == loop_comb_block_offsets(hf), hf


def test_ballot_cb_count_matches_the_difference_of_binomials():
    for m in range(1, 301):
        for i in range(-1, m + 2):
            want = 0
            if 0 <= 2 * i < m:
                want = comb(m - 1, i) - (comb(m - 1, i - 1) if i else 0)
            assert cb_count(m, i) == want, (m, i)
    assert [cb_count(0, i) for i in (-1, 0, 1)] == [0, 1, 0]
    assert cb_count(-1, 0) == 0


def search_outcome(search, c, sigma, bad_levels, collect_all):
    """The solutions a search returns, with its guess and backtrack counts."""
    stats = BacktrackStats()
    sols = search(c, sigma, bad_levels, stats, collect_all=collect_all)
    return sols, stats.guesses, stats.backtracks


def test_search_matches_the_loop_on_every_short_string():
    for n in range(1, 13):
        for tup in itertools.product("01", repeat=n):
            s = "".join(tup)
            c = compose_all(s)
            assert c == loop_of_string(s), s
            sigma = sigma_from_weights(cumulative_weights(c), n)
            for collect_all in (True, False):
                assert search_outcome(_search, c, sigma, frozenset(), collect_all) == \
                    search_outcome(loop_search, c, sigma, frozenset(), collect_all), s


def single_swaps(c):
    """Every multiset one swapped element away from c, with the swapped level."""
    for l in range(1, c.n + 1):
        for w in list(c.levels[l]):
            for new_w in range(l + 1):
                if new_w != w:
                    out = c.copy()
                    out.replace(l, w, new_w)
                    yield l, out


def test_search_matches_the_loop_on_every_single_swap():
    rng = random.Random(23)
    codewords = [sr_encode(random_bits(rng, k)) for k in (4, 8, 11)]
    codewords += [s1_encode(random_bits(rng, k)) for k in (3, 6)]
    codewords += [st_encode(random_bits(rng, k), t) for k, t in ((3, 1), (1, 2))]
    for s in codewords:
        sigma = sigma_of_string(s)
        for l, c in single_swaps(compose_all(s)):
            for bad in (frozenset(), frozenset({l})):
                for collect_all in (True, False):
                    assert search_outcome(_search, c, sigma, bad, collect_all) == \
                        search_outcome(loop_search, c, sigma, bad, collect_all), (s, l)


def test_search_matches_the_loop_on_long_strings():
    # past the exhaustive lengths, and past one byte per window weight
    rng = random.Random(26)
    strings = [random_bits(rng, rng.randint(257, 600)) for _ in range(2)]
    strings.append("".join(rng.choices("01", (1, 4), k=rng.randint(400, 600))))
    strings += [sr_encode(random_bits(rng, k)) for k in (252, 400, 590)]
    assert max(s.count("1") for s in strings) > 255
    for s in strings:
        c = compose_all(s)
        sigma = sigma_of_string(s)
        l = rng.randint(1, len(s))
        old = rng.choice(sorted(c.levels[l]))
        swapped = c.copy()
        swapped.replace(l, old, rng.choice([w for w in range(l + 1) if w != old]))
        for obs, bad in ((c, frozenset()), (swapped, frozenset()),
                         (swapped, frozenset({l}))):
            for collect_all in (True, False):
                assert search_outcome(_search, obs, sigma, bad, collect_all) == \
                    search_outcome(loop_search, obs, sigma, bad, collect_all), \
                    (s, l, bad)


def test_catalan_decoder_matches_the_loop_beyond_single_errors():
    # criterion 09 covers every single error at t = 1; each of these rows
    # also reaches mirror-consistent candidates whose sigma leaves range,
    # which the loop filters out and the current code leaves to
    # sigma_from_weights
    rng = random.Random(24)
    rows = [(3, 1, "symmetric", 2, 100), (2, 2, "symmetric", 1, 2),
            (2, 2, "symmetric", 2, 12), (2, 2, "symmetric", 3, 100)]
    rows += [(k, 1, kind, errors, 10) for k in (3, 4)
             for kind in ("symmetric", "asymmetric") for errors in (1, 2, 3)]
    for k, t, kind, errors, trials in rows:
        for _ in range(trials):
            s = catalan_code_encode(random_bits(rng, k), t)
            c, _ = corrupt(compose_all(s), ErrorModel(kind, errors), rng)
            assert outcome(catalan_code_decode_bruteforce, c, t) == \
                outcome(loop_catalan_code_decode_bruteforce, c, t), (s, errors)


def corrupt_outcome(corrupt_fn, observe, s, model, seed, adversarial):
    """The log and every level of the corrupted observation (or the exception
    type), with the generator's state afterwards."""
    rng = random.Random(seed)
    got = outcome(corrupt_fn, observe(s), model, rng, adversarial)
    if isinstance(got, tuple):
        obs, log = got
        got = log, [obs.level_counter(l) for l in range(1, obs.n + 1)]
    return got, rng.getstate()


def test_corrupt_matches_the_loop():
    # the same draws from the same random stream, for both observation types
    rng = random.Random(25)
    for trial in range(480):
        s = random_bits(rng, rng.randint(1, 30))
        model = ErrorModel(("asymmetric", "symmetric")[trial % 2], trial // 2 % 4)
        adversarial = bool(trial // 8 % 2)
        for observe in (compose_all, DeltaObservation):
            seed = rng.random()
            assert corrupt_outcome(corrupt, observe, s, model, seed, adversarial) == \
                corrupt_outcome(loop_corrupt, observe, s, model, seed, adversarial), \
                (s, model, adversarial)


def test_corrupt_matches_the_loop_on_long_strings():
    # the inlined shuffle across its block boundaries and at the bench's
    # n = 18,628; the delta stands in for every level, whose comparison
    # would cost O(n^2)
    rng = random.Random(31)
    forms = [compose_all(random_bits(rng, n)) for n in (255, 256, 257, 1025)]
    forms.append(DeltaObservation(random_bits(rng, 18628)))
    for c in forms:
        for kind in ("asymmetric", "symmetric"):
            for t in (0, 1, 3):
                seed = rng.random()
                got = []
                for corrupt_fn in (corrupt, loop_corrupt):
                    draws = random.Random(seed)
                    out, log = corrupt_fn(c, ErrorModel(kind, t), draws)
                    got.append((log, out.delta, draws.getstate()))
                assert got[0] == got[1], (c.n, kind, t)


def seeded_multisets(seed, lengths):
    """compose_all of a random string of each length, then the same multiset
    after 1-3 asymmetric or symmetric errors, uniform or adversarial."""
    rng = random.Random(seed)
    for n in lengths:
        c = compose_all(random_bits(rng, n))
        yield c
        for kind in ("asymmetric", "symmetric"):
            t = rng.randint(1, 3)
            if kind == "asymmetric" and t > (n + 1) // 2 or t > n:
                continue
            yield corrupt(c, ErrorModel(kind, t), rng, adversarial=rng.random() < 0.3)[0]


def test_cumulative_weights_matches_the_loop():
    for c in seeded_multisets(26, range(1, 61)):
        assert cumulative_weights(c) == loop_cumulative_weights(c)


def test_symmetric_difference_matches_the_loop():
    # equal, shifted and zero-delta observations, dense and sparse alike
    rng = random.Random(27)
    for n in range(1, 41):
        s = random_bits(rng, n)
        dense, sparse = compose_all(s), DeltaObservation(s)
        shifted = corrupt(sparse, ErrorModel("symmetric", min(n, 2)), rng)[0]
        undone = shifted.copy()  # reverted one error at a time: an empty delta
        for l, d in shifted.delta.items():
            (lo, _), (hi, _) = sorted(d.items(), key=lambda item: item[1])
            undone.replace(l, hi, lo)
        assert undone.delta == {}
        other = compose_all(random_bits(rng, n))
        for a, b in ((dense, sparse), (sparse, sparse), (dense, shifted),
                     (shifted, sparse), (undone, dense), (dense, other),
                     (shifted, other)):
            assert multiset_symmetric_difference(a, b) == \
                loop_multiset_symmetric_difference(a, b)


def text_outcome(parse_fn, text):
    """n and every level's items in order, or the exception's type and message."""
    try:
        c = parse_fn(text)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return type(e), str(e)
    return c.n, [(l, list(level.items())) for l, level in c.levels.items()]


# Replacements for one token: non-canonical spellings of a weight, a negative
# or out-of-range weight, and text int() rejects.
TOKENS = ("01", "+1", "1_0", "00", "-1", "-0", "\u0663", "99", "x", "1.0",
          "1__0", "_1", "0x1", "1e0")


def malformed(rng, text):
    """text with one random defect: a token, a level line or the n= line."""
    lines = text.splitlines()
    i = rng.randrange(1, len(lines))
    head, _, rest = lines[i].partition(": ")
    toks = rest.split()
    kind = rng.randrange(7)
    if kind == 0 and toks:  # respell or replace a token
        toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
        lines[i] = f"{head}: " + " ".join(toks)
    elif kind == 1 and toks:  # a 0-padded copy of one token replaces a token
        j = rng.randrange(len(toks))
        toks.insert(j, "0" + toks[j])
        del toks[j + 1 if rng.random() < 0.5 else rng.randrange(len(toks))]
        lines[i] = f"{head}: " + " ".join(toks)
    elif kind == 2:  # repeat a level line
        lines.insert(i, lines[rng.randrange(1, len(lines))])
    elif kind == 3:  # drop a level line
        del lines[i]
    elif kind == 4:  # relabel a level
        lines[i] = f"{rng.choice(('0', '-1', '01', 'x', '', str(len(lines))))}: {rest}"
    elif kind == 5:  # break the n= line
        lines[0] = rng.choice(("n=", "n=x", "n=0", "n=-1", "m=3", "n= 05",
                               f"n={len(lines)}", f"n={len(lines) - 2}",
                               "n=1_0", f"n=+{len(lines) - 1}"))
    else:  # blank lines, padding and CRLF endings parse like the clean text
        lines.insert(i, "  ")
        lines[i - 1] = f"\t{lines[i - 1]}  "
        return "\r\n".join(lines) + "\r\n"
    return "\n".join(lines) + "\n"


def spelled_canonically(text):
    """Whether the n= value, the level labels and the weights are all ASCII
    0|[1-9][0-9]*, the one spelling parse accepts (the loop took any int())."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    numbers = [lines[0][2:]] if lines else []
    for ln in lines[1:]:
        head, _, rest = ln.partition(":")
        numbers += [head, *rest.split()]
    return all(re.fullmatch("0|[1-9][0-9]*", x, re.ASCII) for x in numbers)


def parses_like_the_loop(text):
    """Assert parse's outcome, with a non-canonical number always rejected;
    returns whether the text was canonical and both outcomes' failure flags."""
    got, want = text_outcome(parse, text), text_outcome(loop_parse, text)
    canonical = spelled_canonically(text)
    if canonical:
        assert got == want, text
    else:
        assert got[0] is CorruptedInput, text
    return canonical, got[0] is CorruptedInput, want[0] is CorruptedInput


def test_text_format_matches_the_loop():
    rng = random.Random(28)
    kinds = Counter()
    for c in seeded_multisets(29, range(1, 81)):
        text = serialize(c)
        assert text == loop_serialize(c)
        assert text_outcome(parse, text) == text_outcome(loop_parse, text)
        for _ in range(3):
            kinds[parses_like_the_loop(malformed(rng, text))] += 1
    for bad in ("", "\n\n", "n=1", "1: 0", "n=1\n1: 0 01", "n=2\n2: 1\n1: 0 01",
                "n=2\n2: 1\n1: 1 01", "n=2\n1: 0 1\n2: 1", "n=2\n2: 1\n2: 1"):
        parses_like_the_loop(bad)
    # canonical text that parses and text that fails, and non-canonical text
    # that the loop accepted
    assert {(True, False, False), (True, True, True),
            (False, True, False)} <= set(kinds)


def test_text_format_reproduces_the_fixtures():
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    texts = []
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as f:
            texts.append(f.read())
    multisets = [text for text in texts if text.startswith("n=")]
    assert len(multisets) == 3
    for text in multisets:
        assert serialize(parse(text)) == text


def erased(rng, word, count):
    """word with `count` random digits replaced by None."""
    out = list(word)
    for pos in rng.sample(range(len(out)), count):
        out[pos] = None
    return out


def old_codeword(word, msg_len, n_era):
    """The old decode's message re-encoded, or the old decode's exception type."""
    got = outcome(loop_ternary_erasure_decode, word, msg_len, n_era)
    return got if isinstance(got, type) else loop_ternary_erasure_encode(got, n_era)


def test_ternary_encode_matches_the_loop():
    rng = random.Random(25)
    for msg_len in range(1, 61):
        for n_era in range(10):
            msg = [rng.randrange(3) for _ in range(msg_len)]
            assert ternary_erasure_encode(msg, n_era) == \
                loop_ternary_erasure_encode(msg, n_era), (msg_len, n_era)


def test_ternary_decode_returns_the_codeword_the_loop_re_encodes():
    rng = random.Random(26)
    outcomes = Counter()
    for msg_len in range(1, 41):
        for n_era in range(7):
            n_digits = msg_len + n_era * ternary_field_params(msg_len, n_era)
            cw = ternary_erasure_encode(
                [rng.randrange(3) for _ in range(msg_len)], n_era)
            # a codeword within the budget decodes to itself
            word = erased(rng, cw, rng.randint(0, n_era))
            assert ternary_erasure_decode(word, msg_len, n_era) == cw == \
                old_codeword(word, msg_len, n_era), (word, n_era)
            # a random word either completes as the loop's codeword does, or
            # has no codeword through its intact symbols
            word = erased(rng, [rng.randrange(3) for _ in range(n_digits)],
                          rng.randint(0, min(n_digits, n_era + 2)))
            got = outcome(ternary_erasure_decode, word, msg_len, n_era)
            want = old_codeword(word, msg_len, n_era)
            assert got == want or got is EraseBudgetExceeded, (word, n_era)
            outcomes[got == want, isinstance(got, list)] += 1
    # every kind of outcome is reached: a completed word, a word with too
    # many erasures, and a completion with a nonzero pad digit
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def erase_symbols(word, msg_len, e, symbols):
    """word with every digit of the given field symbols replaced by None.
    The message's zero pad has no digits in word; every symbol has one."""
    pad = -msg_len % e
    out = list(word)
    for i in symbols:
        for pos in range(i * e, (i + 1) * e):
            if pos < msg_len:
                out[pos] = None
            elif pos >= msg_len + pad:
                out[pos - pad] = None
    return out


def completes_like_the_loop(word, msg_len, n_era):
    """The completion of word, or its exception type, checked against the
    loop's."""
    got = outcome(ternary_erasure_decode, word, msg_len, n_era)
    assert got == outcome(loop_ternary_complete, list(word), msg_len, n_era), \
        (word, msg_len, n_era)
    return got


def test_ternary_code_matches_the_loop_on_every_erasure_pattern():
    rng = random.Random(30)
    outcomes = set()
    for msg_len in range(1, 13):
        for n_era in range(5):
            e = ternary_field_params(msg_len, n_era)
            N = -(-msg_len // e) + n_era
            msg = [rng.randrange(3) for _ in range(msg_len)]
            cw = ternary_erasure_encode(msg, n_era)
            assert cw == loop_ternary_complete(
                msg + [None] * (n_era * e), msg_len, n_era)
            noise = [rng.randrange(3) for _ in cw]
            for size in range(n_era + 2):
                for symbols in itertools.combinations(range(N), size):
                    for word in (cw, noise):
                        got = completes_like_the_loop(
                            erase_symbols(word, msg_len, e, symbols),
                            msg_len, n_era)
                        outcomes.add(got if isinstance(got, type) else list)
    assert outcomes == {list, EraseBudgetExceeded}


def test_ternary_code_matches_the_loop_at_large_k():
    rng = random.Random(31)
    # msg_len 2,055 is the sigma prefix of asym-t at k = 4,096, t = 3
    for msg_len, n_era in ((2055, 9), (1801, 6)):
        e = ternary_field_params(msg_len, n_era)
        N = -(-msg_len // e) + n_era
        assert N - n_era >= 300
        msg = [rng.randrange(3) for _ in range(msg_len)]
        cw = ternary_erasure_encode(msg, n_era)
        assert cw == loop_ternary_complete(
            msg + [None] * (n_era * e), msg_len, n_era)
        noise = [rng.randrange(3) for _ in cw]
        K = N - n_era
        for word, symbols, want in (
                (cw, rng.sample(range(N), n_era), cw),
                (cw, rng.sample(range(N), n_era + 1), EraseBudgetExceeded),
                # the last message symbol is interpolated, and noise leaves
                # its pad digits nonzero
                (noise, [K - 1, *rng.sample(range(K - 1), n_era - 1)],
                 EraseBudgetExceeded)):
            assert completes_like_the_loop(
                erase_symbols(word, msg_len, e, symbols), msg_len, n_era) == want


def test_bch_decode_returns_the_codeword_the_loop_re_encodes():
    rng = random.Random(27)
    for msg_len, t in ((11, 1), (57, 2), (200, 3)):
        code = BCHCode(msg_len, t)
        for flips in range(2 * t + 3):
            for _ in range(20):
                word = code.encode([rng.randrange(2) for _ in range(msg_len)])
                for pos in rng.sample(range(code.code_len), flips):
                    word[pos] ^= 1
                received = word[:]
                got = outcome(code.decode, word)
                assert word == received  # decode corrects a copy
                want = outcome(loop_bch_decode, code, word)
                if not isinstance(want, type):
                    want = code.encode(want)
                assert got == want, (msg_len, t, flips)
                if not isinstance(got, type):
                    # why decode rechecks nothing: S_2i = S_i^2 for a binary
                    # word, so the located bits all flip to a codeword
                    assert not any(code._syndromes(got))
                    assert sum(map(operator.ne, got, received)) <= t


def decode_outcome(f, *args):
    """f's return value, or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return type(e), str(e)


def test_sym_poly_decode_matches_the_loop():
    rng = random.Random(32)
    outcomes = Counter()
    for t in (1, 2):
        p = poly_params_from_payload(13, t)
        for errors in range(t, t + 3):
            for _ in range(15):
                u = random_bits(rng, 13)
                obs, _ = corrupt(DeltaObservation(etn_encode(u, t, p)),
                                 ErrorModel("symmetric", errors), rng)
                got = decode_outcome(etn_decode, obs, t)
                assert got == decode_outcome(loop_etn_decode, obs, t), \
                    (t, errors, u, obs.delta)
                outcomes[got if isinstance(got, tuple) else got == u] += 1
    # the 30 decodes within the budget succeed; failures beyond it are
    # compared too, message and all
    assert outcomes[True] == 30 and len(outcomes) >= 2, outcomes


def shell_variants(s: str, half: int, rng):
    """(observation, sigma) pairs around codeword s: the clean one, 10 flipped
    shell sigmas, every payload sigma moved to another value in {0, 1, 2},
    and a level of an ambiguous payload pair changed without correction."""
    obs = DeltaObservation(s)
    sigma = sigma_of_string(s)
    h = len(s) // 2
    yield obs, sigma
    for j in rng.sample(range(half), 10):
        yield obs, sigma[:j] + (1 - sigma[j],) + sigma[j + 1:]
    for j in range(half, h):
        for v in ((0, 2) if sigma[j] == 1 else (1,)):
            yield obs, sigma[:j] + (v,) + sigma[j + 1:]
    k = rng.choice([j for j in range(half, h) if sigma[j] == 1])
    level = len(s) - k - 1
    old = rng.choice(sorted(obs.level_counter(level)))
    bad = obs.copy()
    bad.replace(level, old, rng.choice([w for w in range(level + 1) if w != old]))
    yield bad, sigma


def test_known_shell_matches_the_loop():
    rng = random.Random(34)
    outcomes = Counter()
    for k in (4, 12, 40):
        for t in (1, 2):
            s = etn_encode(sr_encode(random_bits(rng, k), 0), t)
            half = poly_params_from_length(len(s), t).r_hat // 2
            zeta = s[len(s) - half:]
            for obs, sigma in shell_variants(s, half, rng):
                # etn_decode passed the loop d_x, which is sum(sigma)
                got = decode_outcome(_reconstruct_known_shell, obs, zeta, sigma)
                assert got == decode_outcome(loop_known_shell, obs, half, zeta,
                                             sigma, sum(sigma)), (k, t, sigma)
                assert isinstance(got, str) or got[0] is ReconstructionFailure
                outcomes["same" if got == s else type(got)] += 1
    # a moved payload sigma may still read back a string, which only the
    # decoder's final profile check rejects
    assert outcomes["same"] >= 6 and outcomes[tuple] > 100, outcomes
    # the prefix and suffix weights tie at the ambiguous pair 7, so both of
    # its branches fit level 7
    s = "00001110000110"
    obs, sigma = DeltaObservation(s), sigma_of_string(s)
    assert decode_outcome(_reconstruct_known_shell, obs, "0110", sigma) == \
        decode_outcome(loop_known_shell, obs, 4, "0110", sigma, sum(sigma)) == \
        (ReconstructionFailure, "pair 7 is not settled by level 7")


def test_known_shell_inner_windows_fit_their_level():
    # why _reconstruct_known_shell counts a sigma = 1 pair's inner windows
    # unchecked: once the shell matches, every placed pair sums to its sigma,
    # so whatever branches the earlier pairs took, each window is in 0..level
    rng, place = random.Random(34), random.Random(35)
    windows = 0
    for k in (4, 12, 40):
        for t in (1, 2):
            s = etn_encode(sr_encode(random_bits(rng, k), 0), t)
            half = poly_params_from_length(len(s), t).r_hat // 2
            n, h = len(s), len(s) // 2
            shell = np.frombuffer(s[::-1][:half].encode("ascii"), np.uint8) - ord("0")
            for _, sigma in shell_variants(s, half, rng):
                sig = np.asarray(sigma[:h], dtype=np.int64)
                if (sig[:half] != shell).any():
                    continue  # the decoder stops at the shell first
                a = sig // 2  # pair j holds a_j and sig_j - a_j
                for j in (half + np.flatnonzero(sig[half:] == 1)).tolist():
                    pw = np.concatenate(([0], np.cumsum(a[:j])))
                    sw = np.concatenate(([0], np.cumsum(sig[:j] - a[:j])))
                    inner = sum(sigma) - pw[1:] - sw[:0:-1]
                    assert 0 <= inner.min() and inner.max() <= n - j - 1, (k, t, j)
                    windows += inner.size
                    a[j] = place.randint(0, 1)  # either branch
    assert windows > 10 ** 6, windows


def test_dense_sym_poly_decode_matches_the_loop():
    # the parsed-file path: the whole quadratic multiset, no delta
    rng = random.Random(33)
    u = random_bits(rng, 13)
    c = compose_all(etn_encode(u, 1))
    l = rng.randrange(1, c.n + 1)
    old = rng.choice(sorted(c.level_counter(l).elements()))
    c.replace(l, old, rng.choice([v for v in range(l + 1) if v != old]))
    assert etn_decode(c, 1) == loop_etn_decode(c, 1) == u


def planted_error(rng, t, n):
    """A random nonzero error of at most t replacements: {(w, z): c}."""
    error = Counter()
    while not any(error.values()):
        error.clear()
        for _ in range(rng.randint(1, t)):
            l = rng.randint(1, n)
            old, new = rng.sample(range(l + 1), 2)
            error[(new, l - new)] += 1
            error[(old, l - old)] -= 1
    return {k: c for k, c in error.items() if c}


def trace_offsets(rng, kind, t, n):
    """Etilde's terms {(p, r): c} around (dx, dy), planted as kind.  Each
    broken kind keeps the term count of a valid trace where it can."""
    def trace(error):
        return {k: c for (p, r), c in error.items() if c
                for k in ((p, r), (-p, -r))}
    error = planted_error(rng, t, n)
    (p, r), c = next(iter(error.items()))
    rest = trace({k: v for k, v in error.items() if k != (p, r)})
    if kind == "mixed-sign":
        return {**rest, (p, -r - 1): c, (-p, r + 1): c}
    if kind == "flipped-mirror":
        return {**rest, (p, r): c, (-p, -r): -c}
    if kind == "missing-mirror":
        return {**rest, (p, r): c}
    if kind == "origin":
        return {**rest, (p, r): c, (0, 0): c}
    if kind == "coefficient":
        return trace({k: v * (t + 1) for k, v in error.items()})
    if kind == "mass":  # 2t + 2 in at most 4 terms
        heavy = Counter({k: v * t for k, v in planted_error(rng, 1, n).items()})
        heavy.update(planted_error(rng, 1, n))
        return trace(heavy)
    if kind == "unbalanced":
        return {**rest, (p, r + 1): c, (-p, -r - 1): c}
    if kind == "beyond-n":
        h = n // 2 + 1
        return {(h, h): 1, (-h, -h): 1, (h + 1, h - 1): -1, (-h - 1, 1 - h): -1}
    if kind == "x-window":
        return {**rest, (n + rng.randint(1, 3), r): c, (-p, -r): c}
    if kind == "y-window":
        return {**rest, (p, r): c, (-p, -n - rng.randint(1, 3)): c}
    if kind == "too-many":
        more = Counter(error)
        while len(trace(more)) <= 4 * t:
            more.update(planted_error(rng, 1, n))
        return trace(more)
    return {} if kind == "clean" else trace(error)


TRACE_KINDS = ("clean", "planted", "mixed-sign", "flipped-mirror",
               "missing-mirror", "origin", "coefficient", "mass", "unbalanced",
               "beyond-n", "x-window", "y-window", "too-many", "noise")


def test_error_trace_check_matches_the_fold():
    rng = random.Random(35)
    outcomes = Counter()
    for t in (1, 2):
        R = 4 * t
        for n in (30, 200, poly_params_from_payload(13, t).n):
            field = field_setup(n)
            for i in range(250 if n < 1000 else 60):
                kind = TRACE_KINDS[i % len(TRACE_KINDS)]
                d_x, d_y = rng.randint(0, n), rng.randint(0, n)
                if kind == "noise":
                    e_grid = np.array([[rng.randrange(field.q)
                                        for _ in range(2 * R + 1)]
                                       for _ in range(2 * R + 1)])
                else:
                    terms = trace_offsets(rng, kind, t, n)
                    e_grid = monomial_grid(
                        np.array([d_x + p for p, _ in terms], dtype=np.int64),
                        np.array([d_y + r for _, r in terms], dtype=np.int64),
                        R, field, np.array(list(terms.values()), dtype=np.int64))
                got = outcome(recover_error_poly, e_grid, d_x, d_y, t, field, n)
                assert got == outcome(loop_fold_error_poly, e_grid, d_x, d_y, t,
                                      field, n), (t, n, kind, d_x, d_y)
                outcomes[got if isinstance(got, type) else bool(got)] += 1
    assert sum(outcomes.values()) >= 1000
    assert all(outcomes[k] for k in (True, False, CorruptedInput,
                                     SparsityExceeded)), outcomes


def as_point_dict(grid, t):
    """A grid array at [l1 + R, l2 + R] as the loop's {(l1, l2): value}."""
    return dict(zip(_grid_points(t), grid.ravel().tolist()))


def test_grid_bits_match_the_loop():
    rng = random.Random(34)
    for t in (1, 2, 3):
        p = poly_params_from_payload(rng.randint(1, 40), t)
        q, R = p.field.q, 4 * t
        for trial in range(40):
            a = rng.randint(0, 2 * t)
            grid = {pt: rng.randrange(q) for pt in _grid_points(t)}
            bits = loop_grid_to_bits(a, grid, p)
            assert _grid_to_bits(a, grid, p) == bits
            if trial % 4 == 1:  # random bits: elements past q are likely
                bits = [rng.randrange(2) for _ in bits]
            elif trial % 4 == 2:  # a residue past 2t
                bits[:p.a_bits] = [1] * p.a_bits
            elif trial % 4 == 3:  # one element set to all ones, >= q
                pos = p.a_bits + rng.randrange((2 * R + 1) ** 2) * p.elem_bits
                bits[pos:pos + p.elem_bits] = [1] * p.elem_bits
            # the decoder passes the whole block codeword: trailing parity bits
            bits += [rng.randrange(2) for _ in range(p.code_len - p.msg_len)]
            got = decode_outcome(_bits_to_grid, bits, p)
            want = decode_outcome(loop_bits_to_grid, bits, p)
            if isinstance(want, tuple) and isinstance(want[1], dict):
                assert got[0] == want[0] and as_point_dict(got[1], t) == want[1]
            else:
                assert got == want, (t, trial)
