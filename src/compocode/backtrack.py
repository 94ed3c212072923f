"""String reconstruction from composition multisets by inward backtracking.

The search places bit pairs (s_{k}, s_{n+1-k}) outside-in.  After k pairs the
compositions of every length-(n-k) substring are determined by the known
prefix/suffix weights and the total weight W = sum(sigma):

    wt(s_i .. s_{i+n-k-1}) = W - wt(s_1^{i-1}) - wt(s_{i+n-k}^n),  i = 1..k+1

so each extension is validated by comparing these k+1 values against the
observed level n-k.  The sigma value of the next pair leaves zero (sigma in
{0,2}) or two (sigma = 1) branch choices; when sigma = 1 and the prefix and
suffix have equal weight the two choices are indistinguishable at this level
(a guess) and the search explores both depth-first, rolling back on the first
inconsistency.  It runs as one loop over an explicit stack of placements, so
no call depth grows with n.

Reconstruction is inherently two-sided: C(s) = C(s^r), so the first sigma = 1
pair is fixed canonically to (0, 1) and reversals are restored afterwards.

The tolerant mode accepts a multiset with up to t corrupted levels (one
element swapped per level).  Given the exact sigma sequence and the observed
cumulative weights, the corrupted levels are exactly those whose weight
disagrees with the sigma-derived profile, and at such a level a single
swapped element (a symmetric difference of 2) is tolerated; everywhere else
exact agreement is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from struct import pack

from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    compose_all,  # noqa: F401 - bench/tracer.py rebinds this by-name import
    cumulative_weights,
    prefix_weights,
    sigma_from_weights,
    weights_from_sigma,
)


class ReconstructionFailure(ValueError):
    """No string consistent with the multiset within the allowed tolerance."""


@dataclass
class BacktrackStats:
    guesses: int = 0      # weight-tie branch points
    backtracks: int = 0   # rollbacks of an accepted extension


def _pair_choices(sv: int):
    if sv == 0:
        return (("0", "0"),)
    if sv == 2:
        return (("1", "1"),)
    return (("0", "1"), ("1", "0"))


def _lanes(v: int, size: int) -> str:
    """The first size 32-bit lanes of v, lowest first, one code point each.

    Lanes hold window weights, which never exceed n, so each is a valid code
    point while n < 0x110000; surrogatepass admits 0xD800..0xDFFF.
    """
    return v.to_bytes(4 * size, "little").decode("utf-32-le", "surrogatepass")


def _pack(values) -> int:
    """values as the 32-bit lanes of one int, the first in the lowest lane."""
    return int.from_bytes(pack(f"<{len(values)}I", *values), "little")


def _remainder(level, v: int, size: int) -> dict[int, int]:
    """Each observed weight's multiplicity in level less its count in v's lanes."""
    counts = map(_lanes(v, size).count, map(chr, level))
    return dict(zip(level, map(sub, level.values(), counts)))


def _excess(rem) -> int:
    """How many observed elements the counted windows leave unexplained.

    That is the sum of the positive remainders: (sum |r| + sum r) / 2.
    """
    r = rem.values()
    return (sum(map(abs, r)) + sum(r)) // 2


def _finalize(c, s: str, n: int, steps: int, bad_levels) -> bool:
    """Whether s matches the levels the search skips: 1 .. n-steps-1 and n.

    When s is the source string of a source-backed c, only the levels in
    c's delta can differ from s's, so only those are checked, in full.  Level l
    of s is the lane-wise difference of its packed prefix weights X shifted
    down by l lanes and X itself; prefix weights never decrease, so no lane
    borrows.
    """
    X = _pack(prefix_weights(s))
    for l in c.levels_to_check(s, (*range(1, n - steps), n)):
        size = n + 1 - l
        windows = (X >> 32 * l) - (X & ((1 << 32 * size) - 1))
        if _excess(_remainder(c.level_counter(l), windows, size)) > (l in bad_levels):
            return False
    return True


def _search(c, sigma, bad_levels, stats, *, collect_all):
    """Depth-first pair placement.  Returns the list of consistent strings.

    The stack holds placements (k, (a, b, pw, sw), Q, S) of the k-th pair
    (a, b) = (s_k, s_{n+1-k}), with the prefix and suffix weights after it.
    Q holds W - wt(s_1^j) in lane j-1 and S holds wt(s_{n+1-i}^n) in lane
    k-i, so lane j-1 of Q - S is the weight of the level-(n-k-1) window
    s_{j+1} .. s_{n-k-1+j}, for j = 1..k: the windows the next pair does not
    touch.  A level matches when the windows leave no observed element
    unexplained (one at a corrupted level); validate_shape has fixed every
    level's size, so this is multiset equality.

    A backtrack is an entered placement with no solution below it.  In
    depth-first order a solution's path is new from where it leaves the
    last solution's, so `shared`, the pairs the current path shares with
    the last solution, lets each solution-path placement be counted once.
    """
    n = c.n
    W = sum(sigma)
    steps = n // 2
    mid = str(sigma[steps]) if n % 2 else ""
    first_one = next((i for i in range(steps) if sigma[i] == 1), None)
    solutions: list[str] = []
    path: list[tuple] = []  # path[i] is the placement of pair i+1
    stack = [(0, ("", "", 0, 0), 0, 0)]
    entered = on_path = shared = 0
    while stack:
        k, pair, Q, S = stack.pop()
        _, _, pw, sw = pair
        if k:
            entered += 1
            del path[k - 1:]
            path.append(pair)
            shared = min(shared, k - 1)
        if k == steps:
            s = "".join(p[0] for p in path) + mid + \
                "".join(p[1] for p in reversed(path))
            if _finalize(c, s, n, steps, bad_levels):
                solutions.append(s)
                on_path += k - shared
                shared = k
                if not collect_all:
                    break
            continue
        # level n-k-1 less its k windows already known
        m = n - k - 1
        rem = _remainder(c.level_counter(m), Q - S, k)
        excess = _excess(rem)
        choices = _pair_choices(sigma[k])
        if sigma[k] == 1:
            if k == first_one:
                choices = (("0", "1"),)
            else:
                if pw == sw:
                    stats.guesses += 1
                # try first the branch whose new windows hold the largest
                # weight left at level m: W - sw and W - pw - 1 for (1, 0).
                # Some weight is left, since validate_shape gave level m k+2
                # elements and the k known windows explain at most k of them
                wmax = max(w for w, r in rem.items() if r > 0)
                if wmax in (W - sw, W - pw - 1) and \
                        wmax not in (W - sw - 1, W - pw):
                    choices = choices[::-1]
        for a, b in reversed(choices):
            pa = pw + (a == "1")
            sb = sw + (b == "1")
            # the pair's two windows, s_1 .. s_{n-k-1} and s_{k+2} .. s_n,
            # each explain one element if level n-k-1 has one left for it
            x, y = W - sb, W - pa
            if excess - (rem.get(x, 0) > 0) - (rem.get(y, 0) - (x == y) > 0) \
                    <= (m in bad_levels):
                stack.append((k + 1, (a, b, pa, sb),
                              Q | (W - pa) << 32 * k, S << 32 | sb))
    stats.backtracks += entered - on_path
    return solutions


def _search_exact(c: CompositionMultiset, stats, *, collect_all):
    """_search on an uncorrupted multiset, with sigma solved from its weights."""
    c.validate_shape()
    try:
        sigma = sigma_from_weights(cumulative_weights(c), c.n)
    except CorruptedInput as e:
        raise ReconstructionFailure(f"inconsistent multiset: {e}") from e
    sols = _search(c, sigma, frozenset(), stats, collect_all=collect_all)
    if not sols:
        raise ReconstructionFailure("inconsistent multiset: no consistent string")
    return sols


def reconstruct(c: CompositionMultiset) -> set[str]:
    """All strings v with C(v) = C: the confusable set, closed under reversal."""
    sols = _search_exact(c, BacktrackStats(), collect_all=True)
    return set(sols) | {s[::-1] for s in sols}


def reconstruct_unique(c: CompositionMultiset):
    """Reconstruct a codeword multiset; the 0-heavy branch is canonical.

    Returns (string, stats).  A rollback is an error, since codewords with
    the prefix/suffix weight-gap guarantee never need one.
    """
    stats = BacktrackStats()
    sols = _search_exact(c, stats, collect_all=False)
    if stats.backtracks:
        raise ReconstructionFailure(
            "backtracking occurred: input is not a codeword multiset")
    return sols[0], stats


def tolerant_reconstruct(c: CompositionMultiset, w_obs, sigma, t: int):
    """Reconstruct from a multiset with up to t corrupted levels.

    w_obs is the weight profile of c, whose shape the caller has checked;
    sigma must be exact.  Corrupted levels are those where w_obs disagrees
    with the sigma-derived profile; each absorbs one swapped element, and a
    level and its mirror are never both corrupted.  Returns (string, stats).
    """
    n = c.n
    w_true = weights_from_sigma(sigma, sum(sigma), n)
    bad = frozenset(l for l in range(1, n + 1) if w_obs[l - 1] != w_true[l - 1])
    if len(bad) > t:
        raise ReconstructionFailure(
            f"{len(bad)} corrupted levels exceed the tolerance of {t}")
    for l in bad:
        if n + 1 - l in bad and n + 1 - l != l:
            raise ReconstructionFailure(
                "mirror levels both corrupted: outside the asymmetric model")
    stats = BacktrackStats()
    sols = _search(c, tuple(sigma), bad, stats, collect_all=False)
    if not sols:
        raise ReconstructionFailure("tolerance budget exhausted on all branches")
    return sols[0], stats
