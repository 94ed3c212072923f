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
inconsistency.

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

from collections import Counter
from dataclasses import dataclass
from operator import add

from .compositions import (
    CompositionMultiset,
    CorruptedInput,
    compose_all,  # noqa: F401 - bench/tracer.py rebinds this by-name import
    cumulative_weights,
    level_of_prefix,
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


def _search(c, sigma, bad_levels, stats, *, collect_all):
    """Depth-first pair placement.  Returns the list of consistent strings."""
    n = c.n
    h = (n + 1) // 2
    W = sum(sigma)
    steps = n // 2
    prefix: list[str] = []
    suffix: list[str] = []  # suffix[k-1] = s_{n+1-k}
    pw = [0]
    sw = [0]
    solutions: list[str] = []
    first_one = next((i for i in range(steps) if sigma[i] == 1), None)

    def expected_level(pws, sws):
        # W - wt(prefix) - wt(suffix) over paired prefix and suffix weights
        return Counter(map(W.__sub__, map(add, pws, sws)))

    def level_matches(expected, obs, l):
        # equal, or one swapped element at a level known to be corrupted
        return expected == obs or l in bad_levels and (
            (expected - obs).total() + (obs - expected).total() == 2)

    def level_ok(k):
        # expected compositions at level n-k after k placed pairs
        m = n - k
        return level_matches(expected_level(pw, reversed(sw)), c.levels[m], m)

    def order_choices(k, choices):
        # try first the branch matching the largest composition left at the
        # next level after the already-determined ones are taken out
        rem = c.levels[n - k - 1] - expected_level(pw[1:], reversed(sw[1:]))
        if not rem:
            return choices
        wmax = max(rem)

        def score(pair):
            a, b = pair
            new = (W - sw[k] - (b == "1"), W - pw[k] - (a == "1"))
            return 0 if wmax in new else 1

        return tuple(sorted(choices, key=score))

    def finalize(s):
        # level_ok checked levels n-steps..n-1 on the way down; the rest
        # are checked here against the string's own compositions
        P = prefix_weights(s)
        for l in (*range(1, n - steps), n):
            if not level_matches(level_of_prefix(P, l), c.levels[l], l):
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
