"""Composition multisets of binary strings and the pairwise-weight linear system.

Conventions used throughout the package:

  * A bit string is a Python str over {'0','1'}; indices in documentation and
    error messages are 1-based (s = s_1 ... s_n).
  * A composition is the unordered content of a substring: the pair
    (zeros, ones).  Since the length is zeros + ones, a composition of known
    length is fully described by its 1-count ("weight"), and that is how
    per-level multisets are stored: level l is a Counter mapping weight -> how
    many length-l substrings have that weight.
  * The cumulative weight w_l is the total number of 1s over all compositions
    of length l.  For an uncorrupted multiset w_l = w_{n-l+1}.
  * The sigma sequence is sigma_i = s_i + s_{n+1-i} for i = 1..ceil(n/2)
    (for odd n the middle entry is the middle bit itself, counted once).

Solving for sigma from the cumulative weights uses the triangular system
relating w and sigma.  Writing W = w_1 and S_l = sigma_1 + ... + sigma_l,
one has  w_{l+1} - w_l = W - S_l  for l < ceil(n/2), which gives

    sigma_l = 2*w_l - w_{l-1} - w_{l+1}   (w_0 = 0, l < ceil(n/2))
    sigma_h = w_h - w_{h-1}               (h = ceil(n/2))

i.e. plain successive differencing with exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import mul, sub


class CorruptedInput(ValueError):
    """Raised when an input multiset/profile is inconsistent with any string."""


def check_bits(s: str) -> str:
    if not s:
        raise ValueError("empty string rejected")
    # ASCII, and nothing left once one bytes pass deletes every 0 and 1
    if not s.isascii() or s.encode().translate(None, b"01"):
        raise ValueError("bit strings must consist of '0'/'1' characters")
    return s


def check_length(n: int, expected: int) -> None:
    """Reject an observation of length n for a code of length expected."""
    if n != expected:
        raise ValueError(f"length {n} does not match parameters ({expected})")


def weight(s: str) -> int:
    return s.count("1")


def sigma_of_string(s: str) -> tuple[int, ...]:
    """sigma_i = s_i + s_{n+1-i} for i = 1..ceil(n/2), middle counted once."""
    check_bits(s)
    n = len(s)
    h = (n + 1) // 2
    out = []
    for i in range(h):
        j = n - 1 - i
        if i == j:
            out.append(int(s[i]))
        else:
            out.append(int(s[i]) + int(s[j]))
    return tuple(out)


ARRAY_FROM = 2048  # the length from which a source's prefix weights are an array


class CompositionMultiset:
    """The decoder input: a (possibly corrupted) composition multiset of a
    string of known length n, as a read-only base plus a sparse delta.

    The base is parse's dense levels, _levels[l] a Counter weight ->
    multiplicity for l = 1..n, or compose_all's source string s with its
    prefix weights P.  delta maps level -> weight -> count; only _bump
    writes it, so a copy copies the delta alone.  Level l reads as its base
    level plus delta[l], and a read refuses a negative count.

    While keep_levels holds, a source's level is composed on its first read
    into _levels, a cache its copies share.  It holds for a list P, whose
    levels are small and are read again after a draw, by validate_shape and
    the decoder.  An int64 array P (n >= ARRAY_FROM) keeps none, as all of
    them would take tens of MB: level_counter composes the level on each
    read, and the other reads bincount its windows.  One search reads a
    level again only on a backtrack; a reader that searches many copies
    (sym-catalan's brute force) sets keep_levels on the copy it copies
    from.  Reading levels folds the delta in and drops the source, leaving
    the dense form.  Copies may share its Counters, so only a multiset that
    has no copies may be written through levels.
    """

    def __init__(self, n: int, levels: dict[int, Counter], source: str | None = None):
        self.n = n
        self._levels = levels
        self._source = source
        self._P = None if source is None else \
            prefix_weights(source) if n < ARRAY_FROM else prefix_array(source)
        self.delta: dict[int, dict[int, int]] = {}
        self.keep_levels = n < ARRAY_FROM

    @property
    def levels(self) -> dict[int, Counter]:
        """Every level, l = 1..n; folds the delta in and drops the source."""
        if self._source is not None or self.delta:
            self._levels = {l: self.level_counter(l) for l in range(1, self.n + 1)}
            self._source = self._P = None
            self.delta = {}
        return self._levels

    def copy(self) -> "CompositionMultiset":
        """A copy sharing the base, with its own delta."""
        out = object.__new__(type(self))
        out.__dict__ = {**self.__dict__,
                        "delta": {l: dict(d) for l, d in self.delta.items()}}
        return out

    def _bump(self, l: int, w: int, by: int) -> None:
        """Add `by` elements of weight w to level l."""
        d = self.delta.setdefault(l, {})
        d[w] = d.get(w, 0) + by
        if d[w] == 0:
            del d[w]
            if not d:
                del self.delta[l]

    def _array_backed(self) -> bool:
        """Whether the base levels are bincounts of an int64 prefix array."""
        return self._P is not None and not isinstance(self._P, list)

    def _base(self, l: int) -> Counter:
        """Base level l, a source's composed on read (and cached while
        keep_levels holds); KeyError outside 1..n."""
        if (level := self._levels.get(l)) is None:
            if self._source is None or not 1 <= l <= self.n:
                raise KeyError(l)
            level = level_of_prefix(self._P, l)
            if self.keep_levels:
                self._levels[l] = level
        return level

    def _base_counts(self, l: int, ws) -> list[int]:
        """Base level l's count of each weight in ws: an array P's from one
        bincount of its windows, uncached and composing no Counter."""
        if not self._array_backed():
            level = self._base(l)
            return [level.get(w, 0) for w in ws]
        if not 1 <= l <= self.n:
            raise KeyError(l)
        counts = _window_counts(self._P, l)
        # no window weighs outside 0..l, and a negative index would wrap
        return [int(counts[w]) if 0 <= w <= l else 0 for w in ws]

    def _add_delta(self, l: int, level):
        """level, a copy of base level l (a Counter or counts 0..l), plus delta[l]."""
        for w, c in self.delta.get(l, {}).items():
            level[w] += c
            if level[w] < 0:
                raise CorruptedInput(f"negative multiplicity at level {l}")
        return level

    def level_counter(self, l: int) -> Counter:
        """Level l as weight -> multiplicity; KeyError outside 1..n.  Read-only."""
        if l not in self.delta:
            return self._base(l)
        return +self._add_delta(l, Counter(self._base(l)))  # + drops the zeros

    def _multiplicity(self, l: int, w: int) -> int:
        return self._base_counts(l, (w,))[0] + self.delta.get(l, {}).get(w, 0)

    def draw_weight(self, l: int, choice) -> int:
        """The weight of level l's element at index choice(range(size)), the
        elements in ascending weight order; choice is e.g. rng.choice.  An
        array P's level is one bincount, a cumsum and a searchsorted."""
        if not self._array_backed():
            counts = self.level_counter(l)
            r = choice(range(sum(counts.values())))
            return next(w for w in sorted(counts) if (r := r - counts[w]) < 0)
        import numpy as np
        cum = np.cumsum(self.level_counts(l))
        # the first weight whose cumulative count passes r
        return int(np.searchsorted(cum, choice(range(int(cum[-1]))), side="right"))

    def level_counts(self, l: int):
        """Level l as an int64 array over the weights 0..l; an array P's
        base level is one bincount of its windows, composing no Counter.
        A base or delta weight outside 0..l raises CorruptedInput."""
        import numpy as np
        if self._array_backed() and 1 <= l <= self.n:
            base, out = {}, _window_counts(self._P, l)
        else:
            base, out = self._base(l), np.zeros(l + 1, dtype=np.int64)
        # an index outside 0..l would wrap round (-1 reads as l) or raise IndexError
        if bad := [w for w in (*base, *self.delta.get(l, ())) if not 0 <= w <= l]:
            raise CorruptedInput(f"level {l} contains weight {min(bad)} out of range")
        out[list(base)] = list(base.values())
        return self._add_delta(l, out)

    def weight_profile(self):
        """w_1..w_n as an int64 numpy array; a source-backed form's is
        cumulative_weights' O(n) sum in numpy, and composes no level."""
        import numpy as np
        if self._source is None:
            return np.array(cumulative_weights(self), dtype=np.int64)
        n = self.n
        cs = np.concatenate(([0], np.cumsum(np.asarray(self._P, np.int64))))
        w = cs[n + 1] - cs[1:n + 1] - cs[n:0:-1]
        for l, d in self.delta.items():
            w[l - 1] += sum(map(mul, d, d.values()))
        return w

    def sym_eval(self, R: int, field):
        """S(a^l1, a^l2) + S(a^-l1, a^-l2) mod q at [l1 + R, l2 + R], |l1|, |l2| <= R.

        S(x, y) sums x^w y^(l-w) over the multiset's elements, a = field.alpha.
        S is linear, so one monomial_grid sums the signed terms (l, w, m) of
        the delta and, in the dense form, the levels.  A source string adds
        P(x,y) P(1/x,1/y) - (n+1) from one prefix_grid; no level is composed.
        """
        import numpy as np
        from .fields import monomial_grid, prefix_grid
        parts = (self.delta,) if self._source is not None else (self._levels, self.delta)
        terms = [(l, w, m) for part in parts for l, lv in part.items()
                 for w, m in lv.items()]
        l, w, m = np.array(terms, np.int64).reshape(-1, 3).T
        g = monomial_grid(w, l - w, R, field, m)
        g = g + g[::-1, ::-1]
        if self._source is not None:
            p = prefix_grid(self._source, R, field)
            g += p * p[::-1, ::-1] - (self.n + 1)
        return g % field.q

    def replace(self, l: int, old_w: int, new_w: int) -> None:
        """Swap one level-l element of weight old_w for one of weight new_w."""
        if self._multiplicity(l, old_w) <= 0:
            raise CorruptedInput(f"no composition of weight {old_w} at level {l}")
        if not (0 <= new_w <= l):
            raise ValueError(f"weight {new_w} invalid at level {l}")
        self._bump(l, old_w, -1)
        self._bump(l, new_w, 1)

    def correct(self, error: dict) -> "CompositionMultiset":
        """A copy with c elements of weight w taken out of level w+z per error term.

        error maps (w, z) to c; a negative c puts -c elements back.
        """
        out = self.copy()
        for (w, z), c in error.items():
            out._bump(w + z, w, -c)
        out.validate_shape()
        return out

    def validate_shape(self) -> None:
        """Raise CorruptedInput at the first flaw in (level, weight) order.

        The dense form checks every level.  A source-backed form checks only
        the weights the delta moves, against the source's counts at them:
        the others are its source's.
        """
        dense = self._source is None
        for l in sorted(self.delta.keys() | (range(1, self.n + 1) if dense else ())):
            if not 1 <= l <= self.n:  # no base level to count against
                raise CorruptedInput(f"level {l} out of range")
            if dense and l not in self._levels:
                raise CorruptedInput(f"level {l} missing")
            base, d = self._levels[l] if dense else {}, self.delta.get(l, {})
            # the counts the delta moves over the dense base's others; one
            # it empties (m = 0) is gone
            ms = base
            if d:
                counts = self._base_counts(l, d)
                ms = {**base, **{w: b + c for (w, c), b in zip(d.items(), counts)}}
            flaws = [(w, m) for w, m in ms.items()
                     if (m < 1 or not 0 <= w <= l) and (m or w not in d)]
            if flaws:
                w, m = min(flaws)
                raise CorruptedInput(f"level {l} holds weight {w} {m} times" if m < 1
                                     else f"level {l} contains weight {w} out of range")
            size = sum(ms.values()) if dense else self.n - l + 1 + sum(d.values())
            if size != self.n - l + 1:
                raise CorruptedInput(
                    f"level {l} has {size} elements, expected {self.n - l + 1}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompositionMultiset):
            return NotImplemented
        return self.n == other.n and next(level_differences(self, other), None) is None


def compose_all(s: str) -> CompositionMultiset:
    """The composition multiset of the bit string s, source-backed: each level
    is composed on its first read, from s's prefix weights P.  Below
    ARRAY_FROM bits P is a list and levels are counted in Python, which loads
    no numpy; from there on P is an int64 array and levels are bincounts."""
    return CompositionMultiset(len(check_bits(s)), {}, s)


def prefix_weights(s: str) -> list[int]:
    """P[i] = wt(s_1 .. s_i) for i = 0..n."""
    return [0, *accumulate(map(int, s))]


def prefix_array(s: str):
    """prefix_weights(s) as an int64 numpy array, from one cumsum."""
    import numpy as np
    bits = np.frombuffer(s.encode("ascii"), np.uint8) - ord("0")
    return np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))


def level_of_prefix(P, l: int) -> Counter:
    """Level l of the string with prefix weights P: weights P[i+l] - P[i].
    A list P is counted in Python, an array P by one bincount."""
    if isinstance(P, list):
        return Counter(map(sub, P[l:], P))
    counts = _window_counts(P, l)
    ws = counts.nonzero()[0]
    return Counter(dict(zip(ws.tolist(), counts[ws].tolist())))


def _window_counts(P, l: int):
    """How many windows P[i+l] - P[i] of an array P weigh each of 0..l."""
    import numpy as np
    return np.bincount(P[l:] - P[:len(P) - l], minlength=l + 1)


def cumulative_weights(c: CompositionMultiset) -> tuple[int, ...]:
    """w_l = sum of 1-counts at level l; returned 0-indexed (entry l-1 = w_l).

    The base profile of a source-backed form is O(n): w_l sums P[i+l] - P[i]
    over i = 0..n-l, PP[n+1] - PP[l] - PP[n-l+1] with PP the prefix sums of
    P.  Each delta level then adds its sum of w * c.
    """
    n = c.n
    if c._source is None:
        w = [sum(map(mul, lv, lv.values()))
             for lv in map(c._levels.__getitem__, range(1, n + 1))]
    else:
        PP = [0, *accumulate(map(int, c._P))]  # int: an array P holds numpy ints
        w = [PP[n + 1] - PP[l] - PP[n - l + 1] for l in range(1, n + 1)]
    for l, d in c.delta.items():
        w[l - 1] += sum(map(mul, d, d.values()))
    return tuple(w)


def mirror_mismatches(wp, n: int) -> list[int]:
    """Levels l <= n/2 whose weight differs from its mirror: w_l != w_{n+1-l}."""
    return [l for l in range(1, n // 2 + 1) if wp[l - 1] != wp[n - l]]


def _differences(wp, h: int) -> list[int]:
    """sigma_1..sigma_h from w_1..w_h by successive differencing, unchecked."""
    prev = [0, *wp[:h - 1]]
    sigma = [2 * w - p - nxt for p, w, nxt in zip(prev, wp, wp[1:h])]
    sigma.append(wp[h - 1] - prev[h - 1])
    return sigma


def _out_of_range(sigma, n: int):
    """0-based indices of entries outside {0,1,2} ({0,1} for the middle of odd n)."""
    mid = len(sigma) - 1 if n % 2 else -1
    return (i for i, v in enumerate(sigma) if not 0 <= v <= 2 - (i == mid))


def sigma_from_weights(wp, n: int):
    """Solve the triangular pairwise-weight system by successive differencing.

    wp holds w_1..w_n (or at least w_1..w_{ceil(n/2)}), 0-indexed: a list or
    tuple, solved in Python into a tuple, or an integer numpy array, solved
    with numpy into an int64 array of the same values.
    Raises CorruptedInput if the solution leaves {0,1,2} (or {0,1} for the
    middle entry of odd n).  No sum check is needed: with d_l = w_l - w_{l-1},
    sigma_l = d_l - d_{l+1} for l < h and sigma_h = d_h, so the sum telescopes
    to d_1 = w_1 for every integer profile.
    """
    h = (n + 1) // 2
    if len(wp) < h:
        raise ValueError("weight profile too short")
    if hasattr(wp, "dtype"):  # numpy only here: the list path loads none
        import numpy as np
        d = np.diff(np.asarray(wp[:h], dtype=np.int64), prepend=0)
        sigma = d - np.append(d[1:], 0)
        top = np.full(h, 2)
        top[-1] -= n % 2
        bad = np.flatnonzero((sigma < 0) | (sigma > top))
        i = int(bad[0]) if bad.size else None
    else:
        sigma = tuple(_differences(wp, h))
        i = next(_out_of_range(sigma, n), None)
    if i is not None:
        raise CorruptedInput(
            f"sigma_{i+1} = {sigma[i]} out of range: corrupted input")
    return sigma


def weights_from_sigma(sigma, w1: int, n: int) -> tuple[int, ...]:
    """Full profile w_1..w_n from sigma and w_1: w_{j+1} = w_j + w_1 - S_j."""
    h = (n + 1) // 2
    if len(sigma) != h:
        raise ValueError("sigma length must be ceil(n/2)")
    w = []
    level, step = 0, w1
    for s in sigma:
        level += step
        w.append(level)
        step -= s
    return tuple(w + w[:n - h][::-1])


def sigma_partial(wp, n: int) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Erasure view of the sigma recovery under per-level corruption.

    A level weight is trusted iff it matches its mirror (a same-length
    composition error always changes the level weight, because equal-length
    distinct compositions have distinct 1-counts).  On mismatch both sides are
    erased: the observer cannot tell which one erred.

    sigma_i is computable iff w_{i-1}, w_i, w_{i+1} are all trusted (w_0 is the
    constant 0; the middle entry needs only the last two levels).

    Returns (sigma_values, known_mask); erased entries carry value 0.
    """
    h = (n + 1) // 2
    erased = set()
    for l in mirror_mismatches(wp, n):
        erased.update((l - 2, l - 1, l))  # 0-based sigma_{l-1}, sigma_l, sigma_{l+1}
    sigma = _differences(wp, h)
    erased.update(_out_of_range(sigma, n))
    known = tuple(i not in erased for i in range(h))
    return tuple(v if ok else 0 for v, ok in zip(sigma, known)), known


def level_differences(c1, c2, levels=None):
    """Yield (l, [(w, count in c1 - count in c2), ...]) for each level l
    where c1 and c2 differ, in ascending order of l and then w.

    levels, ascending, limits the levels compared (default 1..n).  Two forms
    of one source string differ by their deltas alone, so only those are
    compared and no level is composed.  Otherwise each level is read in
    turn, lazily: as level_counts arrays from ARRAY_FROM bits up, and as
    level_counter Counters below, which loads no numpy.
    """
    if c1.n != c2.n:
        raise ValueError("multisets describe strings of different lengths")
    if c1._source is not None and c1._source == c2._source:
        keys = c1.delta.keys() | c2.delta.keys()
        levels = sorted(keys) if levels is None else [l for l in levels if l in keys]
        pairs = ((l, c1.delta.get(l, {}), c2.delta.get(l, {})) for l in levels)
    elif c1.n >= ARRAY_FROM:
        for l in range(1, c1.n + 1) if levels is None else levels:
            d = c1.level_counts(l) - c2.level_counts(l)
            if (ws := d.nonzero()[0]).size:
                yield l, list(zip(ws.tolist(), d[ws].tolist()))
        return
    else:
        pairs = ((l, c1.level_counter(l), c2.level_counter(l))
                 for l in (range(1, c1.n + 1) if levels is None else levels))
    for l, a, b in pairs:
        # No level or delta holds a zero count, so dict equality (in C;
        # Counter's runs a generator) is Counter equality
        if not dict.__eq__(a, b):
            yield l, sorted((w, d) for w in a.keys() | b.keys()
                            if (d := a.get(w, 0) - b.get(w, 0)))


def multiset_symmetric_difference(c1, c2):
    """Total count and per-level detail of (C1 \\ C2) u (C2 \\ C1)."""
    detail = dict(level_differences(c1, c2))
    return sum(abs(d) for diffs in detail.values() for _, d in diffs), detail


# -- text format ----------------------------------------------------------
#
# First line `n=<int>`; then one line per level, descending l:
#     `l: w1 w2 ... w_{n-l+1}`  with weights ascending.


def serialize(c: CompositionMultiset) -> str:
    lines = [f"n={c.n}"]
    for l in range(c.n, 0, -1):
        lv = c.level_counter(l)
        # each token with its trailing space, repeated by its multiplicity
        ws = "".join([f"{w} " * lv[w] for w in sorted(lv)])
        lines.append(f"{l}: " + ws[:-1])
    return "\n".join(lines) + "\n"


def _number(tok: str) -> int:
    """A number of the text format: ASCII 0|[1-9][0-9]*, its one spelling."""
    if not (tok.isascii() and tok.isdigit()) or (tok[0] == "0" and tok != "0"):
        raise ValueError(f"not a canonical number: {tok!r}")
    return int(tok)


def parse(text: str) -> CompositionMultiset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise CorruptedInput("first line must be n=<int>")
    try:
        n = _number(lines[0][2:])
    except ValueError as e:
        raise CorruptedInput("malformed n= line") from e
    if n < 1 or len(lines) != n + 1:
        raise CorruptedInput(f"expected {n} level lines")
    levels: dict[int, Counter] = {}
    for ln in lines[1:]:
        head, _, rest = ln.partition(":")
        try:
            l = _number(head)
            # each distinct token once: canonical spellings are one-to-one
            level = Counter({_number(w): c for w, c in Counter(rest.split()).items()})
        except ValueError as e:
            raise CorruptedInput(f"malformed line: {ln!r}") from e
        if l in levels:
            raise CorruptedInput(f"level {l} repeated")
        levels[l] = level
    c = CompositionMultiset(n, levels)
    c.validate_shape()
    return c
