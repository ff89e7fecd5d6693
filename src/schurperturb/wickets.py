"""Exact wicket counting and enumeration.

A wicket is an ordered 9-tuple (x1,y1,z1,x2,y2,z2,x3,y3,z3) of distinct
elements with x_i + y_i = z_i and x1 + x2 = x3. Counts are of ordered
tuples. The fast path fixes (x1, x2), views each leg as a choice of y_i,
and enforces the nine-element distinctness by inclusion-exclusion over the
pairwise leg coincidences (two legs can share at most one element because
the x_i are pairwise distinct), with every term a shifted vector product.

The kernels are batched: one row per (x1, x2), one column per element of
[0, n], so every shift by x_i is a per-row gather on a row matrix built by
one pipeline (_rows, _open_rows, _leg_triples). Rows go in blocks of at most
intset.BLOCK_CELLS cells (intset.row_blocks), which bounds the working
memory at a few dozen arrays of that many cells whatever n is. Every
integer row matrix is int8, a byte a cell: a leg degree is at most 2, and
an overlap profile at most 4, so no product of a leg indicator and two
profiles exceeds 16; the row sums are accumulated in int64.

count_wickets_containing keeps a table of the (x1, x2) rows of [n] for the
last ROW_TABLE_NS values of n, with each row's leg-triple count once it is
computed, so calls that repeat an n share that work. Nothing is built at
import.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations, permutations, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .intset import IntSet, indicator, row_blocks

FACT9 = math.factorial(9)

# The (row, leg split) items count_wickets_containing evaluates at once.
ITEM_BATCH = 1 << 16
# Row tables of count_wickets_containing kept at once, one per n; the
# least recently used is dropped.
ROW_TABLE_NS = 4


def _shift(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """out[r, y] = m[r, y + s[r]], zero where y + s[r] leaves [0, w) for
    row width w; every |s[r]| must be at most w."""
    rows, w = m.shape
    pad = np.zeros((rows, 3 * w), dtype=m.dtype)
    pad[:, w : 2 * w] = m
    return sliding_window_view(pad, w, axis=1)[np.arange(rows), w + s]


def _legs(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row, the indicator over y of the pair {y, y + x} lying inside t."""
    return t & _shift(t, x)


def _deg(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """deg[r, e] = number of row r's leg pairs containing e (0, 1 or 2),
    as int8."""
    return p + _shift(p.astype(np.int8), -x)


def _disjoint_triples(x1: np.ndarray, x2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per row, the ordered (y1, y2, y3) whose legs {y_i, y_i + x_i}, with
    x3 = x1 + x2, lie inside that row of t and are pairwise disjoint."""
    x3 = x1 + x2
    xs = (x1, x2, x3)
    p = [_legs(t, x) for x in xs]
    c = [pi.sum(axis=1) for pi in p]
    d = [_deg(pi, x) for pi, x in zip(p, xs)]
    o12, o13, o23 = ((d[i] * d[j]).sum(axis=1) for i, j in ((0, 1), (0, 2), (1, 2)))

    def overlap_profile(deg_other: np.ndarray, x: np.ndarray) -> np.ndarray:
        # per-y count of other-leg pairs meeting {y, y+x}
        return deg_other + _shift(deg_other, x)

    t_1 = (p[0] * overlap_profile(d[1], x1) * overlap_profile(d[2], x1)).sum(axis=1)
    t_2 = (p[1] * overlap_profile(d[0], x2) * overlap_profile(d[2], x2)).sum(axis=1)
    t_3 = (p[2] * overlap_profile(d[0], x3) * overlap_profile(d[1], x3)).sum(axis=1)

    # all three legs pairwise intersecting: the shared-element patterns fix
    # y2 = y1 + s2 and y3 = y1 + s3 with s3 - s2 a valid leg-2/3 offset
    zero = np.zeros_like(x1)
    d12_shifts = (zero, -x2, x1, x1 - x2)
    d13_shifts = (zero, -x3, x1, x1 - x3)
    d23_shifts = (zero, -x3, x2, x2 - x3)
    p2s = [_shift(p[1], s2) for s2 in d12_shifts]
    p3s = [_shift(p[2], s3) for s3 in d13_shifts]
    q = 0
    for s2, p2 in zip(d12_shifts, p2s):
        for s3, p3 in zip(d13_shifts, p3s):
            valid = np.zeros(len(x1), dtype=bool)
            for s23 in d23_shifts:
                valid |= s3 - s2 == s23
            q = q + np.where(valid, (p[0] & p2 & p3).sum(axis=1), 0)

    c1, c2, c3 = c
    return c1 * c2 * c3 - o12 * c3 - o13 * c2 - o23 * c1 + t_1 + t_2 + t_3 - q


def _two_leg_disjoint(xa: np.ndarray, xb: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per row, the ordered (ya, yb) with disjoint legs inside t."""
    pa, pb = _legs(t, xa), _legs(t, xb)
    return pa.sum(axis=1) * pb.sum(axis=1) - (_deg(pa, xa) * _deg(pb, xb)).sum(axis=1)


def _rows(member: np.ndarray) -> np.ndarray:
    """The rows (x1, x2, x3 = x1 + x2), x1 != x2, all three in the set of
    the indicator member, ordered by x1 and then x2, as a (3, rows) array;
    only the x2 <= max - x1 of each x1 are tried."""
    e = np.flatnonzero(member)
    counts = np.searchsorted(e, e[-1:] - e, side="right")  # x2 <= max - x1
    x1 = np.repeat(e, counts)
    x2 = e[np.arange(len(x1)) - np.repeat(np.cumsum(counts) - counts, counts)]
    keep = (x1 != x2) & member[x1 + x2]
    x1, x2 = x1[keep], x2[keep]
    return np.stack((x1, x2, x1 + x2))


def _open_rows(ground: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """One copy of the bool row ground per row of removed (rows, k), False
    at that row's removed elements (each an index into ground)."""
    t = np.repeat(ground[None, :], len(removed), axis=0)
    t[np.arange(len(t))[:, None], removed] = False
    return t


def _leg_triples(x: np.ndarray, ground: np.ndarray) -> np.ndarray:
    """Per column (x1, x2, x3) of x, x3 < len(ground), the ordered pairwise
    disjoint leg triples inside the bool row ground and outside its x's,
    in row_blocks."""
    out = np.empty(x.shape[1], dtype=np.int64)
    for b in row_blocks(x.shape[1], len(ground)):
        xb = x[:, b]
        out[b] = _disjoint_triples(xb[0], xb[1], _open_rows(ground, xb.T))
    return out


def count_wickets(s: IntSet, chi: IntSet | None = None) -> int:
    """Ordered wicket count over s; legs restricted to chi when given.

    The rows of s (_rows) and their leg triples inside chi (s if None) as
    a row of [0, n] (_leg_triples): time O(|s|^2 + r n) for r rows, memory
    O(|s|^2) for the rows plus O(BLOCK_CELLS) per block, in int8 cells of
    at most 16; exact while the per-row counts, at most n^3, fit in the
    int64 row sums (n <= 2 * 10^6).
    """
    if chi is not None and chi.mask & ~s.mask:
        raise ValueError("chi must be a subset of s")
    ground = np.zeros(s.n + 1, dtype=bool)
    legs = indicator(chi if chi is not None else s)[: s.n + 1]  # rounded up to a byte
    ground[: legs.size] = legs
    return int(_leg_triples(_rows(indicator(s)), ground).sum())


def iter_wickets(s: IntSet, chi: IntSet | None = None):
    """Explicit enumeration of ordered wickets (slow path, small n)."""
    n = s.n
    legs_ground = set(chi if chi is not None else s)
    elems = s.elements()
    smask = set(elems)
    for x1 in elems:
        for x2 in elems:
            if x2 == x1:
                continue
            x3 = x1 + x2
            if x3 not in smask:
                continue
            xs = {x1, x2, x3}
            legs = []
            for x in (x1, x2, x3):
                legs.append(
                    [
                        (y, y + x)
                        for y in legs_ground
                        if y + x <= n
                        and y + x in legs_ground
                        and y not in xs
                        and y + x not in xs
                    ]
                )
            for y1, z1 in legs[0]:
                e1 = {y1, z1}
                for y2, z2 in legs[1]:
                    if y2 in e1 or z2 in e1:
                        continue
                    e2 = e1 | {y2, z2}
                    for y3, z3 in legs[2]:
                        if y3 in e2 or z3 in e2:
                            continue
                        yield (x1, y1, z1, x2, y2, z2, x3, y3, z3)


def count_wickets_containing(u, n: int) -> int:
    """Wickets in [n]^9 whose entry set contains every element of u.

    Rows are the (x1, x2) with x1 != x2 and x1 + x2 <= n, from the row
    table of n (`_RowTable`), grouped by the elements of u outside their
    x's; a group with more than six has no wicket. Each such element lies
    in exactly one leg, so a wicket is counted once under its split of
    them into legs: a pair {a < b} is leg i itself and forces x_i = b - a,
    a single a is leg i as {a, a + x_i} or {a - x_i, a}, and the legs left
    free are counted on the elements outside u, the row's x's and the
    fixed legs. The splits come from static tables per group size. A
    group whose x's hold all of u reads its rows' leg-triple counts from
    the table. Splits into single elements are checked on every row of
    their group at once (`_single_splits`). A split with a pair takes its
    group's rows with x_i = b - a for the leg i of its first pair, one run
    of the rows sorted by group and x_i, and drops those its other pairs
    rule out (`_pair_items`). The items left with free legs, from every
    group, are counted in one `_legs` and one `_two_leg_disjoint` pass per
    ITEM_BATCH items (`_FreeLegs`).

    Time O(r (log r + |u|) + items * n) for the r < n^2 / 2 rows, where
    items is at most 48 r, and at most n per split when a split has a
    pair (every split does once |u| >= 4). Memory O(r |u| + ITEM_BATCH +
    BLOCK_CELLS) per call, besides the row tables of the last
    ROW_TABLE_NS values of n, O(n^2) each, which later calls reuse.
    Elements of u must be integers (`operator.index`), else TypeError.
    """
    u_set = {operator.index(e) for e in u}
    if not u_set:
        raise ValueError("u must be nonempty")
    if any(not 1 <= e <= n for e in u_set) or len(u_set) > 9:
        return 0
    table = _row_table(n)
    rows = table.x.shape[1]
    uu = np.array(sorted(u_set), dtype=np.int64)
    # code[r] has bit j set when uu[j] is not one of row r's x's
    code = (table.x[:, :, None] != uu).all(axis=0) @ (1 << np.arange(len(uu)))
    # per leg i, the rows sorted by code and then by x_i: each group's
    # rows with x_i = d are one run of by_leg[i]
    key = ((np.arange(3)[:, None] << len(uu)) + code) * (n + 1) + table.x
    by_leg = np.argsort(key, axis=1, kind="stable")
    key = np.take_along_axis(key, by_leg, axis=1).ravel()
    codes, group_rows = np.unique(key[:rows] // (n + 1), return_counts=True)
    bits = (codes[:, None] >> np.arange(len(uu))) & 1 == 1
    sizes = bits.sum(axis=1)[np.repeat(np.arange(len(codes)), group_rows)]  # per row of by_leg[0]
    # state[n + v]: 0 for v in [1, n] outside u, 1 for v in u, 2 outside [1, n]
    state = np.full(3 * n + 1, 2, dtype=np.int8)
    state[n + 1 : 2 * n + 1] = 0
    state[n + uu] = 1
    free_legs = _FreeLegs(state[n : 2 * n + 1] == 0)
    total = int(table.disjoint_triples(by_leg[0, sizes == 0]).sum())
    for k in range(1, min(len(uu), 3) + 1):
        in_k = by_leg[0, sizes == k]
        if len(in_k):
            vals = np.broadcast_to(uu, (len(in_k), len(uu)))[(code[in_k, None] >> np.arange(len(uu))) & 1 == 1]
            total += _single_splits(table.x[:, in_k], vals.reshape(-1, k), state, free_legs)
    group, a, diff, sign = _pair_entries(uu, bits)
    # A split with a pair ranges over its group's rows with x_i = b - a for
    # the leg i of its first pair; _pair_items checks any other pair.
    i0 = np.argmax(diff > 0, axis=0)
    target = ((i0 << len(uu)) + codes[group]) * (n + 1) + diff[i0, np.arange(len(group))]
    starts = np.searchsorted(key, target)
    lengths = np.searchsorted(key, target, side="right") - starts
    items = int(lengths.sum())
    for lo in range(0, items, ITEM_BATCH):
        e, pos = _ranges(starts, lengths, lo, min(lo + ITEM_BATCH, items))
        r = by_leg.ravel()[pos]
        total += _pair_items(state, table.x[:, r], a[:, e], diff[:, e], sign[:, e], free_legs)
    return total + free_legs.count()


def _single_splits(x: np.ndarray, vals: np.ndarray, state: np.ndarray, free_legs: _FreeLegs) -> int:
    """Wickets through the rows with x's x (3, rows) whose elements of u
    outside those x's, vals (rows, k) ascending with k <= 3, are single
    elements on distinct legs. Element j on leg i has its other end at
    vals[j] + x_i or vals[j] - x_i, which must lie in [1, n] outside u and
    the x's and differ from the other elements' ends. Splits with free
    legs go to free_legs; returns the count of the others."""
    n = (len(state) - 1) // 3
    k = vals.shape[1]
    legs, below, free = _single_table(k)
    j = np.arange(k)
    total = 0
    step = max(1, ITEM_BATCH // len(legs))
    for lo in range(0, x.shape[1], step):
        xs, v = x[:, lo : lo + step], vals[lo : lo + step].T
        # o[j, i, 0 or 1, row]: element j's other end on leg i, above or below
        o = v[:, None, None, :] + np.array([1, -1])[:, None] * xs[:, None, :]
        good = (state[n + o] == 0) & (o != xs[0]) & (o != xs[1]) & (o != xs[2])
        o, good = o[j, legs, below], good[j, legs, below]
        ok = good.all(axis=1)
        for p, q in combinations(range(k), 2):
            ok &= o[:, p] != o[:, q]
        split, row = np.nonzero(ok)
        if k == 3:
            total += len(split)
        else:
            free_legs.add(xs[free[split], row[:, None]], np.concatenate((xs[:, row].T, o[split, :, row]), axis=1))
    return total


def _pair_items(state, x, a, diff, sign, free_legs: _FreeLegs) -> int:
    """Wickets over (row, split) items, one per column of the (3, items)
    arrays: the row's x's, and per leg the least element a of u on it (0
    when the leg is free), the pair difference b - a (0 unless a pair) and
    the side of the leg's other end o = a + sign * x. A fixed leg needs o
    in [1, n], outside u for a single element and equal to b for a pair
    (so x_i = b - a), and o may be neither an x nor another leg's o. Items
    with free legs go to free_legs; returns the count of the others."""
    n = (len(state) - 1) // 3
    fixed = a > 0
    o = a + sign * x
    ok = np.ones(x.shape[1], dtype=bool)
    for i in range(3):
        ok &= ~fixed[i] | (
            (state[n + o[i]] == (diff[i] > 0))
            & ((diff[i] == 0) | (x[i] == diff[i]))
            & (o[i] != x[0])
            & (o[i] != x[1])
            & (o[i] != x[2])
        )
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= ~(fixed[i] & fixed[j]) | (o[i] != o[j])
    n_free = 3 - fixed.sum(axis=0)
    holes = np.concatenate((x, np.where(fixed & (diff == 0), o, 0))).T
    for k in (1, 2):
        sel = ok & (n_free == k)
        free_legs.add(x[:, sel].T[~fixed[:, sel].T].reshape(-1, k), holes[sel])
    return int(np.count_nonzero(ok & (n_free == 0)))


class _FreeLegs:
    """Items with one or two legs left free, counted together: per item
    the x's of its free legs and up to six elements besides u those legs
    must avoid (0 for none). A pass runs once ITEM_BATCH items have come,
    and at the end."""

    HOLES = 6

    def __init__(self, open_row: np.ndarray):
        self.open_row = open_row  # True on [1, n] outside u
        self.items: dict[int, list] = {1: [], 2: []}
        self.size = 0
        self.total = 0

    def add(self, x: np.ndarray, holes: np.ndarray) -> None:
        if len(x):
            padded = np.zeros((len(x), self.HOLES), dtype=np.int64)
            padded[:, : holes.shape[1]] = holes
            self.items[x.shape[1]].append((x, padded))
            self.size += len(x)
        if self.size >= ITEM_BATCH:
            self.count()

    def count(self) -> int:
        """The running total, after a pass over the items pending."""
        for k, pending in self.items.items():
            if not pending:
                continue
            x = np.concatenate([p[0] for p in pending])
            holes = np.concatenate([p[1] for p in pending])
            for b in row_blocks(len(x), len(self.open_row)):
                t = _open_rows(self.open_row, holes[b])
                if k == 1:
                    self.total += int(_legs(t, x[b, 0]).sum())
                else:
                    self.total += int(_two_leg_disjoint(x[b, 0], x[b, 1], t).sum())
        self.items = {1: [], 2: []}
        self.size = 0
        return self.total


def _pair_entries(uu: np.ndarray, bits: np.ndarray):
    """One entry per group of rows with two to six elements of uu outside
    their x's (bits[g] marks them) and per split of those elements with a
    pair (`_pair_table`): the group, and per leg (rows of the (3, entries)
    arrays) the least element on it (0 when free), the pair difference
    b - a (0 unless a pair) and the side of the other end."""
    none = np.zeros((3, 0), dtype=np.int64)
    out = [(np.zeros(0, dtype=np.int64), none, none, none)]
    for k in range(2, min(len(uu), 6) + 1):
        gk = np.flatnonzero(bits.sum(axis=1) == k)
        if not len(gk):
            continue
        first, second, sign = _pair_table(k)
        # column 0 stands for "no element", then the group's elements ascending
        vals = np.zeros((len(gk), k + 1), dtype=np.int64)
        vals[:, 1:] = np.broadcast_to(uu, (len(gk), len(uu)))[bits[gk]].reshape(-1, k)
        a = vals[:, first + 1]
        diff = np.where(second >= 0, vals[:, second + 1] - a, 0)
        out.append((np.repeat(gk, len(first)), *(v.reshape(-1, 3).T for v in (a, diff, np.broadcast_to(sign, a.shape)))))
    group, a, diff, sign = zip(*out)
    return np.concatenate(group), np.hstack(a), np.hstack(diff), np.hstack(sign)


def _ranges(starts: np.ndarray, lengths: np.ndarray, lo: int, hi: int):
    """Positions starts[i], ..., starts[i] + lengths[i] - 1 of every range
    i, numbered consecutively over all ranges: those numbered lo..hi-1,
    with the index i of each one's range."""
    ends = np.cumsum(lengths)
    pos = np.arange(lo, hi)
    which = np.searchsorted(ends, pos, side="right")
    return which, starts[which] + pos - (ends[which] - lengths[which])


@functools.cache
def _single_table(k: int):
    """The splits of k <= 3 single elements onto distinct legs: per split
    the leg of each element, whether its other end lies below it (0 or
    1), and the legs left free, ascending."""
    legs, below, free = [], [], []
    for p in permutations(range(3), k):
        for b in product((0, 1), repeat=k):
            legs.append(p)
            below.append(b)
            free.append([i for i in range(3) if i not in p])
    return tuple(np.array(v, dtype=np.int64) for v in (legs, below, free))


@functools.cache
def _pair_table(k: int):
    """The splits of k ascending elements of u (indices 0..k-1) into the
    three legs with at least one pair, at most two elements on a leg and a
    single one at either end: per split and leg the index of the least
    element on it and of the second (-1 for none), and the side of the
    leg's other end (+1 above, -1 below; +1 for a pair or a free leg)."""
    first, second, sign = [], [], []
    for legs in product(range(3), repeat=k):
        on = [[j for j in range(k) if legs[j] == i] for i in range(3)]
        if max(map(len, on)) != 2:
            continue
        singles = [i for i in range(3) if len(on[i]) == 1]
        for sides in product((1, -1), repeat=len(singles)):
            first.append([g[0] if g else -1 for g in on])
            second.append([g[1] if len(g) == 2 else -1 for g in on])
            side = [1, 1, 1]
            for i, sd in zip(singles, sides):
                side[i] = sd
            sign.append(side)
    return tuple(np.array(v, dtype=np.int64) for v in (first, second, sign))


class _RowTable:
    """The rows (x1, x2, x3) of [n] with x1 != x2 and x3 = x1 + x2 <= n,
    ordered by x1 and then x2: x[i] holds leg i's differences. Each row's
    count of ordered pairwise disjoint leg triples avoiding its x's is
    filled in on first use. Memory O(n^2)."""

    def __init__(self, n: int):
        self.ground = np.arange(n + 1) > 0  # [1, n]
        self.x = _rows(self.ground)
        self._triples = np.full(self.x.shape[1], -1, dtype=np.int64)

    def disjoint_triples(self, rows: np.ndarray) -> np.ndarray:
        """Per row of rows, its count of ordered pairwise disjoint leg
        triples avoiding its x's, computed once per table."""
        todo = rows[self._triples[rows] < 0]
        self._triples[todo] = _leg_triples(self.x[:, todo], self.ground)
        return self._triples[rows]


@functools.lru_cache(maxsize=ROW_TABLE_NS)
def _row_table(n: int) -> _RowTable:
    return _RowTable(n)


def claim_extension_bound(u_size: int, n: int) -> int:
    """Upper bound (9!)^(l+1) n^l on wickets containing a u_size-element
    set, with l = ceil((8 - u_size)/2) clamped to [0, 4]."""
    ell = max(0, min(4, math.ceil((8 - u_size) / 2)))
    return FACT9 ** (ell + 1) * n**ell
