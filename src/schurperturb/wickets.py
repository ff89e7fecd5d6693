"""Wicket recognition and exact counting.

A wicket is an ordered 9-tuple (x1,y1,z1,x2,y2,z2,x3,y3,z3) of distinct
elements with x_i + y_i = z_i and x1 + x2 = x3. Counts are of ordered
tuples. The fast path fixes (x1, x2), views each leg as a choice of y_i,
and enforces the nine-element distinctness by inclusion-exclusion over the
pairwise leg coincidences (two legs can share at most one element because
the x_i are pairwise distinct), with every term a shifted vector product.

The kernels are batched: one row per (x1, x2), one column per element of
[0, n], so every shift by x_i is a per-row gather on a row matrix. Rows go
in batches of at most BATCH_CELLS cells, which bounds the working memory at
a few dozen arrays of that many cells whatever n is.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .intset import IntSet, indicator

FACT9 = math.factorial(9)

# Cells (rows x (n + 1)) of one batch of (x1, x2) rows, and the number of
# (row, leg split) items count_wickets_containing evaluates at once.
BATCH_CELLS = 1 << 18
ITEM_BATCH = 1 << 16


def is_wicket(entries, n: int) -> bool:
    t = tuple(entries)
    if len(t) != 9 or len(set(t)) != 9:
        return False
    if any(not 1 <= e <= n for e in t):
        return False
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = t
    return (
        x1 + y1 == z1 and x2 + y2 == z2 and x3 + y3 == z3 and x1 + x2 == x3
    )


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
    """deg[r, e] = number of row r's leg pairs containing e (0, 1 or 2)."""
    return p + _shift(p.astype(np.int64), -x)


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


def _open_rows(n: int, removed) -> np.ndarray:
    """One row of [0, n] per entry of the removed arrays: True on [1, n]
    except at that row's removed elements (each in [1, n])."""
    rows = len(removed[0])
    t = np.ones((rows, n + 1), dtype=bool)
    t[:, 0] = False
    r = np.arange(rows)
    for col in removed:
        t[r, col] = False
    return t


def _batches(rows: int, n: int):
    step = max(1, BATCH_CELLS // (n + 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def count_wickets(s: IntSet, chi: IntSet | None = None, method: str = "ie") -> int:
    """Ordered wicket count over s; legs restricted to chi when given.

    The "ie" method batches one row per (x1, x2) with x1 + x2 in s: time
    O(|s|^2 + r n) for r such rows, memory O(BATCH_CELLS); exact while the
    per-row counts, at most n^3, fit in int64 (n <= 2 * 10^6).
    """
    if chi is not None and chi.mask & ~s.mask:
        raise ValueError("chi must be a subset of s")
    if method == "enumerate":
        return sum(1 for _ in iter_wickets(s, chi))
    if method != "ie":
        raise ValueError(f"unknown method {method!r}")
    n = s.n
    base = np.zeros(n + 1, dtype=bool)
    legs_ground = indicator(chi if chi is not None else s)[: n + 1]
    base[: legs_ground.size] = legs_ground
    e = np.array(s.elements(), dtype=np.int64)
    member = np.zeros(2 * n + 2, dtype=bool)
    member[e] = True
    x1, x2 = (m.ravel() for m in np.meshgrid(e, e, indexing="ij"))
    keep = (x1 != x2) & member[x1 + x2]
    x1, x2 = x1[keep], x2[keep]
    total = 0
    for b in _batches(len(x1), n):
        b1, b2 = x1[b], x2[b]
        t = np.repeat(base[None, :], len(b1), axis=0)
        r = np.arange(len(b1))
        t[r, b1] = t[r, b2] = t[r, b1 + b2] = False
        total += int(_disjoint_triples(b1, b2, t).sum())
    return total


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


def count_wickets_unordered(s: IntSet, chi: IntSet | None = None) -> int:
    """Number of distinct 9-element entry sets supporting a wicket."""
    return len({frozenset(w) for w in iter_wickets(s, chi)})


def count_wickets_containing(u, n: int) -> int:
    """Wickets in [n]^9 whose entry set contains every element of u.

    Rows are the (x1, x2) with x1 != x2 and x1 + x2 <= n, grouped by the
    part u_rest of u outside {x1, x2, x3}; a group with |u_rest| > 6 has no
    wicket. Each element of u_rest lies in exactly one leg, so a wicket is
    counted once under its split of u_rest into leg groups: a 2-element
    group {a < b} is leg i itself and forces x_i = b - a, a 1-element group
    {a} is leg i as {a, a + x_i} or {a - x_i, a}, and the legs with no group
    are counted on the elements left free. Each group's splits are listed
    once; a split whose forced differences match no row is skipped before
    any leg is built. Every other split gives one item per row it can use,
    and the items with the same free legs are evaluated together. Time
    O(n^2 (n + |u|) + (items with a free leg) * n), memory
    O(n^2 + ITEM_BATCH + BATCH_CELLS).
    """
    u_set = set(u)
    if not u_set:
        raise ValueError("u must be nonempty")
    if any(not 1 <= e <= n for e in u_set) or len(u_set) > 9:
        return 0
    x1, x2 = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    keep = (x1 >= 1) & (x2 >= 1) & (x1 != x2)
    x1, x2 = x1[keep], x2[keep]
    x3 = x1 + x2
    uu = np.array(sorted(u_set), dtype=np.int64)
    outside = (uu != x1[:, None]) & (uu != x2[:, None]) & (uu != x3[:, None])
    codes = outside @ (1 << np.arange(len(uu)))
    total = 0
    for code in np.unique(codes).tolist():
        u_rest = [int(a) for i, a in enumerate(uu) if code >> i & 1]
        if len(u_rest) <= 6:
            rows = codes == code
            total += _count_required(x1[rows], x2[rows], u_rest, n)
    return total


def _leg_splits(u_rest: list[int], by_diff: list[dict], leg: int = 0, rows=None):
    """Every split of u_rest into groups for legs leg..2, at most two
    elements each, with the rows it can use. A 2-element group {a < b} for
    leg i keeps only the rows in by_diff[i][b - a] (those with x_i = b - a);
    splits left with no row are never built. Yields (groups, rows), rows
    None when no group restricts them."""
    if leg == 3:
        if not u_rest:
            yield [], rows
        return
    if len(u_rest) > 2 * (3 - leg):
        return
    for rest, r in _leg_splits(u_rest, by_diff, leg + 1, rows):
        yield [[]] + rest, r
    for k, a in enumerate(u_rest):
        others = u_rest[:k] + u_rest[k + 1 :]
        for rest, r in _leg_splits(others, by_diff, leg + 1, rows):
            yield [[a]] + rest, r
        for b in u_rest[k + 1 :]:
            hit = by_diff[leg].get(b - a, frozenset())
            if rows is not None:
                hit = hit & rows
            if hit:
                others2 = [c for c in others if c != b]
                for rest, r in _leg_splits(others2, by_diff, leg + 1, hit):
                    yield [[a, b]] + rest, r


def _rows_by_value(x: np.ndarray) -> dict[int, frozenset[int]]:
    """The row indices of x grouped by their value."""
    order = np.argsort(x, kind="stable")
    values, starts = np.unique(x[order], return_index=True)
    return {d: frozenset(g.tolist()) for d, g in zip(values.tolist(), np.split(order, starts[1:]))}


def _count_required(x1: np.ndarray, x2: np.ndarray, u_rest: list[int], n: int) -> int:
    """Sum over the rows (x1, x2) of the wickets through them whose legs
    cover u_rest, an ascending list disjoint from every row's x's.

    Every split of u_rest, with each 1-element group at either end of its
    leg, becomes one item per row it can use. Items with the same legs
    left free are evaluated together, at most ITEM_BATCH at a time."""
    xleg = (x1, x2, x1 + x2)
    if not u_rest:
        return sum(
            int(_disjoint_triples(x1[b], x2[b], _open_rows(n, [xl[b] for xl in xleg])).sum())
            for b in _batches(len(x1), n)
        )
    rest = np.array(u_rest)
    by_diff = [_rows_by_value(xl) for xl in xleg]
    all_rows = np.arange(len(x1))
    total = 0
    pending: dict[tuple[int, ...], list] = {}
    sizes: dict[tuple[int, ...], int] = {}
    for groups, rows in _leg_splits(u_rest, by_diff):
        idx = all_rows if rows is None else np.array(sorted(rows))
        free = tuple(i for i, g in enumerate(groups) if not g)
        fixed = [g for g in groups if g]
        for ends in product((0, 1), repeat=len(fixed)):
            if any(e and len(g) == 2 for g, e in zip(fixed, ends)):
                continue  # a 2-element group is its leg, least element first
            template = [v for g, e in zip(fixed, ends) for v in (len(g), g[0], e)]
            pending.setdefault(free, []).append((idx, template))
            sizes[free] = sizes.get(free, 0) + len(idx)
            if sizes[free] >= ITEM_BATCH:
                total += _count_items(xleg, free, pending.pop(free), rest, n)
                sizes[free] = 0
    for free, items in pending.items():
        total += _count_items(xleg, free, items, rest, n)
    return total


def _count_items(xleg, free: tuple[int, ...], items, rest: np.ndarray, n: int) -> int:
    """Wickets over (row indices, fixed-leg template) items whose legs in
    free have no element of rest. Fixed leg k of a template holds g_k
    elements of rest, the least a_k at end e_k: it is the pair {lo, lo + x}
    with lo = a_k - e_k x, which must lie in [1, n], avoid the row's x's
    and contain exactly g_k elements of rest. Fixed legs are pairwise
    disjoint, and the free legs are counted on the elements left over."""
    r = np.concatenate([idx for idx, _ in items])
    tmpl = np.repeat(np.array([legs for _, legs in items]), [len(idx) for idx, _ in items], axis=0)
    x = [xl[r] for xl in xleg]
    # in_rest[n + e] = 1 iff e is in rest, for e in [-n, 2n]
    in_rest = np.zeros(3 * n + 1, dtype=np.int8)
    in_rest[n + rest] = 1
    ok = np.ones(len(r), dtype=bool)
    ends = []
    for k, i in enumerate(i for i in range(3) if i not in free):
        g, a, e = tmpl[:, 3 * k], tmpl[:, 3 * k + 1], tmpl[:, 3 * k + 2]
        lo = a - e * x[i]
        hi = lo + x[i]
        ok &= (lo >= 1) & (hi <= n) & (in_rest[n + lo] + in_rest[n + hi] == g)
        for xj in x:
            ok &= (lo != xj) & (hi != xj)
        for lo_m, hi_m in ends:
            ok &= (lo != lo_m) & (lo != hi_m) & (hi != lo_m) & (hi != hi_m)
        ends.append((lo, hi))
    if not free:
        return int(np.count_nonzero(ok))
    cols = [arr[ok] for arr in x] + [arr[ok] for leg in ends for arr in leg]
    total = 0
    for b in _batches(len(cols[0]), n):
        t = _open_rows(n, [c[b] for c in cols])
        t[:, rest] = False
        if len(free) == 1:
            total += int(_legs(t, cols[free[0]][b]).sum())
        else:
            total += int(_two_leg_disjoint(cols[free[0]][b], cols[free[1]][b], t).sum())
    return total


def claim_extension_bound(u_size: int, n: int) -> int:
    """Upper bound (9!)^(l+1) n^l on wickets containing a u_size-element
    set, with l = ceil((8 - u_size)/2) clamped to [0, 4]."""
    ell = max(0, min(4, math.ceil((8 - u_size) / 2)))
    return FACT9 ** (ell + 1) * n**ell
