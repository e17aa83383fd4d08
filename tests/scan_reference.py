"""The prefix-sharing enumeration engine, the tests' fast reference.

scan_class yields every connected set of a covalency class as chunks of
pair indices and their largest |mu_chi|; _scan_clean and _scan_max are
class_clean and class_max over it, with the scanned absmax standing in
for spectrum.  It combines the removed pairs in lexicographic order, in
numpy chunks with shared prefixes: a set's character sums are its
prefix's sums plus one table row.  That keeps it fast on the 10^7-set
classes the tests compare against, where oracle.enumerate_class builds
and checks one CayleySet a set.

orbit_representatives finds the first character of each unit orbit of
the character group by brute force over the units; it is the reference
that the rows of oracle.order_divisors, one character (0, ..., 0, d)
per order, are checked against.  odd_abelian_groups lists the invariant-factor chains of every
odd abelian group up to a given order.
"""

import math
from math import comb

import numpy as np

from ramcirc import precision
from ramcirc.errors import DEFAULT_BUDGET, BudgetExceededError, InternalInvariantError
from ramcirc.oracle import ClassMax, _cayley
from ramcirc.spectra import (
    BLOCK,
    is_ramanujan,
    pair_blocks,
    pair_characters,
    phase_table,
    ramanujan_bound,
)

## chunk size for the vectorised scans, in doubles of one level's sums
## (combinations x characters); a scan holds r such levels at once
_CHUNK_FLOATS = 1 << 17


def scan_class(orders: tuple[int, ...], l: int, budget: int = DEFAULT_BUDGET):
    """Yield (idx, absmax) chunks over the connected covalency-l class.

    G has invariant factors orders and l is an odd covalency in
    [1, |G| - 2]; callers validate both.  Each negation pair is
    represented by its first element in product order (for Z_m, i + 1),
    and the same representatives R = spectra.pair_characters(orders)
    index the pair characters in spectra.phase_table: phases[i, j] =
    <R[j], R[i]> in units of 1/exponent.  idx[k] holds one complement's
    removed pairs as indices into R, and absmax[k] its largest
    |lambda_chi|.  Every proper subgroup lies in a character kernel, so
    a complement that removes every pair outside some kernel leaves a
    kept set that does not generate G; such rows are dropped.
    """
    h, r = (math.prod(orders) - 1) // 2, (l - 1) // 2
    size = comb(h, r)
    if size > budget:
        raise BudgetExceededError(size, budget)
    R = pair_characters(orders)
    phases = phase_table(orders, R, R)
    P = 2.0 * np.cos((2.0 * math.pi / orders[-1]) * phases)
    outside = phases != 0
    ## r removed pairs can cover only kernels with at most r pairs outside
    cover = outside[:, outside.sum(axis=0) <= r]
    cover_size = cover.sum(axis=0)
    ## phases is symmetric, so column i of P is pair i's character row
    for idx, S in _combo_sums(P, r, max(1, _CHUNK_FLOATS // h)):
        ## fl(x + 1) is monotone in x, so this is max |S + 1| bit for bit
        absmax = np.maximum(S.max(axis=0) + 1.0, -(S.min(axis=0) + 1.0))
        if cover.shape[1]:
            keep = ~(cover[idx].sum(axis=1) == cover_size).any(axis=1)
            if not keep.any():
                continue
            idx, absmax = idx[keep], absmax[keep]
        yield idx, absmax


def _combo_sums(P: np.ndarray, r: int, rows: int):
    """Yield (idx, S) chunks over every r-combination of the columns of P.

    The combinations idx[k] = (i0, ..., i_{r-1}) come in lexicographic
    order, and S[:, k] = ((P[:, i0] + P[:, i1]) + ...) + P[:, i_{r-1}].
    They grow one index at a time with shared prefixes (Knuth, TAOCP
    7.2.1.3): a j-combination ending at c has the children c + 1 ..
    h - r + j, each costing its parent's sums plus one column of P.
    Each level holds at most max(rows, h) combinations at once; sums
    are kept one combination per column, so that reducing over the
    characters runs along contiguous rows.
    """
    h = P.shape[1]
    if r == 0:
        yield np.empty((1, 0), dtype=np.intp), np.zeros((len(P), 1))
        return

    def grow(idx, S):
        j = len(idx)
        if j == r:
            yield idx.T, S
            return
        last = idx[-1]
        kids = h - r + j - last
        ends = np.cumsum(kids)
        shift = last + 1 - (ends - kids)
        lo = 0
        while lo < len(last):
            start = int(ends[lo] - kids[lo])
            hi = max(lo + 1, int(np.searchsorted(ends, start + rows, side="right")))
            pid = np.repeat(np.arange(lo, hi), kids[lo:hi])
            child = np.arange(start, int(ends[hi - 1])) + shift[pid]
            yield from grow(np.concatenate((idx.take(pid, axis=1), child[None])),
                            S.take(pid, axis=1) + P.take(child, axis=1))
            lo = hi

    top = np.arange(h - r + 1)
    yield from grow(top[None, :], P[:, : h - r + 1])


def _scan_clean(group, l: int, budget: int) -> bool:
    """class_clean by scan_class: rows within precision.ESCALATION_MARGIN
    of the bound are re-decided by is_ramanujan."""
    orders = (group,) if isinstance(group, int) else group.orders
    R = pair_characters(orders)
    rb = 2.0 * math.sqrt(math.prod(orders) - l - 1)
    tol = precision.ESCALATION_MARGIN
    for idx, absmax in scan_class(orders, l, budget):
        if np.any(absmax > rb + tol):
            return False
        for i in np.nonzero(absmax > rb - tol)[0]:
            if not is_ramanujan(_cayley(group, R[idx[i]])).is_ramanujan:
                return False
    return True


def _scan_max(m: int, l: int, budget: int) -> ClassMax:
    """class_max by scan_class, over the connected sets alone."""
    best, best_row, R = -math.inf, None, pair_characters((m,))
    for idx, absmax in scan_class((m,), l, budget):
        i = int(np.argmax(absmax))
        if absmax[i] > best:
            best, best_row = float(absmax[i]), R[idx[i]]
    if best_row is None:
        raise InternalInvariantError(f"class m={m}, l={l} has no valid sets")
    return ClassMax(m, l, best, ramanujan_bound(m, l), _cayley(m, best_row))


def odd_abelian_groups(limit: int) -> list[tuple[int, ...]]:
    """Every odd abelian group of order at most limit, as its chain of
    invariant factors, cyclic ones included."""
    def chains(chain, order):
        yield tuple(chain)
        for b in range(chain[-1], limit // order + 1, 2 * chain[-1]):
            yield from chains(chain + [b], order * b)

    return [c for a in range(3, limit + 1, 2) for c in chains([a], a)]


def orbit_representatives(orders: tuple[int, ...]) -> np.ndarray:
    """The first character in product order of each orbit of the units of
    Z_L on the nonzero characters, L the exponent; in product order.

    The orbit of chi is the set of generators of <chi>.  A unit keeps the
    place of chi's first nonzero coordinate c and carries c onto the
    nonzero multiples of gcd(c, n) in Z_n, n that coordinate's invariant
    factor; so a representative has c | n, which on Z_m leaves exactly
    the proper divisors of m.  On a group of rank >= 2 a candidate is a
    representative when no unit carries it to an earlier element.  That
    is checked on batches of the candidates not yet reached, in product
    order, at most spectra.BLOCK image coordinates a batch (or one
    candidate's orbit), and the orbits of the representatives a batch
    finds are struck from the later batches.
    """
    if len(orders) == 1:
        return np.concatenate([E[orders[0] % E[:, 0] == 0] for E in pair_blocks(orders)])
    n = np.array(orders)
    candidates = []
    for E in pair_blocks(orders):
        lead = (E != 0).argmax(axis=1)
        candidates.append(E[n[lead] % E[np.arange(len(E)), lead] == 0])
    C = np.concatenate(candidates)
    L = orders[-1]
    units = np.flatnonzero(np.gcd(np.arange(L), L) == 1)
    flat, left = np.ravel_multi_index(C.T, orders), np.ones(len(C), dtype=bool)
    batch = max(1, BLOCK // (len(units) * len(orders)))
    reps = []
    while True:
        idx = np.flatnonzero(left)
        images = np.ravel_multi_index(
            np.moveaxis((units[:, None, None] * C[idx[:batch]]) % n, -1, 0), orders)
        own = images.min(axis=0) == flat[idx[:batch]]
        reps.append(idx[:batch][own])
        if len(idx) <= batch:
            return C[np.concatenate(reps)]
        image = images[:, own].ravel()
        at = np.minimum(np.searchsorted(flat, image), len(flat) - 1)
        left[at[flat[at] == image]] = False
