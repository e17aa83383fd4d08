"""The exhaustive route, and its agreement with the closed forms."""

import itertools
import math

import numpy as np
import pytest

from ramcirc import oracle, precision
from ramcirc.abelian import AbelianGroup, abelian_oracle
from ramcirc.bounds import trivial_bound
from ramcirc.classify import classify
from ramcirc.errors import BudgetExceededError, ValidationError
from ramcirc.oracle import (
    class_all_ramanujan,
    class_max,
    class_size,
    enumerate_class,
    hat_l_exhaustive,
    scan_class,
    semiprime_crosscheck,
)
from ramcirc.spectra import CayleySet, pair_characters, spectrum, window_complement


class TestEnumeration:
    def test_class_sizes(self):
        assert class_size(35, 11) == math.comb(17, 5) == 6188
        assert class_size(9, 5) == 6
        assert class_size(15, 7) == math.comb(7, 3) == 35

    def test_enumeration_count_matches(self):
        assert sum(1 for _ in enumerate_class(35, 11)) == 6188
        assert sum(1 for _ in enumerate_class(9, 5)) == 6

    def test_generation_filter_drops_disconnected(self):
        ## Z_9 at covalency 7 keeps a single pair; the pair {3, 6} spans
        ## only the subgroup {0, 3, 6} and must be filtered out
        sets = list(enumerate_class(9, 7))
        assert class_size(9, 7) == 4
        assert len(sets) == 3
        bad = frozenset({0, 1, 2, 4, 5, 7, 8})
        assert bad not in {s.complement for s in sets}

    def test_budget_enforced(self):
        size = class_size(101, 31)
        with pytest.raises(BudgetExceededError) as e:
            list(enumerate_class(101, 31, budget=1000))
        assert e.value.required == size
        assert e.value.budget == 1000

    def test_rejects_even_covalency(self):
        with pytest.raises(ValidationError):
            class_size(35, 10)


class TestScanFilter:
    def test_kept_rows_are_exactly_the_generating_sets(self):
        ## every odd abelian group of order at most 27: the cyclic ones
        ## and Z3xZ3, Z5xZ5, Z3xZ9, Z3xZ3xZ3
        groups = [(m,) for m in range(3, 28, 2)] + [(3, 3), (5, 5), (3, 9), (3, 3, 3)]
        for orders in groups:
            g = AbelianGroup(orders)
            elements = g.elements()
            reps, seen = [], {g.identity}
            for t in elements:
                if t not in seen:
                    seen.update((t, g.negate(t)))
                    reps.append(t)

            def complement(pairs):
                return frozenset([g.identity, *pairs, *map(g.negate, pairs)])

            R = pair_characters(orders)
            for l in range(1, g.order - 1, 2):
                kept = {complement([tuple(t) for t in row.tolist()])
                        for idx, _ in scan_class(orders, l) for row in R[idx]}
                ## a proper subgroup of an odd-order group has at most |G|/3
                ## elements, so larger kept sets span; otherwise ask spans,
                ## whose subgroup from the kept pair representatives is the
                ## one the whole kept set generates
                combos = [complement(c) for c in itertools.combinations(reps, (l - 1) // 2)]
                spanning = {t for t in combos
                            if 3 * (g.order - l) > g.order
                            or g.spans([e for e in reps if e not in t])}
                assert kept == spanning, (orders, l)
                if g.is_cyclic:
                    assert kept == {t for t in combos if _passes_gcd_check(g.order, t)}
                ## the constructor applies the same rule to the group form
                accepted = {t for t, c in zip(combos, itertools.combinations(
                    reps, (l - 1) // 2)) if _accepts(g, c)}
                assert accepted == spanning, (orders, l)


class TestScanEngine:
    ## every odd abelian group of order at most 27
    GROUPS = [(m,) for m in range(3, 28, 2)] + [(3, 3), (5, 5), (3, 9), (3, 3, 3)]

    def test_matches_reference_in_order_and_bits(self, monkeypatch):
        cases = [(g, l) for g in self.GROUPS for l in range(1, math.prod(g) - 1, 2)]
        ## Z7xZ7 has 24 pairs; its classes of more than 2e5 sets would take
        ## the reference tens of seconds together
        cases += [((7, 7), l) for l in range(1, 48, 2) if math.comb(24, (l - 1) // 2) < 2e5]
        for orders, l in cases:
            _assert_same_scan(orders, l)
        ## a few combinations per chunk put a chunk seam at every level
        monkeypatch.setattr(oracle, "_CHUNK_FLOATS", 64)
        for orders in self.GROUPS:
            for l in range(1, math.prod(orders) - 1, 2):
                _assert_same_scan(orders, l)

    def test_chunks_stay_within_the_row_bound(self):
        for orders, l in (((65,), 15), ((7, 7), 25)):
            h = (math.prod(orders) - 1) // 2
            rows = [len(absmax) for _, absmax in scan_class(orders, l)]
            assert sum(rows) == math.comb(h, (l - 1) // 2)
            assert max(rows) <= oracle._CHUNK_FLOATS // h, orders


def _reference_scan(orders, l):
    """The scan as a plain loop: itertools combinations, then r-row sums."""
    L = orders[-1]
    E = np.indices(orders).reshape(len(orders), -1).T
    R = E[np.arange(len(E)) < np.ravel_multi_index((-E % orders).T, orders)]
    phases = ((R * (L // np.array(orders))) @ R.T) % L
    P = 2.0 * np.cos((2.0 * math.pi / L) * phases)
    r = (l - 1) // 2
    outside = phases != 0
    cover = outside[:, outside.sum(axis=0) <= r]
    combos = itertools.combinations(range(len(R)), r)
    while chunk := list(itertools.islice(combos, 4096)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), r)
        idx = idx[~(cover[idx].sum(axis=1) == cover.sum(axis=0)).any(axis=1)]
        yield R[idx], np.abs(-(1.0 + P[idx].sum(axis=1))).max(axis=1)


def _assert_same_scan(orders, l):
    ## chunk seams differ, so compare the concatenated bytes
    R = pair_characters(orders)
    got = [(R[idx], absmax) for idx, absmax in scan_class(orders, l)]
    want = list(_reference_scan(orders, l))
    for part in (0, 1):
        assert (b"".join(c[part].tobytes() for c in got)
                == b"".join(c[part].tobytes() for c in want)), (orders, l, part)
    assert sum(len(a) for _, a in got) == sum(len(a) for _, a in want), (orders, l)


def _passes_gcd_check(m, t):
    """Whether CayleySet accepts the rank-1 complement t in its int form."""
    try:
        CayleySet.from_residues(m, [b for (b,) in t])
    except ValidationError:
        return False
    return True


def _accepts(group, pairs):
    """Whether CayleySet.from_pairs accepts the pair representatives on group."""
    try:
        CayleySet.from_pairs(group, pairs)
    except ValidationError:
        return False
    return True


class TestBorderRows:
    def test_exact_redecision_reaches_both_forms(self, monkeypatch):
        ## with a huge tolerance every row extreme of a class is re-decided
        ## in mpmath, on Z_m given as an int and as an AbelianGroup and on
        ## non-cyclic groups; the verdicts must not move
        cases = [(15, 7), (15, 9), (AbelianGroup((15,)), 7), (AbelianGroup((3, 3)), 5),
                 (AbelianGroup((5, 5)), 11), (AbelianGroup((5, 5)), 13),
                 (AbelianGroup((3, 9)), 9)]
        want = [oracle.class_clean(g, l, 10**6) for g, l in cases]
        assert want == [True, False, True, True, True, False, False]
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", 1e9)
        assert [oracle.class_clean(g, l, 10**6) for g, l in cases] == want


class TestRowRoute:
    ## Z_m for odd m <= 45, and the non-cyclic groups of order at most 45
    GROUPS = list(range(3, 46, 2)) + [
        AbelianGroup(o) for o in ((3, 3), (5, 5), (3, 9), (3, 3, 3), (3, 15))]

    def test_rows_decide_every_class_as_the_scan(self):
        cases = [(g, l) for g in self.GROUPS for l in range(1, _order(g) - 1, 2)
                 if math.comb((_order(g) - 1) // 2, (l - 1) // 2) <= 2 * 10**5]
        assert len(cases) == 297
        got = [oracle.class_clean(g, l, 10**6) for g, l in cases]
        assert got == [oracle._scan_clean(g, l, 10**6) for g, l in cases]

    def test_no_scan_to_2001(self, monkeypatch):
        ## generation cannot bind in the l0 + 2 and l0 + 4 classes from
        ## m = 15 on, so the rows decide them alone; below 15 every class
        ## climbed passes on the rows, an upper bound over the class
        def scan_class(*args):
            raise AssertionError("scanned a class")

        monkeypatch.setattr(oracle, "scan_class", scan_class)
        for m in range(3, 2002, 2):
            assert hat_l_exhaustive(m) == classify(m).hat_l, m

    def test_table_budget(self):
        ## the budget counts the h^2 entries of the pair table
        assert class_max(101, 21, budget=50 * 50).mu > 0
        with pytest.raises(BudgetExceededError) as e:
            class_max(101, 21, budget=50 * 50 - 1)
        assert (e.value.required, e.value.budget) == (2500, 2499)
        assert "table entries" in str(e.value)


class TestRowsMatchTheScan:
    def test_class_max_on_every_affordable_cyclic_class(self):
        ## odd m <= 65 at l0 + 2 and l0 + 4: up to 1.05e7 sets a class
        for m in range(15, 66, 2):
            l0 = trivial_bound(m)
            for l in (l0 + 2, l0 + 4):
                got, want = class_max(m, l), oracle._scan_max(m, l, 10**8)
                assert got.mu == pytest.approx(want.mu, abs=1e-12), (m, l)
                ## a CayleySet's kept set generates; the witness is the scan's
                ## up to a unit multiplier, which permutes the characters
                assert got.witness.covalency == l
                assert spectrum(got.witness).mu_max == pytest.approx(got.mu, abs=1e-12)
                assert oracle._unit_orbit_match(got.witness, want.witness), (m, l)
                assert oracle.class_clean(m, l, 10**8) == (want.mu <= want.rb)

    def test_every_class_climbed_on_the_groups_to_49(self):
        groups = [(m,) for m in range(3, 50, 2)] + [
            (3, 3), (5, 5), (3, 9), (3, 3, 3), (3, 15), (7, 7)]
        assert len(groups) == 30
        for orders in groups:
            g = AbelianGroup(orders)
            n = g.order
            hat = abelian_oracle(g)
            for l in range(trivial_bound(n) + 2, min(hat + 2, n - 2) + 1, 2):
                clean = oracle.class_clean(g, l, 10**8)
                assert clean == oracle._scan_clean(g, l, 10**8), (orders, l)
                assert clean == (l <= hat), (orders, l)
                if 3 * ((l - 1) // 2) >= n:
                    continue
                ## every set generates here, so the row maximum is the scan's
                rows = max(absmax.max() for _, absmax, _ in
                           oracle._row_extremes(orders, (l - 1) // 2, 10**8))
                scan = max(a.max() for _, a in scan_class(orders, l))
                assert rows == pytest.approx(scan, abs=1e-12), (orders, l)


def _order(group):
    return group if isinstance(group, int) else group.order


class TestClassMax:
    def test_pinned_maxima(self):
        cm = class_max(35, 11)
        assert cm.mu == pytest.approx(9.310349041405155, abs=1e-12)
        assert cm.witness == window_complement(35, 11)
        cm55 = class_max(55, 13)
        assert cm55.mu == pytest.approx(11.84426317618406, abs=1e-11)

    def test_packed_set_beats_window_at_21(self):
        ## the window at (21, 9) stays under the bound; the class max is
        ## the packed multiples-of-7 set, and it breaks the bound
        cm = class_max(21, 9)
        assert cm.mu == pytest.approx(6.7409388111524, abs=1e-11)
        assert cm.mu > cm.rb
        assert sorted(cm.witness.complement) == [0, 1, 6, 7, 8, 13, 14, 15, 20]

    def test_golden_ratio_max_at_15(self):
        ## the extremum of the (15, 9) class is 3*phi
        cm = class_max(15, 9)
        assert cm.mu == pytest.approx(3 * (1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_class_all_ramanujan_consistent_with_max(self):
        for m, l in ((15, 7), (15, 9), (21, 9), (35, 11), (35, 13)):
            clean = class_all_ramanujan(m, l)
            cm = class_max(m, l)
            if abs(cm.mu - cm.rb) > 1e-9:
                assert clean == (cm.mu <= cm.rb)


class TestHatL:
    def test_tiny_orders_saturate(self):
        for m in (3, 5, 7, 9, 11, 13):
            assert hat_l_exhaustive(m) == m - 2

    def test_first_nontrivial_orders(self):
        assert hat_l_exhaustive(15) == 7
        assert hat_l_exhaustive(21) == 7
        assert hat_l_exhaustive(35) == 11
        assert hat_l_exhaustive(39) == 9
        assert hat_l_exhaustive(55) == 13

    def test_agrees_with_classifier_on_midrange(self):
        for m in range(57, 82, 2):
            assert hat_l_exhaustive(m) == classify(m).hat_l, m

    @pytest.mark.slow
    def test_agrees_with_classifier_to_3001(self):
        for m in range(3, 3002, 2):
            assert hat_l_exhaustive(m) == classify(m).hat_l, m


class TestCrosscheck:
    def test_reference_orders(self):
        expected_family = {15: "window", 21: "q_multiples",
                          35: "window", 55: "window", 65: "q_multiples"}
        for m, fam in expected_family.items():
            r = semiprime_crosscheck(m)
            assert r.agrees, m
            assert r.delta <= 1e-9
            assert r.family == fam

    def test_rejects_non_semiprime(self):
        with pytest.raises(ValidationError):
            semiprime_crosscheck(27)
        with pytest.raises(ValidationError):
            semiprime_crosscheck(85)  # 17 > 4*5-5
        with pytest.raises(ValidationError):
            semiprime_crosscheck(13)
        ## p is the least prime factor and q = m // p; nothing is factorised
        assert not hasattr(oracle, "factorize")

    def test_closed_form_tracks_scan_beyond_reference(self):
        r = semiprime_crosscheck(65)
        assert r.agrees
        assert r.delta <= 1e-9


class TestWitnessSpectra:
    def test_every_enumerated_set_obeys_power_sum(self):
        for s in enumerate_class(15, 7):
            sp = spectrum(s)
            assert math.fsum(v * v for v in sp.values) == pytest.approx(
                15 * s.valency, rel=1e-12)
