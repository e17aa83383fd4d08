"""The exhaustive route, and its agreement with the closed forms."""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import scan_reference
from ramcirc import oracle, precision, spectra
from ramcirc.abelian import AbelianGroup, abelian_oracle
from ramcirc.bounds import trivial_bound
from ramcirc.classify import classify
from ramcirc.errors import BudgetExceededError, ValidationError
from ramcirc.numtheory import is_prime
from ramcirc.oracle import (
    class_all_ramanujan,
    class_max,
    hat_l_exhaustive,
    semiprime_crosscheck,
)
from ramcirc.spectra import (
    CayleySet,
    group_orders,
    pair_characters,
    spectrum,
    window_complement,
)
from scan_reference import (
    _scan_clean,
    _scan_max,
    odd_abelian_groups,
    orbit_representatives,
    scan_class,
)


class TestEnumeration:
    def test_budget_enforced(self):
        ## the tests' scan charges its budget for every set of the class
        size = math.comb(50, 15)
        with pytest.raises(BudgetExceededError) as e:
            next(scan_class((101,), 31, budget=1000))
        assert (e.value.required, e.value.budget) == (size, 1000)
        assert f"needs {size} subsets" in str(e.value)

    def test_rejects_even_covalency(self):
        with pytest.raises(ValidationError):
            class_max(35, 10)


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
        monkeypatch.setattr(scan_reference, "_CHUNK_FLOATS", 64)
        for orders in self.GROUPS:
            for l in range(1, math.prod(orders) - 1, 2):
                _assert_same_scan(orders, l)

    def test_chunks_stay_within_the_row_bound(self):
        for orders, l in (((65,), 15), ((7, 7), 25)):
            h = (math.prod(orders) - 1) // 2
            rows = [len(absmax) for _, absmax in scan_class(orders, l)]
            assert sum(rows) == math.comb(h, (l - 1) // 2)
            assert max(rows) <= scan_reference._CHUNK_FLOATS // h, orders


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


def _orbit_minima(orders):
    """The least element in product order of u * chi over every unit u of
    Z_L, for every nonzero chi, by brute force."""
    n, L = np.array(orders), orders[-1]
    E = np.indices(orders).reshape(len(orders), -1).T[1:]
    units = [u for u in range(1, L) if math.gcd(u, L) == 1]
    flat = np.stack([np.ravel_multi_index(((u * E) % n).T, orders) for u in units])
    return np.stack(np.unravel_index(np.unique(flat.min(axis=0)), orders), axis=1)


class TestRowTable:
    def test_representatives_are_the_orbit_minima(self):
        groups = odd_abelian_groups(400)
        assert len(groups) == 255
        for orders in groups:
            got = orbit_representatives(orders)
            assert np.array_equal(got, _orbit_minima(orders)), orders
        ## one representative per nontrivial cyclic subgroup: a proper
        ## divisor of m on Z_m, p + 1 lines through the identity on Z_p x Z_p
        assert orbit_representatives((45,)).ravel().tolist() == [1, 3, 5, 9, 15]
        for p in (3, 5, 7, 11, 13):
            assert len(orbit_representatives((p, p))) == p + 1

    def test_one_row_per_order_holds_every_orbit_row(self):
        ## a character of order e takes each e-th root of unity |G|/e times,
        ## so every orbit representative's sorted folded row is the row of
        ## the order character of its order
        for orders in odd_abelian_groups(400):
            R, L = pair_characters(orders), orders[-1]
            divisors = oracle.order_divisors(L)
            reps, chars = orbit_representatives(orders), _divisor_chars(orders, divisors)
            rows = {}
            for k, chi, d in zip(_folded_sorted(orders, chars, R), chars, divisors):
                assert _char_order(orders, chi) == L // d, orders
                rows[_char_order(orders, chi)] = k
            ## one character of each order e > 1 dividing L, e descending
            assert list(rows) == [e for e in range(L, 1, -1) if L % e == 0], orders
            for k, chi in zip(_folded_sorted(orders, reps, R), reps):
                assert np.array_equal(k, rows[_char_order(orders, chi)]), (orders, chi)
        assert oracle.order_divisors(45) == [1, 3, 5, 9, 15]
        ## one row on Z_p x Z_p, not p + 1; 7 on (3, 3333), not 19
        for p in (3, 5, 7, 11, 13):
            assert oracle.order_divisors(p) == [1]
        assert len(oracle.order_divisors(3333)) == 7
        assert len(orbit_representatives((3, 3333))) == 19

    def test_equal_rows_tie_once(self, monkeypatch):
        ## the 4 lines of Z_3 x Z_3 share one row, so the exact tie
        ## mu = rb = 2 of its top class is decided once, not 4 times
        decisions, real = [], precision.decide
        monkeypatch.setattr(precision, "decide", lambda *args, **kwargs: decisions.append(
            real(*args, **kwargs)) or decisions[-1])
        assert abelian_oracle(AbelianGroup((3, 3))) == 7
        assert [(d.mu_max, d.tie_proved) for d in decisions] == [(2.0, True)]

    def test_blocks_merge_into_the_sorted_ends(self, monkeypatch):
        ## the sides, written from multiplicities, must match the whole
        ## rows built from the definition and sorted, whatever the block
        ## size; extreme_pairs walks the row in blocks, so with blocks of
        ## 8 entries its pairs must still match the rows argsorted
        cases = [((45,), 4), ((45,), 11), ((101,), 6), ((5, 5), 3),
                 ((3, 9), 13), ((3, 3, 3), 2)]
        for orders, r_max in cases:
            want = oracle.row_table(orders, r_max, 10**6)
            R, L = pair_characters(orders), orders[-1]
            monkeypatch.setattr(spectra, "BLOCK", 8)
            got = oracle.row_table(orders, r_max, 10**6)
            assert np.array_equal(got.sides, want.sides), orders
            K = spectra.phase_table(orders, _divisor_chars(orders, got.divisors), R)
            K = np.minimum(K, L - K)
            w = min(r_max, len(R))
            S = np.sort(K, axis=1)
            if got.sides.shape[1] < len(R):
                S = np.concatenate([S[:, :w], S[:, len(R) - w:]], axis=1)
            assert np.array_equal(got.sides, S), orders
            for r in range(w + 1):
                for i, k in enumerate(K):
                    for from_top in (True, False):
                        order = np.argsort(k if from_top else -k, kind="stable")
                        pairs = got.extreme_pairs(i, r, from_top)
                        assert {tuple(x) for x in pairs.tolist()} == {
                            tuple(x) for x in R[order[:r]].tolist()}, (orders, r, i)
            with pytest.raises(ValidationError):
                got.extremes(got.r_max + 1)
            monkeypatch.undo()

    def test_huge_groups_are_refused_before_any_row(self):
        ## every table has at least the row of order L, h entries
        tracemalloc.start()
        try:
            for orders, least in (((10**12 + 1,), 5 * 10**11),
                                  ((30001, 30001), (30001**2 - 1) // 2)):
                with pytest.raises(BudgetExceededError) as e:
                    oracle.row_table(orders, 10, 10**8)
                assert e.value.required == least
            with pytest.raises(BudgetExceededError):
                hat_l_exhaustive(10**12 + 1)
            with pytest.raises(BudgetExceededError):
                abelian_oracle(AbelianGroup((30001, 30001)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _divisor_chars(orders, divisors):
    """The characters (0, ..., 0, d) of the rows of divisors d."""
    chars = np.zeros((len(divisors), len(orders)), dtype=np.int64)
    chars[:, -1] = divisors
    return chars


def _folded_sorted(orders, chars, R):
    """The sorted folded rows of chars against the pairs R."""
    K = spectra.phase_table(orders, chars, R)
    return np.sort(np.minimum(K, orders[-1] - K), axis=1)


def _char_order(orders, chi):
    """The order of the character chi, the lcm of its coordinates' orders."""
    return math.lcm(*(n // math.gcd(int(c), n) for c, n in zip(chi, orders)))


class TestRowRoute:
    ## Z_m for odd m <= 45, and the non-cyclic groups of order at most 45
    GROUPS = list(range(3, 46, 2)) + [
        AbelianGroup(o) for o in ((3, 3), (5, 5), (3, 9), (3, 3, 3), (3, 15))]

    @pytest.fixture(scope="class")
    def decided(self):
        """class_clean on every class of at most 2e5 sets, each answer or
        the ValidationError that refused the class, and every decision
        made on a row extreme."""
        cases = [(g, l) for g in self.GROUPS for l in range(1, _order(g) - 1, 2)
                 if math.comb((_order(g) - 1) // 2, (l - 1) // 2) <= 2 * 10**5]
        got, decisions = [], []

        def recording(real):
            return lambda *args, **kwargs: decisions.append(
                real(*args, **kwargs)) or decisions[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precision, "decide", recording(precision.decide))
            for g, l in cases:
                try:
                    got.append(oracle.class_clean(g, l, 10**6))
                except ValidationError as e:
                    got.append(e)
        return cases, got, decisions

    def test_rows_decide_every_class_as_the_scan(self, decided):
        cases, got, _ = decided
        assert len(cases) == 297
        settled = [(c, clean) for c, clean in zip(cases, got) if isinstance(clean, bool)]
        assert len(settled) == 293
        assert [clean for _, clean in settled] == [
            _scan_clean(g, l, 10**6) for (g, l), _ in settled]

    def test_rows_refuse_four_clean_classes(self, decided):
        ## only where generation binds and the first violating row's
        ## extreme set does not generate do the rows leave a class
        ## unsettled; class_clean refuses it, naming the group and l, and
        ## the scan finds each clean
        cases, got, _ = decided
        refused = [(g, l, e) for (g, l), e in zip(cases, got) if isinstance(e, ValidationError)]
        assert [(group_orders(g), l) for g, l, _ in refused] == [
            ((5, 5), 21), ((3, 3, 3), 19), ((3, 3, 3), 21), ((3, 3, 3), 23)]
        for g, l, e in refused:
            assert f"covalency {l} on the group {group_orders(g)}" in str(e)
            assert _scan_clean(g, l, 10**6)

    def test_every_tie_is_proved_without_mpmath(self, decided):
        ## the escalated decisions of these classes are exact ties, such as
        ## mu = rb = 2 at l = |G| - 2; each is proved from its conjugates,
        ## so none takes an mpmath pass, let alone climbs to MAX_DIGITS
        decisions = decided[2]
        escalated = [d for d in decisions if d.escalated]
        assert escalated and all(d.tie_proved for d in escalated)
        assert all(d.digits is None for d in decisions)

    def test_class_clean_rejects_invalid_input(self):
        cases = [(AbelianGroup((3, 3)), l) for l in (0, -1, 8, 9)]
        cases += [(AbelianGroup((5, 5)), 24), (AbelianGroup((5, 5)), 25),
                  (15, 14), (15, 15), (15.0, 7), ("15", 7)]
        for g, l in cases:
            with pytest.raises(ValidationError):
                oracle.class_clean(g, l, 10**6)

    def test_no_scan_to_2001(self):
        ## generation cannot bind in the l0 + 2 and l0 + 4 classes from
        ## m = 15 on, so the rows decide them alone; below 15 every class
        ## climbed passes on the rows, an upper bound over the class, so
        ## no class is refused
        for m in range(3, 2002, 2):
            assert hat_l_exhaustive(m) == classify(m).hat_l, m

    def test_table_budget(self):
        ## the budget counts rows x h entries: one row per proper divisor,
        ## 1 x 50 on the prime 101 and 7 x 52 on 105 = 3 * 5 * 7
        for m, rows in ((101, 1), (105, 7)):
            entries = rows * (m - 1) // 2
            assert len(oracle.order_divisors(m)) == rows
            assert class_max(m, 21, budget=entries).mu > 0
            with pytest.raises(BudgetExceededError) as e:
                class_max(m, 21, budget=entries - 1)
            assert (e.value.required, e.value.budget) == (entries, entries - 1)
            assert "table entries" in str(e.value)


class TestRowsMatchTheScan:
    def test_class_max_on_every_affordable_cyclic_class(self):
        ## odd m <= 65 at l0 + 2 and l0 + 4: up to 1.05e7 sets a class
        for m in range(15, 66, 2):
            l0 = trivial_bound(m)
            for l in (l0 + 2, l0 + 4):
                got, want = class_max(m, l), _scan_max(m, l, 10**8)
                assert got.mu == pytest.approx(want.mu, abs=1e-12), (m, l)
                ## a CayleySet's kept set generates; the witness is the scan's
                ## up to a unit multiplier, which permutes the characters
                assert got.witness.covalency == l
                assert spectrum(got.witness).mu_max == pytest.approx(got.mu, abs=1e-12)
                assert _unit_orbit_match_loop(got.witness, want.witness), (m, l)
                assert oracle.class_clean(m, l, 10**8) == (want.mu <= want.rb)

    def test_class_max_where_generation_can_bind(self):
        ## cyclic classes with 3r >= m of at most 3000 sets; in 25 of them
        ## the argmax row's extreme set does not generate, and class_max
        ## refuses the class, naming m and l: on Z_9 at covalency 7 that
        ## set removes the pairs 1, 2 and 4 and keeps {3, 6}, a subgroup
        cases = [(m, l) for m in range(3, 46, 2) for l in range(1, m - 1, 2)
                 if 3 * ((l - 1) // 2) >= m and math.comb((m - 1) // 2, (l - 1) // 2) <= 3000]
        assert len(cases) == 53
        refused = []
        for m, l in cases:
            try:
                got = class_max(m, l)
            except ValidationError as e:
                assert f"covalency {l} on the group {(m,)}" in str(e)
                refused.append((m, l))
                continue
            want = _scan_max(m, l, 10**8)
            assert got.mu == pytest.approx(want.mu, abs=1e-12), (m, l)
            assert got.witness.covalency == l
            assert spectrum(got.witness).mu_max == got.mu, (m, l)
        assert refused == [
            (9, 7), (15, 11), (15, 13), (21, 15), (21, 17), (21, 19), (25, 21),
            (25, 23), (27, 19), (27, 21), (27, 23), (27, 25), (33, 25), (33, 27),
            (33, 29), (33, 31), (35, 29), (35, 31), (35, 33), (39, 33), (39, 35),
            (39, 37), (45, 39), (45, 41), (45, 43)]

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
                assert clean == _scan_clean(g, l, 10**8), (orders, l)
                assert clean == (l <= hat), (orders, l)
                if 3 * ((l - 1) // 2) >= n:
                    continue
                ## every set generates here, so the row maximum is the scan's
                r = (l - 1) // 2
                rows = oracle.row_table(orders, r, 10**8).extremes(r)[0].max()
                scan = max(a.max() for _, a in scan_class(orders, l))
                assert rows == pytest.approx(scan, abs=1e-12), (orders, l)


def _order(group):
    return math.prod(group_orders(group))


def _unit_orbit_match_loop(witness, target):
    """oracle._unit_orbit_match as a plain loop over the units."""
    m = witness.m
    return any(frozenset(u * x % m for x in witness.complement) == target.complement
               for u in range(1, m) if math.gcd(u, m) == 1)


def _families(m, p, q, l):
    """The three sets the closed form predicts at covalency l on Z_{p q}."""
    return {"window": window_complement(m, l),
            "p_multiples": oracle._packed_complement(m, p, l),
            "q_multiples": oracle._packed_complement(m, q, l)}


def _family_split(limit):
    """The count of each family over the odd m = p q <= limit, primes
    p < q <= 4p - 5.  Each m agrees, its witness is its family's set, and
    its family is that of the argmax row, taken from the top side: the
    window for d = 1, the multiples of p for d = q and of q for d = p."""
    primes = [n for n in range(3, limit // 3 + 1, 2) if is_prime(n)]
    orders = sorted(p * q for p in primes for q in primes
                    if p < q <= 4 * p - 5 and p * q <= limit)
    split = collections.Counter()
    for m in orders:
        rep = semiprime_crosscheck(m)
        assert rep.agrees, m
        assert rep.witness.complement == _families(m, rep.p, rep.q, rep.l)[
            rep.family].complement, m
        r = (rep.l - 1) // 2
        table = oracle.row_table((m,), r, 10**8)
        absmax, from_top = table.extremes(r)
        i = int(np.argmax(absmax))
        assert from_top[i], m
        assert rep.family == {1: "window", rep.q: "p_multiples",
                              rep.p: "q_multiples"}[table.divisors[i]], m
        split[rep.family] += 1
    return split


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

    def test_answers_past_20003_under_the_default_budget(self):
        ## the h^2 pair table refused every odd m >= 20003; the rows of
        ## 20003 = 83 * 241 are 1, 83 and 241, 3 x 10001 entries, and the
        ## exceptional 20011 is prime
        for m in (19457, 20003, 20011):
            assert hat_l_exhaustive(m) == classify(m).hat_l, m
        with pytest.raises(BudgetExceededError) as e:
            hat_l_exhaustive(20003, budget=3 * 10001 - 1)
        assert e.value.required == 3 * 10001

    def test_a_prime_past_2e7_in_little_memory(self):
        ## the one row of 20000003 has 10^7 entries, but only the ends
        ## its classes read are written, from multiplicities
        tracemalloc.start()
        try:
            got = hat_l_exhaustive(20000003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == classify(20000003).hat_l
        assert peak < 4 << 20

    @pytest.mark.slow
    def test_agrees_with_classifier_to_30001(self):
        for m in range(3, 30002, 2):
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

    def test_family_match_equals_the_unit_loop(self):
        ## the row engine fixes the witness exactly, so equality names the
        ## family that a search over every unit multiplier names
        for m in (15, 21, 35, 55, 65, 77, 91, 143, 187, 221):
            r = semiprime_crosscheck(m)
            families = _families(m, r.p, r.q, r.l)
            assert r.family == next((name for name, s in families.items()
                                     if _unit_orbit_match_loop(r.witness, s)), None)

    def test_family_is_the_argmax_row_of_every_semiprime_to_5001(self):
        assert _family_split(5001) == {"window": 116, "q_multiples": 42,
                                       "p_multiples": 28}

    @pytest.mark.slow
    def test_family_is_the_argmax_row_of_every_semiprime_to_20001(self):
        assert _family_split(20001) == {"window": 382, "q_multiples": 117,
                                        "p_multiples": 100}

    def test_packed_family_takes_the_residue_classes_in_turn(self):
        ## every multiple of d below m/2, then the pairs = +-1, +-2, ...
        ## mod d, each class in ascending order, until r pairs are removed
        packed = 0
        for m in range(3, 402, 2):
            l = trivial_bound(m) + 2
            h, r = (m - 1) // 2, (l - 1) // 2
            for d in (d for d in range(3, m, 2) if m % d == 0):
                want = list(range(d, h + 1, d))
                if len(want) > r:
                    with pytest.raises(ValidationError):
                        oracle._packed_complement(m, d, l)
                    continue
                for e in range(1, d // 2 + 1):
                    want += [x for x in range(1, h + 1) if x % d in (e, d - e)]
                got = oracle._packed_complement(m, d, l)
                assert got.covalency == l, (m, d)
                assert {min(x, m - x) for x in got.complement} == {0, *want[:r]}, (m, d)
                packed += 1
        assert packed == 245
        for d in (1, 7, 45):
            with pytest.raises(ValidationError):
                oracle._packed_complement(45, d, 11)


class TestWitnessSpectra:
    def test_every_enumerated_set_obeys_power_sum(self):
        ## the 35 sets of Z_15 at covalency 7, built as the oracle builds
        ## its witnesses
        R = pair_characters((15,))
        sets = [oracle._cayley(15, R[row]) for idx, _ in scan_class((15,), 7) for row in idx]
        assert len(sets) == 35
        for s in sets:
            sp = spectrum(s)
            assert math.fsum(v * v for v in sp.values) == pytest.approx(
                15 * s.valency, rel=1e-12)
