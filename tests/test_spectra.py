"""Eigenvalue code against dense linear algebra and exact identities."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ramcirc.abelian import AbelianGroup
from ramcirc.errors import ValidationError
from ramcirc.spectra import (
    BLOCK,
    CayleySet,
    cos2,
    eigenvalue,
    elements,
    is_ramanujan,
    mp_abs_mu,
    pair_characters,
    phase_blocks,
    phase_table,
    proves_tie,
    ramanujan_bound,
    spectrum,
    window_complement,
    window_eigenvalue,
)


@st.composite
def cayley_sets(draw, max_m=151):
    m = 2 * draw(st.integers(min_value=3, max_value=(max_m - 1) // 2)) + 1
    h = (m - 1) // 2
    r = draw(st.integers(min_value=0, max_value=min(h - 1, 12)))
    reps = draw(st.sets(st.integers(min_value=1, max_value=h),
                        min_size=r, max_size=r))
    try:
        return CayleySet.from_pairs(m, reps)
    except ValidationError:
        ## kept residues landed inside a proper subgroup; rare, skip
        assume(False)


def adjacency(cayley: CayleySet) -> np.ndarray:
    m = cayley.m
    a = np.zeros((m, m))
    kept = [s for s in range(1, m) if s not in cayley.complement]
    for i in range(m):
        for s in kept:
            a[i, (i + s) % m] = 1.0
    return a


class TestCayleySet:
    def test_window_complement_contents(self):
        w = window_complement(35, 11)
        assert w.residues() == [0, 1, 2, 3, 4, 5, 30, 31, 32, 33, 34]
        assert w.covalency == 11
        assert w.valency == 24

    def test_from_residues_canonicalizes_signs(self):
        a = CayleySet.from_residues(21, [0, 1, -1, 6, -6, 7, -7, 8, -8])
        b = CayleySet.from_pairs(21, [1, 6, 7, 8])
        assert a == b

    def test_rejects_even_modulus(self):
        with pytest.raises(ValidationError):
            CayleySet.from_pairs(20, [1])

    def test_rejects_missing_zero(self):
        with pytest.raises(ValidationError):
            CayleySet(15, frozenset({1, 14}))

    def test_rejects_asymmetric_complement(self):
        with pytest.raises(ValidationError):
            CayleySet(15, frozenset({0, 1, 2}))

    def test_rejects_nongenerating_kept_set(self):
        ## keeping only multiples of 3 in Z_9 leaves a disconnected graph
        with pytest.raises(ValidationError):
            CayleySet.from_pairs(9, [1, 2, 4])

    def test_rejects_full_complement(self):
        with pytest.raises(ValidationError):
            CayleySet.from_pairs(9, [1, 2, 3, 4])

    def test_every_constructor_freezes_and_checks(self):
        s = CayleySet(15, [0, 1, 14])
        assert type(s.complement) is frozenset and s == CayleySet.from_pairs(15, [1])
        ## not closed under negation; not generating Z_9
        for group, bad in ((15, {0, 1, 2}), (9, {0, 1, 2, 4, 5, 7, 8})):
            for build in (lambda: CayleySet(group, bad),
                          lambda: s._replace(group=group, complement=bad),
                          lambda: CayleySet._make((group, bad))):
                with pytest.raises(ValidationError):
                    build()
        assert type(s._replace(complement=[0, 2, 13]).complement) is frozenset

    def test_elements_must_be_integers(self):
        ## every coordinate is an integer: a float is refused, not
        ## truncated, as are a tuple on Z_m and an int on a group of rank 2
        g = AbelianGroup((3, 3))
        for build in (lambda: CayleySet.from_pairs(g, [(0, 1.5)]),
                      lambda: CayleySet.from_pairs(g, [1]),
                      lambda: CayleySet.from_residues(9, [(1,)]),
                      lambda: eigenvalue(window_complement(9, 3), (1,))):
            with pytest.raises(ValidationError, match="integer entries"):
                build()
        ## numpy integers are integers, and come back as ints
        s = CayleySet.from_pairs(g, [np.array([0, 1])])
        assert s == CayleySet.from_pairs(g, [(0, 1)])
        assert all(type(c) is int for x in s.complement for c in x)
        assert CayleySet.from_residues(9, np.array([0, 10, -1])).complement == {0, 1, 8}


class TestSpectrum:
    @given(cayley_sets())
    def test_trace_is_zero(self, cs):
        sp = spectrum(cs)
        assert math.fsum(sp.values) == pytest.approx(0.0, abs=1e-8 * cs.m)

    @given(cayley_sets())
    def test_power_sum_counts_edges(self, cs):
        sp = spectrum(cs)
        assert math.fsum(v * v for v in sp.values) == pytest.approx(
            cs.m * cs.valency, rel=1e-12)

    @given(cayley_sets())
    def test_mirror_symmetry(self, cs):
        sp = spectrum(cs)
        for j in range(1, cs.m):
            assert sp.values[j] == sp.values[cs.m - j]

    @given(cayley_sets())
    def test_direct_eigenvalue_matches_spectrum(self, cs):
        sp = spectrum(cs)
        for j in (0, 1, cs.m - 1, cs.m // 2):
            assert eigenvalue(cs, j) == pytest.approx(sp.values[j], abs=1e-9)

    @given(cayley_sets(max_m=61))
    def test_matches_dense_eigensolver(self, cs):
        sp = spectrum(cs)
        dense = np.linalg.eigvalsh(adjacency(cs))
        assert np.allclose(np.sort(sp.values), dense, atol=1e-8)

    def test_mu_zero_is_valency(self):
        cs = window_complement(19, 5)
        assert eigenvalue(cs, 0) == 14.0

    def test_rejects_index_out_of_range(self):
        cs = window_complement(19, 5)
        with pytest.raises(ValidationError):
            eigenvalue(cs, 19)


class TestPhaseKernel:
    @pytest.mark.parametrize("orders, several", [
        ((2001,), True), ((3, 3, 3), False), ((5, 25), False)])
    def test_blocks_fold_one_phase_table(self, orders, several):
        L = orders[-1]
        chars = pair_characters(orders)
        ## about a third of the elements as columns: on Z_2001 that is
        ## 1000 rows of ~670 entries, several blocks
        E = elements(orders)
        cols = E[np.random.default_rng(15).random(len(E)) < 1 / 3]
        blocks = list(phase_blocks(orders, chars, cols))
        assert (len(blocks) > 1) == several
        assert all(b.size <= BLOCK for b in blocks)
        K = np.concatenate(blocks)
        assert 0 <= K.min() and K.max() <= L // 2
        T = phase_table(orders, chars, cols)
        assert np.array_equal(K, np.minimum(T, L - T))
        with mp.workdps(50):
            for row in K[::max(1, len(K) // 25)]:
                assert float(mp_abs_mu(row.tolist(), L)) == pytest.approx(
                    abs(1.0 + cos2(L, row).sum()), abs=1e-12)


class TestProvesTie:
    def test_every_unit_class_is_checked(self):
        ## L = 5, valency 1: alpha_u = (1 + 2cos(2*pi*u*a/5))**2.  Phases [2]
        ## give |alpha_1| ~ 0.382 < 1/2 but |alpha_2| ~ 2.618, and phases [1]
        ## the two swapped; neither is a tie, so a check that drops either
        ## unit class calls one of them a tie
        def alpha(a, u):
            return (1 + 2 * math.cos(2 * math.pi * u * a / 5)) ** 2

        assert alpha(2, 1) < 0.5 < alpha(2, 2)
        assert alpha(1, 2) < 0.5 < alpha(1, 1)
        assert proves_tie([2], 5, 1) is False
        assert proves_tie([1], 5, 1) is False

    def test_rational_and_irrational_ties(self):
        ## L = 3: 1 + 3 * 2cos(2*pi/3) = -2 = -2*sqrt(2 - 1)
        assert proves_tie([1, 1, 1], 3, 2) is True
        ## L = 5: 1 + 2 + 5 * 2cos(2*pi/5) + 2cos(4*pi/5) = 2*sqrt(5)
        tie = [0, 1, 1, 1, 1, 1, 2]
        assert proves_tie(tie, 5, 6) is True
        assert proves_tie(tie, 5, 5) is False and proves_tie(tie, 5, 7) is False

    def test_rows_are_combined(self):
        tie, miss = [1, 1, 1], [0, 1, 1]
        assert proves_tie([tie, tie], 3, 2) is True
        assert proves_tie([miss, miss], 3, 2) is False
        assert proves_tie([tie, miss], 3, 2) is None
        assert proves_tie(np.empty((1, 0), dtype=np.int64), 3, 2) is False

    def test_refuses_what_doubles_cannot_prove(self):
        assert proves_tie([1], 2**31 + 11, 2) is None
        ## 10**9 + 7 is prime: 5e8 units, over DEFAULT_BUDGET
        assert proves_tie([1], 10**9 + 7, 2) is None
        assert proves_tie([1], 7, 10**13) is None

    @given(st.integers(3, 60), st.lists(st.integers(0, 59), max_size=8))
    def test_matches_the_margin_in_mpmath(self, L, phases):
        ## the valency nearest a tie: alpha = mu**2 - 4*(k - 1) is small.  A
        ## nonzero alpha has |alpha| > 1e-80 here: its norm is at least 1,
        ## and its other < 29 conjugates are below 600 in size
        phases = [k % L for k in phases]
        mu = abs(1.0 + cos2(L, np.array(phases)).sum())
        valency = max(1, round(mu * mu / 4) + 1)
        with mp.workdps(120):
            exact = mp_abs_mu(phases, L) ** 2 - 4 * (valency - 1)
            assert proves_tie(phases, L, valency) is (abs(exact) < mp.mpf(10) ** -100)


class TestWindowEigenvalue:
    @given(st.integers(min_value=7, max_value=301).filter(lambda m: m % 2),
           st.data())
    def test_closed_form_matches_cosine_sum(self, m, data):
        l = data.draw(st.integers(min_value=1, max_value=(m - 2) // 2)
                      .map(lambda r: 2 * r + 1))
        j = data.draw(st.integers(min_value=1, max_value=m - 1))
        direct = eigenvalue(window_complement(m, l), j)
        assert window_eigenvalue(m, l, j) == pytest.approx(direct, abs=1e-9)

    def test_known_value_at_21(self):
        ## the window at covalency 9 stays under the bound at m = 21 even
        ## though the class as a whole does not (see the oracle tests)
        v = window_eigenvalue(21, 9, 1)
        assert v == pytest.approx(-6.54128481265453, abs=1e-12)
        assert abs(v) < ramanujan_bound(21, 9)

    def test_extended_precision_agrees(self):
        coarse = window_eigenvalue(35, 11, 1)
        fine = float(window_eigenvalue(35, 11, 1, digits=50))
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_rejects_even_covalency(self):
        with pytest.raises(ValidationError):
            window_eigenvalue(21, 8, 1)


class TestRamanujanPredicate:
    def test_bound_formula(self):
        assert ramanujan_bound(35, 11) == pytest.approx(2 * math.sqrt(23))

    def test_bound_rejects_zero_valency(self):
        with pytest.raises(ValidationError):
            ramanujan_bound(9, 9)

    def test_complete_graph_is_ramanujan(self):
        ## K_13: eigenvalues 12 and -1, far inside the bound
        d = is_ramanujan(CayleySet(13, frozenset({0})))
        assert d.is_ramanujan
        assert d.mu_max == pytest.approx(1.0)

    def test_window_violation_at_15(self):
        d = is_ramanujan(window_complement(15, 9))
        assert not d.is_ramanujan
        assert d.mu_max == pytest.approx(4.574329190217505, abs=1e-12)
        assert d.rb == pytest.approx(4.47213595499958, abs=1e-12)
        assert d.margin == pytest.approx(-0.10219323521792578, abs=1e-12)
        assert d.escalated is False and d.digits is None

    def test_decision_is_nonstrict(self):
        ## covalency m-2 keeps a single pair: the graph is a cycle, whose
        ## eigenvalues 2*cos(2*pi*j*d/m) approach the bound 2 only from
        ## below, so every decision here must come out Ramanujan
        for m in (5, 7, 9):
            for d in range(1, (m - 1) // 2 + 1):
                if math.gcd(d, m) != 1:
                    continue
                kept = CayleySet(m, frozenset(
                    b for b in range(m) if b not in (d, m - d)))
                assert is_ramanujan(kept).is_ramanujan

    @given(cayley_sets(max_m=101))
    def test_verdict_matches_spectrum(self, cs):
        d = is_ramanujan(cs)
        sp = spectrum(cs)
        if abs(sp.rb - sp.mu_max) > 1e-7:
            assert d.is_ramanujan == (sp.mu_max <= sp.rb)
