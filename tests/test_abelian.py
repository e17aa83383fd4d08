"""Edge-removal bounds on general odd abelian groups."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ramcirc import oracle, precision
from ramcirc.abelian import (
    AbelianGroup,
    abelian_hat_l,
    abelian_is_ramanujan,
    abelian_oracle,
    pp_excess,
)
from ramcirc.bounds import trivial_bound
from ramcirc.classify import classify
from ramcirc.errors import BudgetExceededError, ValidationError
from ramcirc.numtheory import sieve_primes
from ramcirc.spectra import CayleySet, eigenvalue, is_ramanujan, spectrum
from scan_reference import odd_abelian_groups


class TestGroup:
    def test_chain_validation(self):
        with pytest.raises(ValidationError):
            AbelianGroup(())
        with pytest.raises(ValidationError):
            AbelianGroup((4,))
        with pytest.raises(ValidationError):
            AbelianGroup((3, 5))  # 3 does not divide 5
        with pytest.raises(ValidationError):
            AbelianGroup((5, 3))

    def test_orders_become_ints(self):
        for orders in ([3, 9], [np.int64(3), np.int64(9)]):
            g = AbelianGroup(orders)
            assert g.orders == (3, 9)
            assert all(type(n) is int for n in g.orders)
            assert AbelianGroup._make([orders]) == g

    def test_replace_and_make_check_the_chain(self):
        g = AbelianGroup((3, 9))
        for bad in ((), (4,), (3, 5), (5, 3)):
            with pytest.raises(ValidationError):
                g._replace(orders=bad)
            with pytest.raises(ValidationError):
                AbelianGroup._make([bad])
        assert g._replace(orders=[np.int64(5)]).orders == (5,)

    def test_structure(self):
        g = AbelianGroup((3, 9))
        assert g.order == 27
        assert g.exponent == 9
        assert not g.is_cyclic
        assert len(g.elements()) == 27
        assert g.add((2, 8), (1, 1)) == (0, 0)
        assert g.negate((1, 2)) == (2, 7)

    def test_spans(self):
        g = AbelianGroup((3, 3))
        assert g.spans([(1, 0), (0, 1)])
        assert not g.spans([(1, 0), (2, 0)])  # a line, not the plane
        assert AbelianGroup((9,)).spans([(3,), (1,)])


class TestCayleySet:
    def test_from_pairs_symmetrizes(self):
        g = AbelianGroup((3, 3))
        s = CayleySet.from_pairs(g, [(1, 0)])
        assert set(s.complement) == {(0, 0), (1, 0), (2, 0)}
        assert s.covalency == 3
        assert s.valency == 6

    def test_rejects_nongenerating_kept_set(self):
        g = AbelianGroup((3, 3))
        ## removing everything outside a line leaves the line, which
        ## cannot span the plane
        line = {(0, 0), (1, 1), (2, 2)}
        rest = [t for t in g.elements() if t not in line]
        with pytest.raises(ValidationError):
            CayleySet.from_pairs(g, rest)

    def test_from_pairs_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            CayleySet.from_pairs(AbelianGroup((3, 3)), [(1, 0, 7)])

    def test_large_group_builds_without_bfs(self, monkeypatch):
        ## a kept set of more than |G|/3 elements always generates, so
        ## neither the BFS nor a kernel table runs on the construction path
        def refuse(self, gens):
            raise AssertionError("spans called")

        monkeypatch.setattr(AbelianGroup, "spans", refuse)
        s = CayleySet.from_pairs(AbelianGroup((301, 301)), [(1, 0)])
        assert s.covalency == 3 and s.m == 301 * 301
        d = is_ramanujan(s)
        assert d.is_ramanujan and not d.escalated
        ## a character trivial on the removed pair gives -(1 + 2)
        assert d.mu_max == pytest.approx(3.0, abs=1e-12)

    def test_huge_group_is_refused_before_any_table(self):
        g = AbelianGroup((30001, 30001))
        tracemalloc.start()
        try:
            s = CayleySet.from_pairs(g, [(1, 0)])
            with pytest.raises(BudgetExceededError):
                is_ramanujan(s)
            with pytest.raises(BudgetExceededError):
                abelian_is_ramanujan(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ## |G| is 9e8: one array over the group would take gigabytes
        assert peak < 1 << 20


class TestSpectrumValues:
    def test_trivial_character_gives_valency(self):
        g = AbelianGroup((3, 3))
        s = CayleySet.from_pairs(g, [(1, 0)])
        chars = [(0, 0), (1, 0), (0, 1), (1, 2)]
        assert eigenvalue(s, chars[0]) == s.valency

    def test_eigenvalue_rejects_wrong_length(self):
        s = CayleySet.from_pairs(AbelianGroup((3, 3)), [(1, 0)])
        with pytest.raises(ValidationError):
            eigenvalue(s, (1, 0, 5))

    def test_invariants(self):
        g = AbelianGroup((3, 9))
        s = CayleySet.from_pairs(g, [(1, 1), (0, 3)])
        vals = list(spectrum(s).values)
        assert len(vals) == 27
        assert math.fsum(vals) == pytest.approx(0.0, abs=1e-10)
        assert math.fsum(v * v for v in vals) == pytest.approx(
            27 * s.valency, rel=1e-12)

    def test_cyclic_case_matches_circulant_code(self):
        for m, reps in ((27, (1, 4, 6)), (45, (2, 7))):
            g = AbelianGroup((m,))
            s = CayleySet.from_pairs(g, [(r,) for r in reps])
            a = sorted(list(spectrum(s).values))
            b = sorted(spectrum(CayleySet.from_pairs(m, reps)).values)
            assert a == pytest.approx(b, abs=1e-9)

    def test_cycle_case_is_ramanujan(self):
        ## keeping one full-order pair in Z_9 gives a cycle: |lambda| is
        ## at most 2 cos(pi / 9) < 2 = rb
        g = AbelianGroup((9,))
        kept = [(1,), (8,)]
        s = CayleySet(g, tuple(t for t in g.elements() if t not in kept))
        assert abelian_is_ramanujan(s)

    def test_exact_tie_counts_as_ramanujan(self):
        ## Z_45 at covalency 19: the character of order 3 (j = 15) gives
        ## |mu| = 10 = 2*sqrt(25) exactly, a tie no precision resolves and
        ## the conjugates of the margin prove, with no mpmath pass
        pairs = (1, 3, 4, 6, 7, 9, 12, 15, 18)
        cyc = CayleySet.from_pairs(45, pairs)
        assert cyc.covalency == 19
        assert spectrum(cyc).values[15] == pytest.approx(-10.0, abs=1e-12)
        d = is_ramanujan(cyc)
        assert d.is_ramanujan
        assert d.escalated and d.tie_proved and d.digits is None
        assert d.margin == 0.0 and d.mu_max == d.rb == 10.0
        s = CayleySet.from_pairs(AbelianGroup((45,)), [(a,) for a in pairs])
        assert abelian_is_ramanujan(s)

    def test_tie_provenance_matches_the_int_form(self):
        pairs = (1, 3, 4, 6, 7, 9, 12, 15, 18)
        s = CayleySet.from_pairs(AbelianGroup((45,)), [(a,) for a in pairs])
        d = is_ramanujan(s)
        assert d == is_ramanujan(CayleySet.from_pairs(45, pairs))
        assert d.escalated and d.tie_proved and d.digits is None
        assert d.margin == 0.0 and d.mu_max == d.rb == 10.0
        assert abelian_is_ramanujan(s) is True

    def test_policy_reaches_noncyclic_sets(self, monkeypatch):
        s = CayleySet.from_pairs(AbelianGroup((5, 5)), [(1, 0), (0, 1)])
        plain = is_ramanujan(s)
        assert not plain.escalated
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", 1e9)
        d = is_ramanujan(s)
        assert d.escalated and d.resolved and d.digits is not None
        assert d.is_ramanujan == plain.is_ramanujan


## every non-cyclic group below 50 the oracle covers
HYPOTHESIS_GROUPS = [(3, 3), (3, 9), (5, 5), (3, 3, 3), (3, 15), (7, 7)]


@st.composite
def abelian_sets(draw):
    g = AbelianGroup(draw(st.sampled_from(HYPOTHESIS_GROUPS)))
    reps = [t for t in g.elements() if t < g.negate(t)]
    chosen = draw(st.lists(st.sampled_from(reps), unique=True, max_size=len(reps) - 1))
    try:
        return CayleySet.from_pairs(g, chosen)
    except ValidationError:
        ## the kept set lies in a proper subgroup
        assume(False)


def adjacency(cayley) -> np.ndarray:
    g = cayley.group
    elements = g.elements()
    index = {e: i for i, e in enumerate(elements)}
    a = np.zeros((g.order, g.order))
    for i, e in enumerate(elements):
        for s in elements:
            if s not in cayley.complement:
                a[i, index[g.add(e, s)]] = 1.0
    return a


class TestMergedSpectrum:
    @given(abelian_sets())
    def test_matches_dense_eigensolver(self, cs):
        values = spectrum(cs).values
        dense = np.linalg.eigvalsh(adjacency(cs))
        assert np.allclose(np.sort(values), dense, atol=1e-8)
        g = cs.group
        for i, chi in enumerate(g.elements()):
            assert values[i] == values[g.elements().index(g.negate(chi))]


class TestPackedExcess:
    def test_sign_table(self):
        ## layer 1 goes positive from p = 19, layer 2 from p = 7,
        ## layer 3 everywhere
        for p in [int(q) for q in sieve_primes(199)] :
            if p < 5:
                continue
            assert (pp_excess(p, 1) > 0) == (p >= 19)
            assert (pp_excess(p, 2) > 0) == (p >= 7)
            assert pp_excess(p, 3) > 0

    def test_domain(self):
        with pytest.raises(ValidationError):
            pp_excess(4, 1)
        with pytest.raises(ValidationError):
            pp_excess(3, 1)
        with pytest.raises(ValidationError):
            pp_excess(5, 0)
        with pytest.raises(ValidationError):
            pp_excess(5, 5)  # layer does not fit beside a length-5 line


class TestHatL:
    def test_cyclic_falls_back_to_classifier(self):
        v = abelian_hat_l(AbelianGroup((27,)))
        assert (v.kind, v.hat_l) == ("cyclic", 7)
        assert v.cyclic is not None and v.cyclic.m == 27
        v45 = abelian_hat_l(AbelianGroup((45,)))
        assert (v45.kind, v45.hat_l) == ("cyclic", 11)

    def test_prime_square_groups(self):
        v33 = abelian_hat_l(AbelianGroup((3, 3)))
        assert (v33.kind, v33.verdict, v33.hat_l) == (
            "prime_square_group", "all_ramanujan", 7)
        v55 = abelian_hat_l(AbelianGroup((5, 5)))
        assert (v55.verdict, v55.epsilon, v55.hat_l, v55.h_star) == (
            "exceptional", 4, 11, 3)
        v77 = abelian_hat_l(AbelianGroup((7, 7)))
        assert (v77.epsilon, v77.hat_l, v77.h_star) == (2, 13, 2)
        for p in (19, 23, 199):
            v = abelian_hat_l(AbelianGroup((p, p)))
            assert (v.verdict, v.epsilon, v.h_star) == ("ordinary", 0, 1)

    def test_midrange_prime_squares_get_one_step(self):
        for p in (7, 11, 13, 17):
            v = abelian_hat_l(AbelianGroup((p, p)))
            assert v.hat_l == v.l0 + 2

    def test_generic_noncyclic_is_ordinary(self):
        for orders in ((3, 9), (3, 3, 3), (3, 15), (5, 15)):
            v = abelian_hat_l(AbelianGroup(orders))
            assert (v.kind, v.verdict) == ("noncyclic_generic", "ordinary")
            assert v.hat_l == v.l0

    def test_json_shape(self):
        got = abelian_hat_l(AbelianGroup((5, 5))).to_json_dict()
        assert got == {
            "orders": [5, 5], "m": 25, "l0": 7,
            "kind": "prime_square_group", "verdict": "exceptional",
            "epsilon": 4, "hatl": 11, "h_star": 3, "cyclic": None,
        }


class TestOracle:
    def test_theory_matches_exhaustion(self):
        targets = {
            (3, 3): 7,
            (5, 5): 11,
            (7, 7): 13,
            (3, 9): 7,
            (3, 3, 3): 7,
            (27,): 7,
            (3, 15): 11,
            (45,): 11,
        }
        for orders, hat in targets.items():
            g = AbelianGroup(orders)
            assert abelian_hat_l(g).hat_l == hat, orders
            assert abelian_oracle(g) == hat, orders

    def test_z3xz3_top_class_is_empty(self):
        ## covalency 7 keeps a single negation pair, which spans only a
        ## line; connectivity empties the class, so it passes vacuously
        g = AbelianGroup((3, 3))
        singles = [t for t in g.elements() if t != (0, 0)]
        for t in singles:
            rest = [u for u in singles if u not in (t, g.negate(t))]
            with pytest.raises(ValidationError):
                CayleySet.from_pairs(g, rest)

    def test_every_noncyclic_group_to_10001(self, monkeypatch):
        ## every divisibility chain of two or more odd factors >= 3 with
        ## product at most 10001; the rows of the pair table decide every
        ## class climbed, with no scan, even on Z_p x Z_p for
        ## 11 <= p <= 31, whose l0 + 2 classes hold more than 1e7 sets
        monkeypatch.setattr(oracle, "enumerate_class", _no_enumeration)
        assert _agreeing_noncyclic_groups(10001) == 1581
        for p in (11, 13, 17, 19, 23, 29, 31):
            l0 = trivial_bound(p * p)
            assert math.comb((p * p - 1) // 2, (l0 + 1) // 2) > 10 ** 7
            assert abelian_oracle(AbelianGroup((p, p))) == (
                l0 + 2 if p <= 17 else l0), p

    def test_groups_of_one_order_and_exponent_share_their_rows(self):
        ## a character of order e takes each e-th root of unity |G|/e
        ## times, so the rows, and the answer, depend on (|G|, L) alone;
        ## the divisors of L are among those of |G|, so no non-cyclic
        ## group answers below Z_|G|
        first = {}
        for orders in odd_abelian_groups(10001):
            if len(orders) == 1:
                continue
            n = math.prod(orders)
            t = oracle.row_table(orders, (n - 1) // 2, 10**8)
            got = (t.sides.tobytes(), t.cos.tobytes(),
                   abelian_oracle(AbelianGroup(orders)))
            assert got == first.setdefault((n, orders[-1]), got), orders
            assert got[2] >= classify(n).hat_l, orders
        assert len(first) < 1581

    @pytest.mark.slow
    def test_every_noncyclic_group_to_30001(self, monkeypatch):
        monkeypatch.setattr(oracle, "enumerate_class", _no_enumeration)
        assert _agreeing_noncyclic_groups(30001) == 4803


def _no_enumeration(*args):
    raise AssertionError("enumerated a class")


def _agreeing_noncyclic_groups(limit):
    """abelian_oracle == abelian_hat_l on every non-cyclic odd abelian group
    of order at most limit; returns how many groups were checked."""
    groups = [g for g in odd_abelian_groups(limit) if len(g) >= 2]
    for orders in groups:
        g = AbelianGroup(orders)
        assert abelian_oracle(g) == abelian_hat_l(g).hat_l, orders
    return len(groups)
