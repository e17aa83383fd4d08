"""The classifier: kinds, verdicts, thresholds, orderings, profiles."""

import importlib
import math
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ramcirc import golden, precision
from ramcirc.abelian import AbelianGroup, abelian_hat_l
from ramcirc.bounds import (
    C_OFFSETS,
    K_MIN,
    NOT_IN_J,
    SMALL_WINDOW,
    CandidateWitness,
    in_candidate_set,
    trivial_bound,
    trivial_bound_unchecked,
    window_margin,
)
from ramcirc.classify import (
    _SCAN_CHUNK,
    REGIME_ORDERS,
    ProfilePoint,
    SpectralOrdering,
    Thresholds,
    Verdict,
    classify,
    count_exceptionals,
    exceptional_orders,
    ordinary_witness,
    profile_point,
    rho_e,
    scan_range,
    semiprime_candidates,
    spectral_ordering,
    thresholds,
)
from ramcirc.errors import ValidationError
from ramcirc.numtheory import Factorization, SeriesEstimate, factorize, family_eval, is_prime
from ramcirc.oracle import ClassMax, CrosscheckReport
from ramcirc.precision import AUTO_EXTENDED_THRESHOLD, RamanujanDecision
from ramcirc.spectra import CayleySet, Spectrum, check_modulus, eigenvalue, spectrum


class TestSmallOrderTable:
    def test_hat_l_matches_pinned_table(self):
        for m, (l0, hat) in golden.TABLE1.items():
            v = classify(m)
            assert v.hat_l == hat, m
            if l0 is not None:
                assert v.l0 == l0 == trivial_bound(m)

    def test_tiny_orders_are_all_ramanujan(self):
        for m in (3, 5, 7, 9, 11, 13):
            v = classify(m)
            assert v.verdict == "all_ramanujan"
            assert v.kind == "small"
            assert v.hat_l == m - 2
            assert v.epsilon is None


class TestKinds:
    def test_reference_kinds(self):
        expected = {
            15: ("II", "exceptional", 7),
            17: ("I", "exceptional", 7),
            21: ("II", "ordinary", 7),
            25: ("III", "exceptional", 9),
            27: ("other_composite", "ordinary", 7),
            31: ("outside_J", "ordinary", 9),
            35: ("II", "exceptional", 11),
            49: ("III", "exceptional", 13),
            85: ("other_composite", "ordinary", 15),
        }
        for m, (kind, verdict, hat) in expected.items():
            v = classify(m)
            assert (v.kind, v.verdict, v.hat_l) == (kind, verdict, hat), m

    def test_in_j_yet_ordinary(self):
        ## candidate membership is necessary for exceptional, not sufficient
        for m in (21, 27):
            v = classify(m)
            assert v.witness.member and v.verdict == "ordinary"

    def test_large_cofactor_semiprime_gets_witness_route(self):
        ## 85 = 5*17 with 17 > 4*5-5: the three-candidate formula does not
        ## apply and the multiples-of-5 witness decides instead
        v = classify(85)
        assert (v.p, v.q) == (5, 17)
        assert v.mu_hat == v.l0 + 2
        assert v.margin < 0

    def test_sweep_invariants(self):
        for v in scan_range(3, 5001):
            if v.m <= 13:
                continue
            assert v.epsilon in (0, 2)
            assert v.hat_l == v.l0 + v.epsilon
            if v.verdict == "exceptional":
                assert v.witness.member
                assert v.kind in ("I", "II", "III")
            if not v.witness.member:
                assert v.kind == "outside_J" and v.verdict == "ordinary"

    def test_json_schema(self):
        got = classify(35).to_json_dict()
        assert got == {
            "m": 35, "l0": 9,
            "inJ": {"member": True, "source": "quadratic", "c": -1, "k": 4},
            "kind": "II", "p": 5, "q": 7,
            "verdict": "exceptional", "epsilon": 2, "hatl": 11,
            "mu_hat": pytest.approx(9.310349041405155, abs=1e-12),
            "rb": pytest.approx(9.591663046625438, abs=1e-12),
            "margin": pytest.approx(0.2813140052202847, abs=1e-12),
            "near_threshold": False,
        }

    def test_rejects_even_or_too_small(self):
        with pytest.raises(ValidationError):
            classify(8)
        with pytest.raises(ValidationError):
            classify(1)

    def test_huge_order_needs_factors(self):
        pt = family_eval(64, 39, 5)
        with pytest.raises(ValidationError):
            classify(pt.m)
        v = classify(pt.m, factors=[pt.p, pt.q])
        assert (v.kind, v.verdict) == ("II", "ordinary")
        assert v.hat_l == v.l0
        assert v.margin == pytest.approx(-2.18e-13, rel=0.05)

    def test_factors_must_match(self):
        with pytest.raises(ValidationError):
            classify(35, factors=[3, 5])


def _j_members_below(x):
    """Every member of J below x: the small window and each k^2 + 5k + c."""
    return sorted(SMALL_WINDOW | {k * k + 5 * k + c for c in C_OFFSETS
                                  for k in range(K_MIN[c], math.isqrt(x))
                                  if k * k + 5 * k + c < x})


def _j_sample(seed, size):
    """Members k^2 + 5k + c of J in [2**40, 2**64), magnitude log-uniform."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        k = (math.isqrt(4 * int(2 ** rng.uniform(40, 64))) - 5) // 2
        m = k * k + 5 * k + rng.choice(C_OFFSETS)
        if 1 << 40 <= m < 1 << 64:
            out.append(m)
    return out


class TestLeastPrimeRoute:
    """classify reads the least prime factor and the primality of the
    cofactor; with a full factorisation supplied it must agree exactly."""

    def test_every_member_below_4e5(self):
        members = _j_members_below(4 * 10 ** 5)
        assert len(members) > 3000
        for m in members:
            assert in_candidate_set(m).member, m
            assert classify(m) == classify(m, factors=factorize(m)), m

    def test_seeded_sample_above_2_40(self):
        seen = set()
        for m in _j_sample(7, 1000):
            v = classify(m)
            assert v == classify(m, factors=factorize(m)), m
            seen.add((v.kind, v.q is None))
            if v.kind == "II":
                assert 1000 < v.p < v.q
        assert {("I", True), ("II", False), ("other_composite", False),
                ("other_composite", True)} <= seen

    def test_fields_from_independent_arithmetic(self):
        ## each field of an other_composite or kind I record against its own
        ## arithmetic, so that a field stored in the wrong position fails
        import mpmath as mp
        kinds = {"I": 0, "other_composite": 0}
        for m in _j_sample(7, 1000):
            v = classify(m)
            if v.kind not in kinds:
                continue
            kinds[v.kind] += 1
            fac = factorize(m)
            l0 = trivial_bound(m)
            assert (v.m, v.l0, v.witness) == (m, l0, in_candidate_set(m))
            assert v.near_threshold is None
            if v.kind == "I":
                assert fac.is_prime
                assert (v.verdict, v.epsilon, v.hat_l) == ("exceptional", 2, l0 + 2)
                assert v.p is None and v.q is None
                with mp.workdps(60):
                    mu = mp.sinpi(mp.mpf(l0 + 2) / m) / mp.sinpi(mp.mpf(1) / m)
                    rb = 2 * mp.sqrt(m - l0 - 3)
                    assert v.mu_hat == pytest.approx(float(mu), rel=1e-15)
                    assert v.rb == pytest.approx(float(rb), rel=1e-15)
                    assert v.margin == pytest.approx(float(rb - mu), rel=1e-9)
                assert v.margin > 0
                continue
            p = fac.factors[0][0]
            t = m // p
            assert (v.verdict, v.epsilon, v.hat_l) == ("ordinary", 0, l0)
            assert v.p == p
            assert v.q == (t if len(fac.prime_list()) == 2 else None)
            assert v.mu_hat == l0 + 2 and type(v.mu_hat) is float
            assert v.rb == 2 * math.sqrt(m - l0 - 3)
            assert v.margin == v.rb - v.mu_hat
        assert min(kinds.values()) > 20, kinds

    def test_no_rho_below_1000(self, monkeypatch):
        ## a least prime below 1000 is found by trial division, and the
        ## cofactor needs only is_prime, however hard it is to factor
        numtheory = importlib.import_module("ramcirc.numtheory")
        rho = numtheory._brent_rho
        calls = []

        def counting(n):
            calls.append(n)
            return rho(n)

        sample = []
        for m in _j_sample(11, 300):
            fac = factorize(m)
            p, t = fac.factors[0][0], m // fac.factors[0][0]
            ## factorize(m) would run rho on a composite cofactor t that
            ## has no prime factor below 1000
            hard = p < 1000 and t > 1 and not is_prime(t) \
                and factorize(t).factors[0][0] > 1000
            sample.append((m, p < 1000 or fac.is_prime, hard))
        assert sum(hard for *_, hard in sample) > 10
        monkeypatch.setattr(numtheory, "_brent_rho", counting)
        for m, no_rho, _ in sample:
            calls.clear()
            classify(m)
            assert (not calls) == no_rho, m

    def test_each_prime_proven_once(self, monkeypatch):
        ## least_prime_split reads the cofactor's primality from the primes
        ## that split m, so no argument is proven prime twice per order
        numtheory = importlib.import_module("ramcirc.numtheory")
        prove = numtheory.is_prime
        proven = []

        def counting(n):
            result = prove(n)
            if result:
                proven.append(n)
            return result

        monkeypatch.setattr(numtheory, "is_prime", counting)
        monkeypatch.setattr(importlib.import_module("ramcirc.classify"),
                            "is_prime", counting)
        total = 0
        for m in _j_sample(13, 500):
            proven.clear()
            classify(m)
            assert len(proven) == len(set(proven)), (m, proven)
            total += len(proven)
        assert total > 100

    def test_table_prime_cofactor_needs_no_test(self, monkeypatch):
        ## with p below 1000 the gcd that found p also shows whether the
        ## cofactor t = m/p holds a table prime, and then t is prime
        ## exactly when it is one: only a t free of them is tested
        numtheory = importlib.import_module("ramcirc.numtheory")
        prove = numtheory.is_prime
        calls = []

        def counting(n):
            calls.append(n)
            return prove(n)

        sample = []
        for m in _j_sample(17, 500):
            p = factorize(m).factors[0][0]
            if p < 1000:
                t = m // p
                sample.append((m, factorize(t).factors[0][0] < 1000))
        assert sum(held for _, held in sample) > 50
        assert sum(not held for _, held in sample) > 50
        monkeypatch.setattr(numtheory, "is_prime", counting)
        for m, held in sample:
            calls.clear()
            classify(m)
            assert len(calls) == (0 if held else 1), (m, calls)


class TestSemiprimeCandidates:
    def test_values_at_35(self):
        mu0, mu1, mu2 = semiprime_candidates(5, 7)
        assert mu0 == pytest.approx(9.310349041405155, abs=1e-12)
        assert mu1 == pytest.approx(7 + 4 * math.cos(math.tau / 5), abs=1e-12)
        assert mu2 == pytest.approx(5 + 6 * math.cos(math.tau / 7), abs=1e-12)

    def test_long_branch_activates(self):
        ## l0 + 2 > 3p switches mu2 to the two-class shape
        p, q = 7, 23
        l0 = trivial_bound(p * q)
        assert l0 + 2 > 3 * p
        _, _, mu2 = semiprime_candidates(p, q)
        expected = (p + 2 * p * math.cos(math.tau / q)
                    + (l0 + 2 - 3 * p) * math.cos(2 * math.tau / q))
        assert mu2 == pytest.approx(expected, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            semiprime_candidates(7, 5)
        with pytest.raises(ValidationError):
            semiprime_candidates(5, 5)
        with pytest.raises(ValidationError):
            semiprime_candidates(5, 17)
        with pytest.raises(ValidationError):
            semiprime_candidates(4, 7)


class TestOrdinaryWitness:
    def test_multiples_structure(self):
        ow = ordinary_witness(39)
        assert ow.value == trivial_bound(39) + 2 == 11
        assert ow.index == 13
        assert all(b % 3 == 0 for b in ow.cayley.complement)
        ## eigenvalue at index m/p is exactly -(l0 + 2)
        assert eigenvalue(ow.cayley, ow.index) == pytest.approx(-11.0, abs=1e-9)
        ## and it certifies non-Ramanujan by the integer inequality
        assert ow.value ** 2 > 4 * (39 - ow.value - 1)

    def test_witness_breaks_bound_across_sample(self):
        for m in (39, 45, 51, 85, 115, 1001):
            ow = ordinary_witness(m)
            sp = spectrum(ow.cayley)
            assert sp.mu_max > sp.rb

    def test_rejects_prime_and_small_cofactor(self):
        with pytest.raises(ValidationError):
            ordinary_witness(37)
        with pytest.raises(ValidationError):
            ordinary_witness(35)  # 7 < 4*5-3 on both decompositions


class TestThresholds:
    def test_pinned_strings(self):
        th = thresholds()
        got = tuple(golden.truncate(g, 4)
                    for g in (th.gamma1, th.gamma2, th.gamma3, th.gamma4))
        assert got == golden.TABLE2_GAMMAS
        for c in (-5, -3, -1, 1, 3, 5):
            assert golden.truncate(th.xbar1[c], 4) == golden.TABLE2_XBAR1[c]
            assert golden.truncate(th.gamma5[c], 4) == golden.TABLE2_GAMMA5[c]
            assert golden.truncate(th.xunder2[c], 4) == golden.TABLE2_XUNDER2[c]

    def test_cut_ordering(self):
        th = thresholds()
        assert th.gamma1 < th.gamma2 < th.gamma3 < th.gamma4
        for c in (-5, -3, -1, 1, 3, 5):
            assert th.gamma4 < th.gamma5[c]
            assert th.xbar1[c] < th.gamma5[c] < th.xunder2[c]

    def test_roots_satisfy_polynomials(self):
        th = thresholds()
        assert 2 * th.gamma1 ** 3 - 6 * th.gamma1 + 3 == pytest.approx(0, abs=1e-9)
        assert th.gamma2 ** 3 - 12 * th.gamma2 + 15 == pytest.approx(0, abs=1e-9)
        g3 = th.gamma3
        assert g3 ** 6 - 2 * g3 ** 5 + 8 * g3 - 10 == pytest.approx(0, abs=1e-9)
        assert 3 * th.gamma4 ** 3 - 6 * th.gamma4 ** 2 + 2 == pytest.approx(0, abs=1e-9)


class TestSpectralOrdering:
    def test_small_semiprime(self):
        so = spectral_ordering(5, 7)
        assert so.regime == 1
        assert so.predicted == ("mu1", "mu2", "mu0", "rb")
        assert so.matches

    def test_family_members_match_prediction(self):
        for p, q in ((109, 181), (1879, 3301), (4591, 8101)):
            assert spectral_ordering(p, q).matches

    def test_extended_route_matches(self):
        pt = family_eval(64, 39, 5)
        so = spectral_ordering(pt.p, pt.q, c=5)
        assert so.regime == 6
        assert so.matches

    def test_needs_offset_without_witness(self):
        ## 3*5 = 15 sits in the small window, no quadratic witness
        with pytest.raises(ValidationError):
            spectral_ordering(3, 5)
        assert spectral_ordering(3, 5, c=-1).regime == 1

    def test_regime_orders_are_adjacent_swaps(self):
        names = list(REGIME_ORDERS[1])
        for r in range(1, 6):
            a, b = REGIME_ORDERS[r], REGIME_ORDERS[r + 1]
            diff = [i for i in range(4) if a[i] != b[i]]
            assert len(diff) in (0, 2)


class TestProfiles:
    def test_reference_point(self):
        pt = profile_point(-5, 10, 1.8)
        assert pt.mu0 == pytest.approx(22.061565, abs=1e-6)
        assert pt.mu1 == pytest.approx(22.457248, abs=1e-6)
        assert pt.mu2 == pytest.approx(21.962867, abs=1e-6)
        assert pt.rb == pytest.approx(22.0, abs=1e-12)
        assert pt.d1 == pytest.approx(pt.mu1 - pt.rb)

    def test_branch_point_excluded(self):
        with pytest.raises(ValidationError):
            profile_point(-5, 10, 1.5)
        profile_point(-5, 10, 1.5000001)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            profile_point(-5, 10, 2.0)
        with pytest.raises(ValidationError):
            profile_point(-7, 10, 1.2)
        with pytest.raises(ValidationError):
            profile_point(-5, 0, 1.2)

    def test_band_index_keeps_the_radicand_in_doubles(self):
        ## k^2 + 3k + c - 4, under the bound's square root, must lie in
        ## [0, 2**1022); at k = 1 it is c, negative for c < 0
        for c in C_OFFSETS:
            if c < 0:
                with pytest.raises(ValidationError):
                    profile_point(c, 1, 1.2)
            else:
                assert profile_point(c, 1, 1.2).rb == 2 * math.sqrt(c)
            ## the largest accepted k evaluates to finite values; k + 1 is refused
            k = math.isqrt(1 << 1022)
            while k * k + 3 * k + c - 4 >= 1 << 1022:
                k -= 1
            for x in (1.0001, 1.25, 1.75, 1.9999):
                assert all(map(math.isfinite, profile_point(c, k, x)[2:])), (c, x)
            with pytest.raises(ValidationError):
                profile_point(c, k + 1, 1.25)

    @given(st.sampled_from((-5, -3, -1, 1, 3, 5)),
           st.integers(min_value=20, max_value=200),
           st.floats(min_value=1.05, max_value=1.95))
    def test_rb_depends_only_on_k_and_c(self, c, k, x):
        if abs(x - 1.5) < 1e-6:
            return
        pt = profile_point(c, k, x)
        assert pt.rb == pytest.approx(2 * math.sqrt(k * k + 3 * k + c - 4))


class TestCensus:
    def test_scan_range_shape(self):
        vs = scan_range(10, 30)
        assert [v.m for v in vs] == [11, 13, 15, 17, 19, 21, 23, 25, 27, 29]
        with pytest.raises(ValidationError):
            scan_range(30, 10)

    @pytest.mark.parametrize("lo, hi", [(4, 4), (1, 2), (-5, -3), (30, 30)])
    def test_range_without_odd_order_from_3_is_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match="empty scan range"):
            scan_range(lo, hi)

    def test_exceptional_census_to_100(self):
        assert tuple(exceptional_orders(100)) == golden.EXCEPTIONAL_ORDERS_100
        assert rho_e(100) == 18

    @pytest.mark.parametrize("x, want", [(3, []), (13, []), (14, []), (15, [15])])
    def test_census_below_the_first_exceptional_order(self, x, want):
        ## 15 is the first exceptional order, so rho_E is 0 below it
        assert exceptional_orders(x) == want
        assert rho_e(x) == len(want)

    def test_every_exceptional_is_candidate(self):
        for m in exceptional_orders(2000):
            assert in_candidate_set(m).member


## ramcirc/__init__ rebinds the name ramcirc.classify to the function, so
## the module that the batch tests patch is fetched by import path
classify_module = importlib.import_module("ramcirc.classify")


def _per_order(lo, hi):
    return [classify(m) for m in range(lo, hi + 1, 2)]


def _assert_same_records(got, want):
    """A Verdict is a named tuple, so == alone would pass plain tuples or a
    witness of another class: compare reprs and the exact types too."""
    assert got == want
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert all(type(v) is Verdict for v in got)
    assert all(type(v.witness) is CandidateWitness for v in got)


class TestScanBatches:
    """scan_range decides most orders in numpy batches; each Verdict must
    equal the one classify gives, field for field and bit for bit."""

    def test_every_odd_order_through_200001(self):
        _assert_same_records(scan_range(3, 200001), _per_order(3, 200001))

    def test_block_across_the_extended_threshold(self):
        lo, hi = AUTO_EXTENDED_THRESHOLD - 801, AUTO_EXTENDED_THRESHOLD + 801
        _assert_same_records(scan_range(lo, hi), _per_order(lo, hi))

    def test_range_longer_than_one_chunk(self, monkeypatch):
        lo = 10 ** 9 + 1
        hi = lo + 2 * (_SCAN_CHUNK + 300)
        chunk = classify_module._scan_chunk
        sizes = []

        def recording(a, b):
            sizes.append((b - a) // 2 + 1)
            return chunk(a, b)

        monkeypatch.setattr(classify_module, "_scan_chunk", recording)
        got = scan_range(lo, hi)
        assert sizes == [_SCAN_CHUNK, 301]
        _assert_same_records(got, _per_order(lo, hi))

    def test_wide_escalation_window_sends_every_order_to_classify(self, monkeypatch):
        monkeypatch.setattr(precision, "ESCALATION_MARGIN", 1e6)
        for lo, hi in ((3, 301), (10 ** 6 + 1, 10 ** 6 + 201)):
            _assert_same_records(scan_range(lo, hi), _per_order(lo, hi))

    def test_only_candidates_reach_classify(self, monkeypatch):
        lo, hi = 10 ** 6 + 1, 10 ** 6 + 40001
        members = [m for m in range(lo, hi + 1, 2) if in_candidate_set(m).member]
        assert members
        seen = []

        def counting(m, **kw):
            seen.append(m)
            return classify(m, **kw)

        monkeypatch.setattr(classify_module, "classify", counting)
        got = scan_range(lo, hi)
        assert seen == members
        _assert_same_records(got, _per_order(lo, hi))


class TestSharedWitness:
    """Every order outside J holds the one witness NOT_IN_J, so the census
    keeps one record per order, not a Verdict and a witness."""

    def test_batched_block_shares_not_in_j(self):
        got = scan_range(10 ** 6 + 1, 10 ** 6 + 40001)
        outside = [v for v in got if v.kind == "outside_J"]
        assert len(outside) > 19000
        assert all(v.witness is NOT_IN_J for v in outside)
        assert all(v.witness.member for v in got if v.kind != "outside_J")

    def test_scalar_paths_return_not_in_j(self):
        assert NOT_IN_J == CandidateWitness(False)
        assert in_candidate_set(31) is NOT_IN_J
        assert classify(9).witness is NOT_IN_J
        assert classify(31).witness is NOT_IN_J

    def test_bytes_kept_per_outside_j_order(self):
        ## one record per order: the Verdict, its two ints (hat_l is l0)
        ## and three floats, and a slot in the list.  A second record per
        ## order, such as a witness of its own, would add more than half
        ## of NOT_IN_J's size on top.
        lo, n = 10 ** 7 + 1, 20000
        scan_range(lo, lo + 200)  # lazy imports and caches stay out of the count
        tracemalloc.start()
        try:
            got = scan_range(lo, lo + 2 * (n - 1))
            kept = tracemalloc.get_traced_memory()[0] / n
        finally:
            tracemalloc.stop()
        v = next(v for v in got if v.kind == "outside_J")
        one_record = (sys.getsizeof(v) + sys.getsizeof(v.m) + sys.getsizeof(v.l0)
                      + 3 * sys.getsizeof(v.mu_hat) + 8)
        assert kept < one_record + sys.getsizeof(NOT_IN_J) / 2, (kept, one_record)


class TestVerdictRecord:
    """Verdict and CandidateWitness are immutable named tuples: fixed
    fields, hashable, picklable, built alike by the batch path and by
    classify."""

    def test_fields_cannot_be_set(self):
        v = classify(35)
        with pytest.raises(AttributeError):
            v.hat_l = 13
        with pytest.raises(AttributeError):
            v.witness.member = False

    def test_batched_hash_equals_per_order_hash(self):
        lo, hi = 10 ** 6 + 1, 10 ** 6 + 201
        got = scan_range(lo, hi)
        assert any(v.kind == "outside_J" for v in got)
        for i, m in enumerate(range(lo, hi + 1, 2)):
            assert hash(got[i]) == hash(classify(m))

    def test_pickle_round_trip(self):
        ## 35 is kind II; 10**6 + 1 is outside J, so its Verdict is batched
        for v in (classify(35), scan_range(10 ** 6 + 1, 10 ** 6 + 1)[0]):
            back = pickle.loads(pickle.dumps(v))
            assert back == v and repr(back) == repr(v)
            assert type(back) is Verdict and type(back.witness) is CandidateWitness
        back = pickle.loads(pickle.dumps(NOT_IN_J))
        assert back == NOT_IN_J and type(back) is CandidateWitness


def _records():
    """One instance of each frozen record type, with its repr at the time
    the records were dataclasses."""
    z15 = CayleySet.from_pairs(15, [1, 2, 3])
    z15_repr = "CayleySet(group=15, complement=frozenset({0, 1, 2, 3, 12, 13, 14}))"
    return [
        (AbelianGroup((3, 9)), "AbelianGroup(orders=(3, 9))"),
        (abelian_hat_l(AbelianGroup((5, 5))),
         "AbelianVerdict(group=AbelianGroup(orders=(5, 5)), l0=7, kind='prime_square_group', "
         "verdict='exceptional', epsilon=4, hat_l=11, h_star=3, cyclic=None)"),
        (CayleySet.from_pairs(AbelianGroup((3, 3)), [(1, 0)]),
         "CayleySet(group=AbelianGroup(orders=(3, 3)), "
         "complement=frozenset({(1, 0), (2, 0), (0, 0)}))"),
        (Spectrum(5, 2, (2.0, 0.5), 0.5, 2.0),
         "Spectrum(m=5, valency=2, values=(2.0, 0.5), mu_max=0.5, rb=2.0)"),
        (RamanujanDecision(True, 1.5, 2.0, 0.5, escalated=False),
         "RamanujanDecision(is_ramanujan=True, mu_max=1.5, rb=2.0, margin=0.5, "
         "escalated=False, digits=None, resolved=True, tie_proved=False)"),
        (Factorization(12, ((2, 2), (3, 1))), "Factorization(n=12, factors=((2, 2), (3, 1)))"),
        (family_eval(1, 7, 1), "FamilyPoint(a=1, y=7, c=1, p=163, q=277, k=210)"),
        (SeriesEstimate(0.5, 0.25, 100),
         "SeriesEstimate(value=0.5, oscillation=0.25, prime_limit=100)"),
        (ClassMax(15, 7, 4.5, 5.0, z15),
         f"ClassMax(m=15, l=7, mu=4.5, rb=5.0, witness={z15_repr})"),
        (CrosscheckReport(15, 3, 5, 7, 4.5, 4.5, 0.0, 5.0, "window", True, z15),
         "CrosscheckReport(m=15, p=3, q=5, l=7, mu_closed=4.5, mu_exhaustive=4.5, delta=0.0, "
         f"rb=5.0, family='window', agrees=True, witness={z15_repr})"),
        (ordinary_witness(33),
         "OrdinaryWitness(cayley=CayleySet(group=33, complement=frozenset("
         "{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30})), index=11, value=11)"),
        (Thresholds(1.25, 1.5, 1.75, 1.875, {1: 1.5}, {1: 1.25}, {1: 1.75},
                    1.25, 1.75, 1.5625, 3.0625),
         "Thresholds(gamma1=1.25, gamma2=1.5, gamma3=1.75, gamma4=1.875, gamma5={1: 1.5}, "
         "xbar1={1: 1.25}, xunder2={1: 1.75}, x1=1.25, x2=1.75, xi1=1.5625, xi2=3.0625)"),
        (SpectralOrdering(23, 37, 1, 1.25, 2, REGIME_ORDERS[2], REGIME_ORDERS[2], True),
         "SpectralOrdering(p=23, q=37, c=1, x=1.25, regime=2, "
         "predicted=('mu1', 'mu0', 'mu2', 'rb'), computed=('mu1', 'mu0', 'mu2', 'rb'), "
         "matches=True)"),
        (ProfilePoint(1, 7, 1.25, 10.0, 9.0, 8.0, 12.0, -2.0, -3.0, -4.0),
         "ProfilePoint(c=1, k=7, x=1.25, mu0=10.0, mu1=9.0, mu2=8.0, rb=12.0, "
         "d0=-2.0, d1=-3.0, d2=-4.0)"),
        (count_exceptionals(1, 12),
         "ExceptionalBuckets(c=1, k_max=12, type_i=(4, 6, 9, 10), type_ii=(), type_iii=())"),
    ]


class TestRecords:
    """Every other record is a NamedTuple too: the reprs of the former
    dataclasses are kept, == is tuple equality, and no field can be set."""

    def test_one_of_each_record_type(self):
        records = _records()
        assert len({type(r) for r, _ in records}) == len(records) == 15

    @pytest.mark.parametrize("record, text", _records(),
                             ids=[type(r).__name__ for r, _ in _records()])
    def test_repr_equality_and_no_assignment(self, record, text):
        assert repr(record) == text
        assert record == tuple(record)
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)


class TestModulusCheckedOnce:
    """classify checks m once, in in_candidate_set, and hands it to
    unchecked helpers; the public trivial_bound, window_margin and
    semiprime_candidates keep their checks."""

    @staticmethod
    def _checks(fn, *args) -> int:
        code, calls = check_modulus.__code__, []
        sys.setprofile(lambda frame, event, arg:
                       calls.append(1) if event == "call" and frame.f_code is code else None)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return len(calls)

    @pytest.mark.parametrize("m, kind", [
        (9, "small"), (101, "I"), (47873730318131, "I"), (15, "II"),
        (3128138740367, "II"), (25, "III"), (45, "outside_J"),
        (85, "other_composite"), (2927032301120969, "other_composite")])
    def test_one_check_per_classify(self, m, kind):
        assert classify(m).kind == kind
        assert self._checks(classify, m) == 1

    def test_public_helpers_still_check(self):
        for fn, args in ((trivial_bound, (8,)), (in_candidate_set, (1,)),
                         (window_margin, (9, 8)), (semiprime_candidates, (3.0, 5.0))):
            with pytest.raises(ValidationError):
                fn(*args)
        assert self._checks(trivial_bound, 45) == self._checks(in_candidate_set, 45) == 1


class TestSmallPrimePath:
    """On a quadratic member whose least prime is below 1000, classify takes
    l0 from the witness's band index, with no second square root, and
    finds the prime with plain loops, with no generator expression."""

    @staticmethod
    def _calls(m) -> tuple[int, int]:
        code, roots, genexprs = trivial_bound_unchecked.__code__, [], []

        def profile(frame, event, arg):
            if event == "call":
                if frame.f_code is code:
                    roots.append(1)
                elif frame.f_code.co_name == "<genexpr>":
                    genexprs.append(1)

        sys.setprofile(profile)
        try:
            classify(m)
        finally:
            sys.setprofile(None)
        return len(roots), len(genexprs)

    def test_no_second_root_and_no_generator(self):
        members = [m for m in _j_members_below(10 ** 5) + _j_sample(19, 400)
                   if in_candidate_set(m).source == "quadratic"
                   and factorize(m).factors[0][0] < 1000]
        assert sum(m > 1 << 40 for m in members) > 200
        kinds = set()
        for m in members:
            kind = classify(m).kind
            kinds.add(kind)
            if kind != "II":
                ## kind II's candidate maxima take l0 from their own (p, q)
                assert self._calls(m) == (0, 0), m
        assert {"other_composite", "II", "III"} <= kinds

    def test_other_orders_take_one_root(self):
        for m in (17, 27, 45, 10 ** 6 + 1, 2 ** 61 + 1):
            assert in_candidate_set(m).k is None
            assert self._calls(m)[0] == 1, m
