"""Trivial bound, window excess signs, and candidate-set membership."""

import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from ramcirc.bounds import (
    C_OFFSETS,
    CPRIMES,
    K_MIN,
    SMALL_WINDOW,
    CandidateWitness,
    deep_window_max_h,
    in_candidate_set,
    interval_index,
    negative_excess_window,
    trivial_bound,
    window_excess,
    window_violation,
)
from ramcirc.errors import ValidationError

odd = st.integers(min_value=1, max_value=5 * 10 ** 11).map(lambda n: 2 * n + 1)


def candidate_by_brute_force(m: int) -> bool:
    """Independent membership test straight from the defining equations."""
    if m in SMALL_WINDOW:
        return True
    for c in C_OFFSETS:
        s2 = 4 * m + 25 - 4 * c
        s = isqrt(s2)
        if s * s == s2 and (s - 5) % 2 == 0:
            k = (s - 5) // 2
            if k >= (19 if c == -5 else 4):
                return True
    return False


def six_root_witness(m: int) -> CandidateWitness:
    """Reference witness: one square test of 4m + c' for each of the six c'."""
    if m in SMALL_WINDOW:
        return CandidateWitness(True, "small_window")
    found = []
    for c in C_OFFSETS:
        s2 = 4 * m + CPRIMES[c]
        s = isqrt(s2)
        if s * s == s2 and (s - 5) // 2 >= K_MIN[c]:
            found.append(CandidateWitness(True, "quadratic", c, (s - 5) // 2))
    assert len(found) <= 1, found
    return found[0] if found else CandidateWitness(False)


class TestTrivialBound:
    @given(odd)
    def test_defining_inequalities(self, m):
        l0 = trivial_bound(m)
        assert l0 % 2 == 1
        assert (l0 + 2) ** 2 <= 4 * m < (l0 + 4) ** 2

    def test_exhaustive_small_range(self):
        for m in range(3, 100001, 2):
            l0 = trivial_bound(m)
            assert (l0 + 2) ** 2 <= 4 * m < (l0 + 4) ** 2

    def test_first_values(self):
        assert [trivial_bound(m) for m in (15, 21, 35, 55)] == [5, 7, 9, 11]

    def test_rejects_even(self):
        with pytest.raises(ValidationError):
            trivial_bound(10)

    @given(odd)
    def test_interval_index_tracks_l0(self, m):
        assert 2 * interval_index(m) + 1 == trivial_bound(m)


## a quadratic member k^2 + 5k + c below 2**64: the offset, then a band
## index from K_MIN[c] up to the last band whose members stay below 2**64
_quadratic = st.sampled_from(C_OFFSETS).flatmap(
    lambda c: st.tuples(st.integers(K_MIN[c], isqrt(1 << 64) - 3), st.just(c)))


class TestBandIdentity:
    """A quadratic member m = k^2 + 5k + c has 2k + 4 or 2k + 3 as isqrt(4m),
    so it lies in band k and l0 = 2k + 1: classify reads l0 from the
    witness's k instead of taking a second square root."""

    @staticmethod
    def _check(k, c):
        m = k * k + 5 * k + c
        w = in_candidate_set(m)
        assert (w.source, w.c, w.k) == ("quadratic", c, k), m
        assert trivial_bound(m) == 2 * w.k + 1, m
        assert interval_index(m) == k, m

    def test_every_member_to_band_10_4(self):
        for c in C_OFFSETS:
            for k in range(K_MIN[c], 10 ** 4 + 1):
                self._check(k, c)

    @given(_quadratic)
    def test_sample_below_2_64(self, kc):
        k, c = kc
        assert k * k + 5 * k + c < 1 << 64
        self._check(k, c)


class TestWindowExcess:
    def test_band_signs_match_windows(self):
        ## every odd m in band k: negative excess exactly on the window
        for k in range(4, 61):
            lo, hi = negative_excess_window(k)
            start = k * k + 3 * k + 3
            stop = k * k + 5 * k + 5
            for m in range(start, stop + 1, 2):
                assert interval_index(m) == k
                assert (window_excess(m) < 0) == (lo <= m <= hi)

    def test_low_bands_all_negative(self):
        for k in (1, 2, 3):
            start = k * k + 3 * k + 3
            stop = k * k + 5 * k + 5
            for m in range(start, stop + 1, 2):
                assert window_excess(m) < 0

    def test_window_endpoint_shift_at_19(self):
        assert negative_excess_window(18)[0] == 18 * 18 + 5 * 18 - 3
        assert negative_excess_window(19)[0] == 19 * 19 + 5 * 19 - 5

    def test_rejects_tiny_and_even(self):
        with pytest.raises(ValidationError):
            window_excess(3)
        with pytest.raises(ValidationError):
            window_excess(20)
        with pytest.raises(ValidationError):
            negative_excess_window(3)


class TestCandidateSet:
    def test_matches_brute_force(self):
        for m in range(3, 20002, 2):
            assert in_candidate_set(m).member == candidate_by_brute_force(m)

    def test_witness_fields(self):
        w = in_candidate_set(35)
        assert (w.member, w.source, w.c, w.k) == (True, "quadratic", -1, 4)
        assert w.cprime == 29
        assert in_candidate_set(15).source == "small_window"
        assert in_candidate_set(27).source == "small_window"
        w85 = in_candidate_set(85)
        assert (w85.c, w85.k) == (1, 7)

    def test_c_minus5_needs_k_at_least_19(self):
        ## 4*31 + 45 = 169 = 13^2 gives k = 4, below the c = -5 cutoff
        assert not in_candidate_set(31).member
        ## k = 21: 21^2 + 5*21 - 5 = 541
        w = in_candidate_set(541)
        assert (w.member, w.c, w.k) == (True, -5, 21)

    def test_nonmember(self):
        ## 4*43 + c' misses every square for c' in {45, 37, 29, 21, 13, 5}
        w = in_candidate_set(43)
        assert not w.member
        assert w.source is None and w.c is None and w.k is None

    def test_witness_uniqueness_over_range(self):
        ## every order gets a witness, and never two quadratic ones
        for m in range(3, 100001, 2):
            in_candidate_set(m)

    def test_one_root_matches_six_roots_small(self):
        for m in range(3, 2 * 10 ** 5, 2):
            assert in_candidate_set(m) == six_root_witness(m), m

    def test_one_root_matches_six_roots_random(self):
        rng = random.Random(20)
        for _ in range(10 ** 5):
            m = rng.randrange(3, 2 ** 64, 2)
            assert in_candidate_set(m) == six_root_witness(m), m

    def test_one_root_matches_six_roots_on_members(self):
        ## J members k^2 + 5k + c up to k = 2^32 - 3, the last k below
        ## 2^64 for every c, and their odd neighbours
        rng = random.Random(21)
        ks = list(range(1, 2000)) + list(range(2 ** 32 - 2002, 2 ** 32 - 2)) \
            + [rng.randrange(2000, 2 ** 32 - 2002) for _ in range(2000)]
        for k in ks:
            for c in C_OFFSETS:
                m = k * k + 5 * k + c
                for n in (m - 2, m, m + 2):
                    if n >= 3:
                        assert in_candidate_set(n) == six_root_witness(n), n
                if k >= K_MIN[c]:
                    w = in_candidate_set(m)
                    assert (w.member, w.source, w.c, w.k) == (True, "quadratic", c, k)

    def test_every_band_window_member_is_candidate(self):
        ## for k >= 19 the negative-excess window is exactly the candidate
        ## values k^2 + 5k + c, c in {-5..5}
        for k in range(19, 40):
            lo, hi = negative_excess_window(k)
            members = [m for m in range(lo, hi + 1, 2) if in_candidate_set(m).member]
            assert members == [k * k + 5 * k + c for c in C_OFFSETS]

    def test_cprime_table(self):
        assert CPRIMES == {-5: 45, -3: 37, -1: 29, 1: 21, 3: 13, 5: 5}


class TestDeepWindows:
    def test_max_h_definition(self):
        rng = random.Random(11)
        for m in [*range(3, 10 ** 5 + 1, 2),
                  *(rng.getrandbits(200) | 1 for _ in range(20000))]:
            h = deep_window_max_h(m)
            assert h >= 0
            assert m + 4 - 4 * h >= 0
            assert (m + 4 - 4 * h) ** 2 >= 16 * m
            assert (m + 4 - 4 * (h + 1)) ** 2 < 16 * m or m + 4 - 4 * (h + 1) < 0

    def test_violation_holds_across_range(self):
        ## the deep windows always break the bound in their stated range
        for m in (39, 41, 55, 101, 301, 1001):
            hmax = deep_window_max_h(m)
            for h in range(2, min(hmax, 6) + 1):
                assert window_violation(m, h)

    def test_violation_domain_errors(self):
        assert deep_window_max_h(39) == 4
        with pytest.raises(ValidationError):
            window_violation(37, 2)
        with pytest.raises(ValidationError):
            window_violation(39, 1)
        with pytest.raises(ValidationError):
            window_violation(39, 5)
