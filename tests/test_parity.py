import tracemalloc
from functools import cache
from itertools import chain
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copartitions import (
    CpParams,
    ProgressionFamily,
    TWO_SQUARES,
    X2_PLUS_3Y2,
    andrews_mod5_check,
    both_parities_prefix_check,
    brute_force_representable,
    copartition_parity,
    count_copartitions,
    density_report,
    even_guarantee_314,
    even_guarantee_516,
    form_equivalence_check,
    form_equivalence_sweep_check,
    format_proportion,
    is_prime,
    is_sum_of_two_squares,
    is_x2_plus_3y2,
    lacunary_odd_support_check,
    odd_term_count_check,
    pentagonal_support,
    theta_product_identity_check,
    verify_even_progression,
)
from copartitions import parity, series, stats
from copartitions.series import ParitySeries

from oracles import triple_product_theta


def test_is_prime():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


FORMS = (TWO_SQUARES, X2_PLUS_3Y2)
# (unit, shift): single values, then the cp314 and cp516 progressions
PROGRESSIONS = ((1, 1), (24, 5), (6, 1))
BOUNDARY = (0, 1, parity._BLOCK - 1, parity._BLOCK, parity._BLOCK + 1)


def sieve_flags(form, unit, shift, count):
    return [bool(f) for f in chain.from_iterable(parity._sieve(form, unit, shift, count))]


@cache
def brute_prefix(form, unit, shift):
    # brute search on the progression's first _BLOCK + 2 values, once per test run
    return [brute_force_representable(unit * k + shift, form) for k in range(parity._BLOCK + 2)]


class TestProgressionSieve:
    @given(st.sampled_from(FORMS), st.sampled_from(PROGRESSIONS),
           st.sampled_from(BOUNDARY) | st.integers(0, parity._BLOCK + 1))
    @settings(max_examples=60, deadline=None)
    def test_flags_equal_brute_search(self, form, progression, count):
        assert sieve_flags(form, *progression, count) == brute_prefix(form, *progression)[:count]

    @given(st.sampled_from(FORMS), st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 5),
           st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    @example(TWO_SQUARES, 3, 2, 5)          # 9 * 5: an even power of a bad prime
    @example(TWO_SQUARES, 7, 1, 13)         # 7 * 13: an odd power
    @example(TWO_SQUARES, 7, 2, 1)          # 49
    @example(X2_PLUS_3Y2, 2, 3, 7)          # 8 * 7
    @example(X2_PLUS_3Y2, 5, 2, 31)         # 25 * 31
    @example(TWO_SQUARES, 2, 1, 7)          # 14 = 2 * 7: 2 is in no bad class, but is sieved
    @example(X2_PLUS_3Y2, 3, 1, 5)          # 15 = 3 * 5: so is 3
    def test_single_values_equal_brute_search(self, form, p, e, k):
        # a bad or good prime to the power e times k, the sieve of length 1
        n = p ** e * k
        assert sieve_flags(form, 1, n, 1) == [brute_force_representable(n, form)]

    @pytest.mark.parametrize("form, unit, shift, count, cofactor", [
        (TWO_SQUARES, 1, 3 * 10007, 1, 10007),      # 10007 = 3 mod 4: not represented
        (TWO_SQUARES, 1, 2 * 10009, 1, 10009),      # 10009 = 1 mod 4: represented
        (X2_PLUS_3Y2, 1, 7 * 10007, 1, 10007),      # 10007 = 2 mod 3: not represented
        (TWO_SQUARES, 24, 5, 1000, 23981),          # the last value is the prime 24 * 999 + 5
        (X2_PLUS_3Y2, 6, 1, 997, 139),              # the last value is 6 * 996 + 1 = 43 * 139
    ])
    def test_a_cofactor_prime_above_the_root_decides_by_its_class(self, form, unit, shift,
                                                                   count, cofactor):
        value = unit * (count - 1) + shift
        assert value % cofactor == 0 and is_prime(cofactor) and cofactor > isqrt(value)
        assert sieve_flags(form, unit, shift, count)[-1] == brute_force_representable(value, form)

    @given(st.sampled_from(FORMS), st.sampled_from(PROGRESSIONS), st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_the_recorder_counts_the_values_and_prime_hits(self, form, progression, count):
        # one block, sieved by the primes up to the root of its top value that
        # are not 1 mod the form's modulus: those never clear a flag
        unit, shift = progression
        modulus = parity._FORMS[form][1]
        values = range(shift, unit * count + shift, unit)
        primes = [p for p in range(2, isqrt(values[-1]) + 1) if is_prime(p) and p % modulus != 1]
        with stats.recording() as counts:
            sieve_flags(form, unit, shift, count)
        assert counts["sieve_values"] == count
        assert counts["sieve_hits"] == sum(1 for v in values for p in primes if v % p == 0)

    @pytest.mark.parametrize("count", [4097, 5001, 2 * parity._BLOCK + 1])
    @pytest.mark.parametrize("form, unit, shift", [(TWO_SQUARES, 24, 5), (X2_PLUS_3Y2, 6, 1)])
    def test_each_block_is_sieved_by_the_primes_up_to_its_own_root(self, form, unit, shift,
                                                                   count):
        modulus = parity._FORMS[form][1]
        values = range(shift, unit * count + shift, unit)
        hits = 0
        for start in range(0, count, parity._BLOCK):
            block = values[start:start + parity._BLOCK]
            primes = [p for p in range(2, isqrt(block[-1]) + 1)
                      if is_prime(p) and p % modulus != 1]
            hits += sum(1 for v in block for p in primes if v % p == 0)
        with stats.recording() as counts:
            sieve_flags(form, unit, shift, count)
        assert counts["sieve_hits"] == hits

    def test_one_block_of_flags_at_a_time(self):
        blocks = list(parity._sieve(TWO_SQUARES, 24, 5, 2 * parity._BLOCK + 1))
        assert [len(b) for b in blocks] == [parity._BLOCK, parity._BLOCK, 1]


class TestRepresentabilityPredicates:
    def test_two_squares_examples(self):
        assert is_sum_of_two_squares(5)
        assert not is_sum_of_two_squares(21)
        assert is_sum_of_two_squares(45)

    def test_x2_3y2_examples(self):
        assert is_x2_plus_3y2(7)
        assert is_x2_plus_3y2(31)
        assert not is_x2_plus_3y2(55)

    def test_brute_examples(self):
        assert brute_force_representable(25, TWO_SQUARES)
        assert not brute_force_representable(21, TWO_SQUARES)
        assert brute_force_representable(7, X2_PLUS_3Y2)
        with pytest.raises(ValueError):
            brute_force_representable(10, "x2_5y2")

    @pytest.mark.parametrize("n, factors, two_squares, x2_3y2", [
        (3 * 2 ** 46, {2: 46, 3: 1}, False, True),     # 0^2 + 3 (2^23)^2
        (10 ** 14 + 7, {43: 1, 1103: 1, 2083: 1, 1012201: 1}, False, False),
        (5 ** 20 * 3, {3: 1, 5: 20}, False, True),     # 0^2 + 3 (5^10)^2
        (2 ** 41 * 13, {2: 41, 13: 1}, True, False),
    ])
    def test_large_values_by_their_factors(self, n, factors, two_squares, x2_3y2):
        # far beyond brute search; the factors decide, and no prime table is built
        assert n == prod(p ** e for p, e in factors.items())
        assert all(is_prime(p) for p in factors)
        tracemalloc.start()
        try:
            assert is_sum_of_two_squares(n) is two_squares
            assert is_x2_plus_3y2(n) is x2_3y2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @given(st.sampled_from(FORMS), st.integers(1, 10 ** 9))
    @example(TWO_SQUARES, 31607 ** 2)               # a bad prime squared, the table's end
    @example(X2_PLUS_3Y2, 31607 * 31627)            # two primes either side of the root
    @settings(max_examples=40, deadline=None)
    def test_single_values_equal_the_sieve_of_length_1(self, form, n):
        assert parity._represents(form, n) == sieve_flags(form, 1, n, 1)[0]

    def test_agreement_on_residue_classes(self):
        # full 10^5 sweep lives in the acceptance suite
        for n in range(5, 10 ** 4, 24):
            assert is_sum_of_two_squares(n) == brute_force_representable(n, TWO_SQUARES)
        for n in range(1, 10 ** 4, 6):
            assert is_x2_plus_3y2(n) == brute_force_representable(n, X2_PLUS_3Y2)


class TestFormEquivalence:
    def test_examples(self):
        assert form_equivalence_check(7)
        assert form_equivalence_check(1)
        assert form_equivalence_check(55)

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            form_equivalence_check(8)

    def test_small_sweep(self):
        assert all(form_equivalence_check(n) for n in range(1, 1501, 6))

    @pytest.mark.parametrize("n_max", [0, 1, 6, 7, 13, 1500])
    def test_sweep_checks_every_index_1_mod_6(self, n_max):
        check = form_equivalence_sweep_check(n_max)
        indices = range(1, n_max + 1, 6)
        assert check.passed and check.vacuous == (not indices)
        assert check.checked == len(indices)
        assert check.rows == ({"n_max": n_max, "checked": len(indices),
                               "status": "pass" if indices else "vacuous",
                               "counterexample": None},)

    def test_sweep_sides_are_the_per_index_brute_searches(self, monkeypatch):
        compared = []
        real = parity._compare

        def spy(left, right, row, mask, key):
            compared.append((left, right, mask))
            return real(left, right, row, mask, key)

        monkeypatch.setattr(parity, "_compare", spy)
        assert form_equivalence_sweep_check(3700)
        [(direct, restricted, mask)] = compared
        assert direct.trunc == restricted.trunc == mask.trunc == 3700
        assert mask.bits == sum(1 << n for n in range(1, 3701, 6))
        for n in range(1, 3701):
            assert direct.bit(n) == brute_force_representable(n, X2_PLUS_3Y2), n
            assert restricted.bit(n) == parity._restricted_form(n), n


class TestEvenGuarantees:
    def test_values_314(self):
        assert even_guarantee_314(3)          # 77 = 7 * 11
        assert not even_guarantee_314(0)      # 5 = 1 + 4

    def test_values_516(self):
        assert not even_guarantee_516(4)      # 25 = 5^2
        assert even_guarantee_516(9)          # 55 = 5 * 11
        assert not even_guarantee_516(5)      # 31 prime, 1 mod 3

    def test_sound_on_prefix(self):
        n = 1500
        p314 = copartition_parity(CpParams(3, 1, 4), n)
        p516 = copartition_parity(CpParams(5, 1, 6), n)
        for k in range(n + 1):
            if even_guarantee_314(k):
                assert p314.bit(k) == 0
            if even_guarantee_516(k):
                assert p516.bit(k) == 0

    def test_sufficient_only(self):
        # an even value the guarantee does not see
        assert count_copartitions(CpParams(5, 1, 6), 5) == 2
        assert not even_guarantee_516(5)


class TestProgressionFamilies:
    def test_known_residues(self):
        assert ProgressionFamily("cp314", 7).residues == (3, 17, 24, 31, 38, 45)
        assert ProgressionFamily("cp314", 11).residues == (3, 14, 36, 47, 58, 69, 80, 91, 102, 113)
        assert ProgressionFamily("cp516", 5).residues == (9, 14, 19, 24)
        assert ProgressionFamily("cp516", 11).residues == (9, 31, 42, 53, 64, 75, 86, 97, 108, 119)

    def test_delta_inverts_the_unit(self):
        fam = ProgressionFamily("cp314", 7)
        assert fam.modulus == 49 and (24 * fam.delta) % 49 == 1
        fam = ProgressionFamily("cp516", 5)
        assert fam.modulus == 25 and (6 * fam.delta) % 25 == 1

    def test_rejects_wrong_primes(self):
        with pytest.raises(ValueError):
            ProgressionFamily("cp314", 5)     # 5 = 1 mod 4
        with pytest.raises(ValueError):
            ProgressionFamily("cp314", 9)     # not prime
        with pytest.raises(ValueError):
            ProgressionFamily("cp516", 7)     # 7 = 1 mod 3
        with pytest.raises(ValueError):
            ProgressionFamily("cp400", 7)

    def test_the_class_is_tested_before_primality(self, monkeypatch):
        # 2^61 - 1 is 1 mod 3 and 3 divides 24: refused without trial division
        def no_trial_division(p):
            raise AssertionError("is_prime ran")

        monkeypatch.setattr(parity, "is_prime", no_trial_division)
        with pytest.raises(ValueError) as refused:
            ProgressionFamily("cp516", 2 ** 61 - 1)
        assert str(refused.value) == \
            "cp516 needs a prime p = 2 mod 3 that does not divide 6, got 2305843009213693951"
        with pytest.raises(ValueError) as refused:
            ProgressionFamily("cp314", 3)
        assert str(refused.value) == "cp314 needs a prime p = 3 mod 4 that does not divide 24, got 3"

    def test_primes_dividing_the_unit_are_rejected(self):
        with pytest.raises(ValueError, match="does not divide 24"):
            ProgressionFamily("cp314", 3)     # 3 = 3 mod 4, but 3 | 24
        with pytest.raises(ValueError, match="does not divide 6"):
            ProgressionFamily("cp516", 2)     # 2 = 2 mod 3, but 2 | 6

    def test_residues_are_derived_not_stored(self):
        fam = ProgressionFamily("cp314", 19)
        stored = [name for cls in ProgressionFamily.__mro__ for name in getattr(cls, "__slots__", ())]
        assert stored == ["family", "p"] and not hasattr(fam, "__dict__")
        assert fam == ProgressionFamily("cp314", 19)
        for r in fam.residues:
            assert (24 * r + 5) % 19 == 0 and (24 * r + 5) % 361 != 0

    def test_verify_even_progression(self):
        n = 2500
        parity = copartition_parity(CpParams(3, 1, 4), n)
        check = verify_even_progression(parity, 49, 3, n)
        assert check.passed and not check.vacuous
        # residue 0 mod 49 carries odd values
        check = verify_even_progression(parity, 49, 0, n)
        assert not check.passed and check.counterexample is not None
        assert check.counterexample % 49 == 0
        assert parity.bit(check.counterexample) == 1

    def test_vacuous_range(self):
        check = verify_even_progression(copartition_parity(CpParams(3, 1, 4), 10), 49, 45, 10)
        assert check.passed and check.vacuous

    def test_a_supplied_series_must_reach_n_even_for_an_empty_class(self):
        short = copartition_parity(CpParams(3, 1, 4), 2)
        with pytest.raises(ValueError, match="^supplied parity series stops at 2 < 3$"):
            verify_even_progression(short, 49, 45, 3)

    def test_residue_bounds(self):
        with pytest.raises(ValueError):
            verify_even_progression(copartition_parity(CpParams(3, 1, 4), 100), 49, 49, 100)


class TestDensityReport:
    def test_rounding_convention(self):
        assert format_proportion(1529, 2000) == "0.765"     # exact .7645 rounds away
        assert format_proportion(1, 2) == "0.500"
        assert format_proportion(999, 1000) == "0.999"
        assert format_proportion(1, 1) == "1.000"
        assert format_proportion(0, 7) == "0.000"
        with pytest.raises(ValueError):
            format_proportion(-1, 3)

    def test_counts_match_enumeration(self):
        params = CpParams(1, 1, 6)
        checkpoints = (10, 25, 40)
        report = density_report(params, checkpoints)
        for n, even in zip(checkpoints, report.even_counts):
            brute = sum(1 for k in range(1, n + 1)
                        if count_copartitions(params, k) % 2 == 0)
            assert even == brute

    def test_rounded_proportions(self):
        report = density_report(CpParams(3, 3, 4), (100, 200))
        # k / 100 has at most two decimals, so the three-decimal form is exact
        assert report.rounded[0] == f"{report.even_counts[0] / 100:.3f}"
        assert report.even_counts[0] <= report.even_counts[1]

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            density_report(CpParams(1, 1, 2), (200, 100))
        with pytest.raises(ValueError):
            density_report(CpParams(1, 1, 2), ())
        with pytest.raises(ValueError):
            density_report(CpParams(1, 1, 2), (0, 10))

    def test_supplied_parity_must_cover(self):
        p = copartition_parity(CpParams(1, 1, 2), 50)
        with pytest.raises(ValueError):
            density_report(CpParams(1, 1, 2), (100,), p)


class TestLacunaryOddSupport:
    def test_small_scales(self):
        assert lacunary_odd_support_check(1, 2000)
        assert lacunary_odd_support_check(3, 2000)

    def test_zero_window(self):
        assert lacunary_odd_support_check(1, 0)

    def test_rejects_even_scale(self):
        with pytest.raises(ValueError):
            lacunary_odd_support_check(2, 100)

    def test_odd_prefix_values(self):
        parity = copartition_parity(CpParams(1, 1, 2), 40)
        assert parity.odd_exponents() == [0, 4, 8, 20, 28]

    @given(st.integers(0, 7).map(lambda i: 2 * i + 1), st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_it_is_eq4_at_m_twice_a(self, a, n):
        # theta(a, 2a) is 1 mod 2: its terms for k and -k cancel
        fields = ("passed", "checked", "counterexample", "left", "right")
        lacunary = lacunary_odd_support_check(a, n)
        eq4 = theta_product_identity_check(a, 2 * a, n)
        assert [getattr(lacunary, f) for f in fields] == [getattr(eq4, f) for f in fields]
        assert series._odd_steps(a, 2 * a, n) == []


class TestThetaProductIdentity:
    def test_sample_pairs(self):
        assert theta_product_identity_check(1, 4, 600)
        assert theta_product_identity_check(3, 8, 600)
        # the a = m/2 case degenerates to the scaled pentagonal series
        assert theta_product_identity_check(1, 2, 600)

    def test_identity_pins_the_parity_prefix(self):
        # back-substitution in counting * theta = pentagonal indicator
        # rederives the counting parity without the expansion machinery;
        # pins the disputed m=12 reference cell to 995 evens in [1, 2000]
        a, m, n = 1, 12, 2000
        theta = triple_product_theta(a, m, n)
        marks = pentagonal_support(m, n)
        bits = [1]
        for k in range(1, n + 1):
            acc = 1 if k in marks else 0
            for j, c in enumerate(theta.coeffs[1:k + 1], start=1):
                if c & 1:
                    acc ^= bits[k - j]
            bits.append(acc)
        parity = copartition_parity(CpParams(a, m - a, m), n)
        assert bits == [parity.bit(k) for k in range(n + 1)]
        assert sum(1 for k in range(1, 2001) if bits[k] == 0) == 995

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            theta_product_identity_check(4, 4, 100)
        with pytest.raises(ValueError):
            theta_product_identity_check(0, 3, 100)


def test_identity_checks_read_the_sums(monkeypatch):
    # the theta quotient builds on the same identities, so a check that read
    # it would still pass with one bit of the sums flipped
    real_walk = series._level_product

    def flipped(quotient):
        # bit 450 of the walks that divide by theta's sparse terms (the theta
        # routes), or of those that do not (the sums, times theta for eq4)
        def walk(n, steps, *rest):
            product = real_walk(n, steps, *rest)
            if bool(steps) != quotient:
                return product
            return series.ParitySeries(n, product.bits ^ (1 << 450))
        return walk

    assert lacunary_odd_support_check(3, 900) and theta_product_identity_check(3, 8, 900)
    good = copartition_parity(CpParams(3, 5, 8), 900)
    # with the theta quotient wrong, the theta families are wrong and both checks still pass
    monkeypatch.setattr(series, "_level_product", flipped(True))
    assert copartition_parity(CpParams(3, 5, 8), 900).bits == good.bits ^ (1 << 450)
    assert lacunary_odd_support_check(3, 900) and theta_product_identity_check(3, 8, 900)
    monkeypatch.setattr(series, "_level_product", flipped(False))
    assert copartition_parity(CpParams(3, 5, 8), 900) == good
    lacunary = lacunary_odd_support_check(3, 900)
    eq4 = theta_product_identity_check(3, 8, 900)
    assert not lacunary and lacunary.counterexample == 450
    assert not eq4 and eq4.counterexample == 450


class TestOddTermCount:
    def test_sample_pairs(self):
        assert odd_term_count_check(1, 4, 12)
        assert odd_term_count_check(2, 5, 12)

    def test_block_convention_at_one(self):
        # the count at N=1 is a * 1: block 0 holds exponents 0..a-1
        assert odd_term_count_check(3, 8, 1)

    def test_the_product_holds_a_n_squared_odd_terms(self):
        # the count the check derives from its block layout, read once from the library's
        # theta(a, m)/(1 - q): a*N^2 odd terms through q^floor(m*N^2/2), every 2a < m <= 12
        for m in range(3, 13):
            top = m * 12 * 12 // 2
            for a in range(1, (m + 1) // 2):
                quotient = series._theta_times_mod2(a, m, [series.reciprocal(1, top + 1)], top)
                for n in range(1, 13):
                    assert quotient.count_odd(0, m * n * n // 2) == a * n * n, (a, m, n)

    def test_rejects_a_above_half(self):
        # at 2a = m block N starts at m*N^2/2 itself, so the window through
        # m*N^2/2 holds a*N^2 + 1 odd exponents and the count could never match
        for a, m in [(2, 3), (1, 2), (3, 6)]:
            with pytest.raises(ValueError, match="needs 1 <= a < m/2"):
                odd_term_count_check(a, m, 5)
        with pytest.raises(ValueError):
            odd_term_count_check(1, 4, 0)


class TestBothParities:
    def test_sample_pairs(self):
        assert both_parities_prefix_check(1, 4, 2000, 10)
        assert both_parities_prefix_check(1, 2, 2000, 10)

    def test_witness_threshold_can_fail(self):
        # only 5 odd indices at or below 28 for the (1,1,2) family
        assert not both_parities_prefix_check(1, 2, 28, 6)
        assert both_parities_prefix_check(1, 2, 28, 5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            both_parities_prefix_check(3, 3, 100, 1)


class TestAndrewsCongruence:
    def test_short_run(self):
        assert andrews_mod5_check(104, (4, 9))

    def test_rejects_unenumerable_sizes(self):
        with pytest.raises(ValueError):
            andrews_mod5_check(104, (5,))

    def test_divisibility_values(self):
        from copartitions import copartition_series
        series = copartition_series(CpParams(1, 1, 2), 54)
        assert series[4] == 5
        assert all(series[k] % 5 == 0 for k in range(4, 55, 5))
