"""Sequences, F-factorials, F-nomials, admissibility."""

import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import SequenceError, const, custom, f_factorial, f_falling, fib, \
    fnomial, from_file, gauss, is_cobweb_admissible, nat, preset


def test_fib_listing():
    F = fib()
    assert F.prefix(8) == [1, 1, 2, 3, 5, 8, 13, 21]
    assert F.value(5) == 5
    assert F.value(4) == 3


def test_nat_is_identity():
    F = nat()
    assert all(F.value(k) == k for k in range(1, 20))


def test_gauss_values():
    F = gauss(2)
    # 1 + 2 + 4 evaluated by hand
    assert F.value(3) == 7
    assert F.prefix(5) == [1, 3, 7, 15, 31]
    G = gauss(3)
    assert G.prefix(4) == [1, 4, 13, 40]


def test_const_values():
    assert const(3).prefix(4) == [3, 3, 3, 3]


def test_custom_is_finite():
    F = custom([2, 3])
    assert F.value(2) == 3
    with pytest.raises(SequenceError):
        F.value(3)


@pytest.mark.parametrize("bad", [[], [0], [1, -2], [1, 1.5]])
def test_bad_custom_values(bad):
    with pytest.raises(SequenceError):
        custom(bad)


def test_preset_spec_strings():
    assert preset("nat").value(7) == 7
    assert preset("fib").value(6) == 8
    assert preset("gauss:q=2").value(3) == 7
    assert preset("const:4").value(9) == 4
    with pytest.raises(SequenceError):
        preset("nope")
    for spec, message in [("gauss:q=1", "gauss preset needs q >= 2, got 1"),
                          ("const:0", "const preset needs c >= 1, got 0"),
                          ("gauss:q=x", "bad gauss spec 'gauss:q=x'"),
                          ("const:y", "bad const spec 'const:y'")]:
        with pytest.raises(SequenceError) as e:
            preset(spec)
        assert str(e.value) == message


def test_sequence_file_loading(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("2\n3\n5\n")
    F = from_file(str(p))
    assert F.prefix(3) == [2, 3, 5]
    bad = tmp_path / "bad.txt"
    bad.write_text("2\nx\n")
    with pytest.raises(SequenceError):
        from_file(str(bad))


def test_f_factorial_values():
    assert f_factorial(fib(), 5) == 1 * 1 * 2 * 3 * 5
    assert f_factorial(nat(), 4) == 24
    assert f_factorial(nat(), 0) == 1
    assert f_factorial(gauss(2), 0) == 1


def test_f_falling_values():
    assert f_falling(nat(), 4, 2) == 12
    assert f_falling(fib(), 5, 3) == 5 * 3 * 2
    assert f_falling(gauss(2), 6, 0) == 1
    with pytest.raises(SequenceError):
        f_falling(nat(), 3, 4)


def test_fnomial_values():
    assert fnomial(nat(), 5, 2) == 10
    assert fnomial(fib(), 4, 2) == Fraction(3 * 2, 1 * 1)
    assert fnomial(fib(), 9, 0) == 1
    assert isinstance(fnomial(custom([2, 3]), 2, 1), Fraction)
    assert fnomial(custom([2, 3]), 2, 1) == Fraction(3, 2)


def test_nat_fnomials_are_binomials():
    F = nat()
    for n in range(13):
        for k in range(n + 1):
            assert fnomial(F, n, k) == comb(n, k)
    assert factorial(6) == f_factorial(F, 6)


def test_factorial_equals_full_falling():
    for F in (nat(), fib(), gauss(2), const(3)):
        for n in range(13):
            assert f_factorial(F, n) == f_falling(F, n, n)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
       st.data())
def test_fnomial_symmetry_and_product_law(values, data):
    F = custom(values)
    n = data.draw(st.integers(min_value=0, max_value=len(values)))
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert fnomial(F, n, k) == fnomial(F, n, n - k)
    assert fnomial(F, n, k) * f_factorial(F, k) == f_falling(F, n, k)


def test_admissibility_verdicts():
    assert is_cobweb_admissible(nat(), 8).admissible
    assert is_cobweb_admissible(fib(), 8).admissible
    assert is_cobweb_admissible(gauss(2), 8).admissible
    v = is_cobweb_admissible(custom([2, 3]), 2)
    assert not v.admissible
    assert v.first_failure == (2, 1)
    assert str(v) == "first_failure(2,1)"


def test_admissibility_scans_lexicographically():
    # 2_F/1_F fails at (2,1) before any later pair does
    v = is_cobweb_admissible(custom([2, 3, 4, 5]), 4)
    assert v.first_failure == (2, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=8))
def test_admissibility_is_the_first_non_integer_fnomial(values, up_to):
    # the verdict, read from integer divisibility, against the exact
    # quotients scanned in the same order
    F = custom(values)
    up_to = min(up_to, len(values))
    first = next(((n, k) for n in range(up_to + 1) for k in range(n + 1)
                  if fnomial(F, n, k).denominator != 1), None)
    assert is_cobweb_admissible(F, up_to) == (first is None, first)


def test_fib_prefix_matches_a_two_term_loop():
    want, a, b = [], 1, 1
    for _ in range(300):
        want.append(a)
        a, b = b, a + b
    F = fib()
    assert F.prefix(300) == want
    assert F.name == "fib" and repr(F) == "FSequence(fib: <1,1,2,3,5,8,...>)"


def test_fib_grows_in_linear_time():
    # each new index adds the two stored values before it; recomputing
    # every value from index 1 took ~30 s of CPU on one Xeon core
    t = time.process_time()
    v = fnomial(fib(), 20000, 3)
    assert time.process_time() - t < 2.0
    assert v.denominator == 1


def test_gauss_prefix_matches_the_closed_form():
    for q in range(2, 6):
        F = gauss(q)
        assert F.prefix(200) == [(q ** k - 1) // (q - 1) for k in range(1, 201)]
        assert F.name == f"gauss:q={q}"


def test_gauss_grows_in_linear_time():
    # each new index is q times the stored value before it, plus 1;
    # evaluating (q^k - 1) / (q - 1) afresh at every index took ~5 s of CPU
    # to index 30,000 on one Xeon core
    t = time.process_time()
    v = gauss(3).value(30000)
    assert time.process_time() - t < 2.0
    assert v == (3 ** 30000 - 1) // 2
