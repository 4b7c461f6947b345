import pytest
from hypothesis import given, strategies as st

from hookforest.qpoly import (BiPoly, Series, _decode, _product, geometric_series,
                              q_factorial, q_number)


def poly(mapping):
    return BiPoly(mapping)


def test_canonical_form_drops_zeros():
    p = BiPoly({(0, 0): 1, (0, 1): 0})
    assert p.items() == [((0, 0), 1)]
    assert (p + p * -1).is_zero()
    assert BiPoly([((0, 1), 2), ((0, 1), -2)]).is_zero()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(0, -1): 1})
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_external_input_is_validated():
    # only polynomials the library builds itself skip these checks
    with pytest.raises(TypeError):
        BiPoly({(0.5, 0): 1})
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 0.5})
    with pytest.raises(TypeError):
        q_number(2).shift_q(0.5)


@pytest.mark.parametrize("m,expected", [
    (1, {(0, 0): 1}),
    (2, {(0, 0): 1, (0, 1): 1}),
    (4, {(0, k): 1 for k in range(4)}),
])
def test_q_number(m, expected):
    assert q_number(m) == BiPoly(expected)


def test_q_number_rejects_nonpositive():
    with pytest.raises(ValueError):
        q_number(0)


def test_q_factorial():
    assert q_factorial(0) == BiPoly.one()
    assert q_factorial(2) == q_number(2)
    # (1+q)(1+q+q^2) expanded by hand
    assert q_factorial(3) == BiPoly({(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1})


def test_ring_examples():
    p = BiPoly({(0, 0): 3, (1, 2): -1})
    assert p + BiPoly.zero() == p
    two_q = q_number(2)
    assert two_q * two_q == BiPoly({(0, 0): 1, (0, 1): 2, (0, 2): 1})
    one_tq = BiPoly({(0, 0): 1, (1, 1): 1})
    assert one_tq ** 2 == BiPoly({(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_int_mixing():
    assert q_number(2) * 2 == BiPoly({(0, 0): 2, (0, 1): 2})
    assert (q_number(2) * 0).is_zero()
    assert -3 * q_number(2) == BiPoly({(0, 0): -3, (0, 1): -3})
    assert Series(Series(q_number(3), 1).poly * 2, 1) == Series(BiPoly({(0, 0): 2, (0, 1): 2}), 1)
    assert 1 + BiPoly.term(1, q=1) == q_number(2)
    assert q_number(2) + -1 == BiPoly.term(1, q=1)


def test_doubling_identity():
    # [h] with q -> q^2, times (1+q), gives [2h]
    for h in range(1, 13):
        doubled = BiPoly({(a, 2 * b): c for (a, b), c in q_number(h).items()})
        assert doubled * q_number(2) == q_number(2 * h)


def test_eval_t():
    one_tq = BiPoly({(0, 0): 1, (1, 1): 1})
    assert one_tq.eval_t(1) == q_number(2)
    assert one_tq.eval_t(0) == BiPoly.one()
    one_t = BiPoly({(0, 0): 1, (1, 0): 1})
    assert one_t.eval_t(-1).is_zero()
    with pytest.raises(ValueError):
        one_tq.eval_t(2)


def test_constants_hash_like_their_ints():
    # a constant polynomial equals its int, so sets and dicts must agree
    for c in (0, 1, -7):
        assert hash(BiPoly.term(c)) == hash(c)
    assert len({BiPoly.one(), 1}) == 1
    assert BiPoly.one() in {1} and 0 in {BiPoly.zero()}


def test_render():
    assert BiPoly.zero().render() == "0"
    assert BiPoly({(0, 0): 1, (0, 1): 2, (1, 3): 1}).render() == "1 + 2*q + t*q^3"
    assert BiPoly({(0, 0): 1, (0, 1): -2}).render() == "1 - 2*q"
    assert BiPoly({(2, 0): -1}).render() == "-t^2"


def test_triples_round_trip():
    p = BiPoly({(0, 0): 2, (1, 3): -4, (2, 1): 7})
    assert BiPoly.from_triples(p.to_triples()) == p
    assert p.to_triples() == [[0, 0, 2], [1, 3, -4], [2, 1, 7]]


coeff_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 5)),
    st.integers(-9, 9),
    max_size=6,
)


@given(coeff_maps, coeff_maps, coeff_maps)
def test_ring_axioms(a, b, c):
    pa, pb, pc = BiPoly(a), BiPoly(b), BiPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@pytest.mark.parametrize("h,degree,expected", [
    (1, 2, {0: 1, 1: 1, 2: 1}),
    (2, 5, {0: 1, 2: 1, 4: 1}),
    (3, 3, {0: 1, 3: 1}),
])
def test_geometric_series(h, degree, expected):
    s = geometric_series(h, degree)
    for k in range(degree + 1):
        assert s.poly.coeff(0, k) == expected.get(k, 0)


def test_geometric_series_is_inverse():
    for h in (1, 2, 3):
        s = geometric_series(h, 9)
        one_minus = BiPoly({(0, 0): 1, (0, h): -1})
        assert Series(s.poly * one_minus, 9) == Series(BiPoly.one(), 9)


def test_series_equality_and_render():
    s = Series(q_number(3), 4)
    assert s == Series(q_number(3), 4)
    assert s != Series(q_number(3), 5)
    assert Series(q_number(3), 1) == Series(q_number(2), 1)
    assert s.render() == "1 + q + q^2 + O(q^5)"
    with pytest.raises(ValueError):
        Series(BiPoly.term(1, t=1), 3)
    with pytest.raises(ValueError):
        Series(q_number(3), -1)


def test_series_is_a_record():
    # products of series are taken by qpoly._product or on .poly, so
    # Series keeps no arithmetic of its own
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "_coerce", "coeff"):
        assert not hasattr(Series, name), name


def _packed(poly, k, width):
    # the coefficient of t^a q^b in the k-bit slot a*width + b
    return sum(c << k * (a * width + b) for (a, b), c in poly.items())


@pytest.mark.parametrize("terms, k, width", [
    ({}, 3, 1),                                     # the zero polynomial
    ({(0, 0): 7}, 3, 1),                            # a constant
    ({(1, 0): 1, (4, 0): 2}, 2, 1),                 # t-only terms, one slot per row
    ({(0, 0): 31, (0, 1): 31, (0, 2): 1, (1, 0): 31, (2, 3): 31}, 5, 4),  # 2^k - 1
    ({(a, b): (5 * a + b) % 127 + 1 for a in range(3) for b in range(0, 40, 3)}, 7, 40),
])
def test_pack_decode_round_trip(terms, k, width):
    poly = BiPoly(terms)
    assert _decode(_packed(poly, k, width), k, width) == poly


def test_decode_offsets():
    # chaindp moves negative sign terms onto the other sign and hands the
    # constant to the decoder as a negative offset
    packed = _packed(BiPoly({(2, 3): 1, (3, 5): 4}), 3, 6)
    assert _decode(packed, 3, 6, -2, -3) == BiPoly({(0, 0): 1, (1, 2): 4})
    assert _decode(packed, 3, 6, 1, 0) == BiPoly({(3, 3): 1, (4, 5): 4})
    with pytest.raises(ValueError, match="negative exponent"):
        _decode(packed, 3, 6, -3, 0)
    with pytest.raises(ValueError, match="negative exponent"):
        _decode(packed, 3, 6, 0, -4)


def _run(a, b, m):
    return BiPoly(((a * j, b * j), 1) for j in range(m))


@pytest.mark.parametrize("scale, runs, degree", [
    (1, [], None),                                  # no runs
    (7, [], None),                                  # a scale alone
    (3, [(0, 0, 4), (0, 1, 3)], None),              # a (0, 0, m) run
    (2, [(1, 2, 3), (0, 1, 4)], None),              # a t-run with m = 3
    (5, [(0, 1, 3), (0, 2, 2), (1, 1, 2), (2, 3, 2)], None),
    (1, [(0, 1, 3), (0, 2, 4)], 0),                 # degree 0
    (2, [(0, 4, 3), (0, 1, 3)], 3),                 # a degree below a run's step
    (1, [(0, h, 12 // h + 1) for h in (1, 2, 3, 5)], 12),
])
def test_product_of_runs_matches_bipoly_product(scale, runs, degree):
    expected = BiPoly.term(scale)
    for run in runs:
        expected = expected * _run(*run)
    got = _product(scale, runs, degree)
    if degree is None:
        assert got == expected
    else:
        assert got == Series(expected, degree)


def test_product_over_runs_is_the_exact_quotient():
    # [4] [3] / [2] = (1 + q^2) [3]
    assert (_product(1, [(0, 1, 4), (0, 1, 3)], over=[(0, 1, 2)])
            == BiPoly({(0, 0): 1, (0, 2): 1}) * q_number(3))
    # [2] by [3] and [3] by [2] leave a remainder; [6] / [2][3] is
    # 1 - q + q^2, whose packed quotient divides with no remainder but
    # carries between slots
    for runs, over in (([(0, 1, 2)], [(0, 1, 3)]), ([(0, 1, 3)], [(0, 1, 2)]),
                       ([(0, 1, 6)], [(0, 1, 2), (0, 1, 3)])):
        with pytest.raises(ValueError, match="do not divide"):
            _product(1, runs, over=over)
