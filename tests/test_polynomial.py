from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfiring import LaurentPolynomial, PoleError

Y = LaurentPolynomial.y


def test_canonical_form():
    assert LaurentPolynomial({0: 0, 2: 0}).is_zero
    assert LaurentPolynomial([(1, 2), (1, -2)]).is_zero
    p = LaurentPolynomial({-1: 3, 2: 1})
    assert p.terms == ((-1, 3), (2, 1))
    assert not p.is_polynomial


def test_arithmetic():
    p = 2 + Y(1)  # 2 + y
    q = Y(1) - 1
    assert (p + q).terms == ((0, 1), (1, 2))
    assert (p * q).terms == ((0, -2), (1, 1), (2, 1))
    assert (p - p).is_zero
    assert (p * 0).is_zero
    assert p**0 == 1
    assert (Y(1) + 1) ** 2 == 1 + 2 * Y(1) + Y(2)
    assert p.shift(-2).terms == ((-2, 2), (-1, 1))
    assert p.shift(-2).shift(2) == p


def test_geometric():
    assert LaurentPolynomial.geometric(0).is_zero
    assert LaurentPolynomial.geometric(1) == 1
    assert LaurentPolynomial.geometric(3) == 1 + Y(1) + Y(2)
    d = 5
    assert LaurentPolynomial.geometric(d) * (1 - Y(1)) == 1 - Y(d)


def test_eval():
    p = 2 + Y(1)
    assert p.eval(1) == 3
    assert p.eval(0) == 2
    assert p.eval(Fraction(1, 2)) == Fraction(5, 2)
    lp = Y(-2) + 1
    assert lp.eval(2) == Fraction(5, 4)
    with pytest.raises(PoleError):
        lp.eval(0)


def test_text_and_json():
    p = 2 + 3 * Y(1) + Y(2)
    assert p.to_text() == "2*y^0 + 3*y^1 + 1*y^2"
    assert LaurentPolynomial.zero().to_text() == "0"
    assert (Y(-1) - 2).to_text() == "1*y^-1 + -2*y^0"
    data = p.to_json_dict()
    assert data == {"terms": [[0, 2], [1, 3], [2, 1]]}


coeffs = st.dictionaries(st.integers(-4, 6), st.integers(-9, 9), max_size=6)


@settings(max_examples=80, deadline=None)
@given(a=coeffs, b=coeffs, y0=st.fractions(min_value=-3, max_value=3))
def test_ring_homomorphism_under_eval(a, b, y0):
    p, q = LaurentPolynomial(a), LaurentPolynomial(b)
    if y0 == 0 and (not p.is_polynomial or not q.is_polynomial):
        return
    assert (p + q).eval(y0) == p.eval(y0) + q.eval(y0)
    assert (p - q).eval(y0) == p.eval(y0) - q.eval(y0)
    if y0 != 0:
        assert (p * q).eval(y0) == p.eval(y0) * q.eval(y0)
        assert p.shift(3).eval(y0) == p.eval(y0) * y0**3

