import operator
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cclab import laurent
from cclab.errors import InexactDivisionError, InputError
from cclab.laurent import LaurentPolynomial, divide_exact, parse

NVARS = 2


def lp(terms):
    return LaurentPolynomial(NVARS, terms)


exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=5).map(lp)


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
@settings(max_examples=50)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys)
def test_additive_inverse(a):
    assert (a - a).is_zero()


@given(polys)
def test_one_is_identity(a):
    assert a * LaurentPolynomial.one(NVARS) == a


@given(polys)
def test_str_parse_roundtrip(a):
    assert parse(str(a), NVARS) == a


@given(polys, polys)
@settings(max_examples=50)
def test_exact_division_roundtrip(a, b):
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a


def test_canonical_string():
    p = parse("x1^-1 + x1^-1*x2", 2)
    assert str(p) == "x1^-1 + x1^-1*x2"
    assert str(LaurentPolynomial.zero(2)) == "0"
    assert str(LaurentPolynomial.one(2)) == "1"
    assert str(LaurentPolynomial.variable(2, 1)) == "x1"


def test_term_order_by_total_degree_then_exponents():
    p = parse("x2^2 + x1 + 1", 2)
    assert str(p) == "1 + x1 + x2^2"


def test_inexact_division_raises():
    a = parse("x1 + 1", 2)
    b = parse("x2 + 1", 2)
    with pytest.raises(InexactDivisionError):
        divide_exact(a, b)


def test_division_checks_variable_count_first():
    """A zero dividend is no excuse for a variable-count mismatch."""
    for a in (LaurentPolynomial.zero(2), LaurentPolynomial.one(2)):
        with pytest.raises(InputError, match="variable count mismatch"):
            divide_exact(a, LaurentPolynomial.variable(3, 1))


def test_division_by_monomial_is_laurent():
    a = parse("x1 + x2", 2)
    b = parse("x1*x2", 2)
    assert str(divide_exact(a, b)) == "x1^-1 + x2^-1"


@pytest.mark.parametrize("terms", [{(0,): 0.5}, {(0,): Fraction(1, 2)},
                                   {(0,): True}, {(0.5,): 1}, {(True,): 2}],
                         ids=["float", "Fraction", "bool", "float exponent",
                              "bool exponent"])
def test_non_integer_terms_are_refused(terms):
    """A coefficient or exponent that is not an int, a bool included, is
    refused rather than stored."""
    with pytest.raises(InputError, match="non-integer term"):
        LaurentPolynomial(1, terms)


@pytest.mark.parametrize("nvars, terms", [
    (-1, {}), (True, {(1,): 1}), (2.0, {(1, 0): 1}), ("2", {(1, 0): 1})],
    ids=["negative", "bool", "float", "str"])
def test_variable_count_must_be_a_non_negative_int(nvars, terms):
    with pytest.raises(InputError, match="variable count"):
        LaurentPolynomial(nvars, terms)


@pytest.mark.parametrize("terms, message", [
    ({5: 1}, "exponent 5 is not a tuple"),
    ([((1, 0), 1)], "are not a dict"),
    ({(1,): 1}, "exponent length mismatch")],
    ids=["int exponent", "list of pairs", "short exponent"])
def test_malformed_terms_are_refused(terms, message):
    with pytest.raises(InputError, match=message):
        LaurentPolynomial(2, terms)


def test_int_factor_scales_on_either_side():
    x = parse("x1 - 2", 1)
    assert x * 3 == 3 * x == parse("3*x1 - 6", 1)
    assert (x * 0).is_zero()


@pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, True, "x1"],
                         ids=["Fraction", "float", "bool", "str"])
def test_ring_operators_refuse_non_integer_operands(other):
    """+, - and * with an operand that is neither an int nor a polynomial
    return NotImplemented, so Python raises TypeError either way round."""
    x = parse("x1", 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


@pytest.mark.parametrize("k", [0.5, Fraction(1, 2), True],
                         ids=["float", "Fraction", "bool"])
def test_scale_refuses_non_integers(k):
    """scale stores no float, Fraction or bool products."""
    with pytest.raises(InputError, match="non-integer scale"):
        parse("x1 + 1", 1).scale(k)


@pytest.mark.parametrize("k", [0.5, 1.5, True], ids=["0.5", "1.5", "bool"])
def test_power_refuses_non_integer_exponents(k):
    """** with an exponent that is not an int returns NotImplemented, so
    Python raises TypeError instead of returning x."""
    with pytest.raises(TypeError):
        parse("x1", 1) ** k


@pytest.mark.parametrize("other", [0.5, Fraction(1, 2), None, True],
                         ids=["float", "Fraction", "None", "bool"])
def test_divide_exact_refuses_non_integer_operands(other):
    x = parse("x1", 1)
    with pytest.raises(InputError, match="cannot divide"):
        divide_exact(x, other)
    with pytest.raises(InputError, match="cannot divide"):
        divide_exact(other, x)


def test_divide_exact_takes_int_operands():
    x = parse("x1", 1)
    assert divide_exact(2, x) == parse("2*x1^-1", 1)
    assert divide_exact(x.scale(3), 3) == x


def test_division_by_zero_polynomial_raises():
    for zero in (LaurentPolynomial.zero(1), 0):
        with pytest.raises(ZeroDivisionError):
            divide_exact(parse("x1", 1), zero)


@pytest.mark.parametrize("s, message", [
    ("x1 + 1", "non-monomial"), ("2*x1", "non-unit")])
def test_negative_power_needs_a_unit_monomial(s, message):
    with pytest.raises(InexactDivisionError, match=message):
        parse(s, 1) ** -1


@pytest.mark.parametrize("s, message", [
    ("x1 + y", "cannot parse term"), ("x1 +", "cannot parse term"),
    ("x1 + + 1", "cannot parse term"), ("", "cannot parse term"),
    ("x3", "variable index out of range"), ("2*", "cannot parse term"),
    ("x1 + 2*", "cannot parse term"), ("2x1", "cannot parse term"),
    ("3x1^2*x2", "cannot parse term")])
def test_parse_refuses_malformed_input(s, message):
    with pytest.raises(InputError, match=message):
        parse(s, 2)


def test_evaluate():
    p = parse("x1^2 + x2^-1", 2)
    assert p.evaluate([Fraction(2), Fraction(1, 3)]) == 7


def test_evaluate_negative_exponent_at_ints_is_exact():
    value = parse("x1^-1 + x2", 2).evaluate([2, 3])
    assert isinstance(value, Fraction) and value == Fraction(7, 2)
    assert parse("x1^-3", 1).evaluate([3]) == Fraction(1, 27)


# -- reference kernels: exponent tuples and a linear leading-term scan -----

def reference_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


class BudgetExceeded(Exception):
    pass


def reference_divide(a, b, budget=3000):
    """a / b by graded-lex leading terms found with max(); the step budget
    keeps the quadratic scan cheap on long inexact chains."""
    if a.is_zero():
        return {}
    n = a.nvars
    mins_a = [min(e[i] for e in a.terms) for i in range(n)]
    mins_b = [min(e[i] for e in b.terms) for i in range(n)]
    rem = {tuple(x - m for x, m in zip(e, mins_a)): c
           for e, c in a.terms.items()}
    pb = {tuple(x - m for x, m in zip(e, mins_b)): c
          for e, c in b.terms.items()}
    key = lambda e: (sum(e), e)
    lead_b = max(pb, key=key)
    cb = pb[lead_b]
    quo = {}
    while rem:
        budget -= 1
        if budget < 0:
            raise BudgetExceeded
        lead = max(rem, key=key)
        c = rem[lead]
        qe = tuple(x - y for x, y in zip(lead, lead_b))
        if any(x < 0 for x in qe) or c % cb != 0:
            raise InexactDivisionError("remainder")
        quo[qe] = c // cb
        for e, bc in pb.items():
            te = tuple(x + y for x, y in zip(qe, e))
            v = rem.get(te, 0) - quo[qe] * bc
            if v:
                rem[te] = v
            else:
                rem.pop(te, None)
    shift = [x - y for x, y in zip(mins_a, mins_b)]
    return {tuple(x + y for x, y in zip(e, shift)): c for e, c in quo.items()}


@st.composite
def wide_triples(draw):
    """Three polynomials in 1-5 variables, the second nonzero, with
    exponents up to +-300 (packed fields from 1 to 14 bits wide) and signed
    coefficients."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(-300, 300)] * n)
    coeffs = st.integers(-12, 11).map(lambda c: c if c < 0 else c + 1)

    def poly(min_size):
        return st.dictionaries(exps, coeffs, min_size=min_size,
                               max_size=6).map(
            lambda t: LaurentPolynomial(n, t))
    return draw(poly(0)), draw(poly(1)), draw(poly(0))


@given(wide_triples())
@settings(deadline=None)
def test_packed_mul_matches_reference(case):
    a, b, _ = case
    assert (a * b).terms == reference_mul(a, b)
    assert (b * a).terms == reference_mul(b, a)


@given(wide_triples())
@settings(deadline=None)
def test_packed_division_matches_reference(case):
    a, b, c = case
    product = LaurentPolynomial(a.nvars, reference_mul(a, b))
    assert divide_exact(product, b).terms == a.terms
    # product + c is exact only when b divides c; both kernels must agree
    dividend = product + c
    try:
        expected = reference_divide(dividend, b)
    except BudgetExceeded:
        assume(False)
    except InexactDivisionError:
        with pytest.raises(InexactDivisionError):
            divide_exact(dividend, b)
        return
    assert divide_exact(dividend, b).terms == expected


@given(wide_triples())
@settings(deadline=None)
def test_square_matches_reference(case):
    """a * a, one term dict on both sides of the product, matches the
    reference: a square runs the product kernels like any other pair."""
    for a in case:
        assert (a * a).terms == reference_mul(a, a)


@given(wide_triples())
@settings(deadline=None, max_examples=50)
def test_powers_match_repeated_reference(case):
    a, b, _ = case
    for x in (a, b):
        assert x ** 1 == x
        expected = {(0,) * x.nvars: 1}
        for k in range(5):
            assert (x ** k).terms == expected
            expected = reference_mul(LaurentPolynomial(x.nvars, expected), x)


@given(wide_triples(), st.integers(1, 4))
def test_negative_powers_of_unit_monomials(case, k):
    _, b, _ = case
    (e, c), *_ = b.terms.items()
    sign = 1 if c > 0 else -1
    m = LaurentPolynomial(b.nvars, {e: sign})
    assert (m ** -k).terms == {tuple(-k * x for x in e): sign ** k}
    assert m ** -k * m ** k == 1


def _along(u, coeffs, shift, scale=1):
    """scale * sum_k coeffs[k] y^k * x^shift for the monomial y = x^u."""
    return LaurentPolynomial(len(u), {
        tuple(k * x + s for x, s in zip(u, shift)): scale * c
        for k, c in enumerate(coeffs) if c})


@given(wide_triples(), st.sampled_from([0, 1, 2]))
@settings(deadline=None)
def test_division_retouches_cancelled_terms(case, extra):
    """(y^4 + 2y^3 + y^2 - 1) / (y^2 + y + 1) = y^2 + y - 1 along a
    monomial y drawn from the case: the first quotient term cancels the
    remainder's y^2 term to 0, the second touches it again, and then the
    y term cancels.  Adding extra to the constant term makes it inexact."""
    a, b, _ = case
    (u, scale), *_ = b.terms.items()
    assume(any(u))
    if (sum(u), u) < (0, (0,) * len(u)):  # y ascends in the term order
        u = tuple(-x for x in u)
    shift_a = next(iter(a.terms), (0,) * len(u))
    shift_b = tuple(x // 2 for x in u)
    dividend = _along(u, [extra - 1, 0, 1, 2, 1], shift_a, scale)
    divisor = _along(u, [1, 1, 1], shift_b, scale)
    try:
        expected = reference_divide(dividend, divisor)
    except InexactDivisionError:
        assert extra
        with pytest.raises(InexactDivisionError):
            divide_exact(dividend, divisor)
        return
    assert not extra and expected == _along(
        u, [-1, 1, 1], [x - y for x, y in zip(shift_a, shift_b)]).terms
    assert divide_exact(dividend, divisor).terms == expected


def test_division_rejects_non_unit_coefficient():
    with pytest.raises(InexactDivisionError):
        divide_exact(parse("x1 + 1", 1), parse("2*x1 + 2", 1))
    assert str(divide_exact(parse("2*x1 + 2", 1), parse("x1 + 1", 1))) == "2"


@given(polys, st.integers(-9, 9))
def test_hash_agrees_with_eq(a, c):
    """Equal values hash equally, an int and its constant polynomial
    included: LaurentPolynomial.constant(2, 5) == 5 and it is found in a
    set of ints, and 5 in a set holding it."""
    k = LaurentPolynomial.constant(NVARS, c)
    assert k == c and hash(k) == hash(c)
    assert c in {k} and k in {c}
    if a == c:
        assert hash(a) == hash(c)
    b = lp(dict(a.terms))
    assert a == b and hash(a) == hash(b)


# -- the dense kernels -------------------------------------------------------

def _term_box(a, b):
    """laurent._box of the term dicts a and b, with no density test."""
    return laurent._box(*[list(map(set, zip(*terms))) for terms in (a, b)])


@st.composite
def dense_triples(draw, coeffs):
    """Three polynomials in 1-3 variables whose terms fill at least half of
    their boxes, on one lattice (a shared step per variable), with at
    least 6 terms each: the dense path takes the product of any two."""
    n = draw(st.integers(1, 3))
    steps = draw(st.tuples(*[st.integers(1, 3)] * n))
    sides = {1: st.integers(12, 24), 2: st.integers(3, 5),
             3: st.integers(2, 3)}[n]

    def poly():
        low = draw(st.tuples(*[st.integers(-6, 6)] * n))
        shape = draw(st.tuples(*[sides] * n))
        points = list(product(*[range(lo, lo + g * s, g)
                                for lo, g, s in zip(low, steps, shape)]))
        chosen = draw(st.sets(st.sampled_from(points),
                              min_size=max(6, -(-len(points) // 2))))
        return LaurentPolynomial(n, {e: draw(coeffs) for e in chosen})
    return poly(), poly(), poly()


def _nonzero(lo, hi):
    return st.integers(lo, hi).filter(bool)


DENSE_COEFFS = {
    "signed": _nonzero(-9, 9),
    "past 2^64": _nonzero(-(1 << 70), 1 << 70),
    "past 2^200": st.integers(1 << 200, 1 << 201).flatmap(
        lambda c: st.sampled_from([c, -c])),
}


@pytest.mark.parametrize("coeffs", DENSE_COEFFS.values(),
                         ids=DENSE_COEFFS.keys())
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_dense_mul_matches_reference(coeffs, data):
    a, b, _ = data.draw(dense_triples(coeffs))
    assert laurent._dense_box(a.terms, b.terms) is not None
    assert (a * b).terms == reference_mul(a, b)
    assert (a * a).terms == reference_mul(a, a)


@pytest.mark.parametrize("coeffs", DENSE_COEFFS.values(),
                         ids=DENSE_COEFFS.keys())
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_dense_division_matches_reference(coeffs, data):
    """The public division and the dense kernel on its own, on an exact
    product and on that product plus a third polynomial.  The kernel may
    decline (None) but never returns a wrong quotient."""
    a, b, c = data.draw(dense_triples(coeffs))
    product_ = LaurentPolynomial(a.nvars, reference_mul(a, b))
    for dividend in (product_, product_ + c):
        if dividend.is_zero():
            continue
        box = _term_box(dividend.terms, b.terms)
        try:
            expected = reference_divide(dividend, b, budget=300)
        except BudgetExceeded:
            continue
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                divide_exact(dividend, b)
            try:
                assert laurent._dense_quotient(dividend.terms, b.terms,
                                               box) is None
            except InexactDivisionError:
                pass
            continue
        assert divide_exact(dividend, b).terms == expected
        assert laurent._dense_quotient(dividend.terms, b.terms,
                                       box) in (None, expected)
    assert divide_exact(product_, b).terms == a.terms
    if coeffs is DENSE_COEFFS["signed"]:
        # |a|_oo <= 9 fits the narrowest slot, so the first width decodes a
        # and a certificate accepts it: with the cost test off, which then
        # admits every pair, the kernel returns a, never None
        box = _term_box(product_.terms, b.terms)
        saved = laurent._HEAP_STEP_BYTES
        laurent._HEAP_STEP_BYTES = float("inf")
        try:
            assert laurent._dense_quotient(product_.terms, b.terms,
                                           box) == a.terms
        finally:
            laurent._HEAP_STEP_BYTES = saved


def _spy(monkeypatch, name):
    """Record the result of every call of laurent.<name>."""
    results = []
    real = getattr(laurent, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(laurent, name, spy)
    return results


def _spy_widths(monkeypatch):
    """Record the slot width, in bytes, of every laurent._unpack_dense."""
    widths = []
    real = laurent._unpack_dense

    def spy(*args):
        widths.append(args[-1])
        return real(*args)

    monkeypatch.setattr(laurent, "_unpack_dense", spy)
    return widths


def test_dense_quotient_past_its_first_width_falls_back(monkeypatch):
    """(1 - x^2)^40 / (1 - x)^40 = (1 + x)^40, times C: |q|_1 = C 2^40 is
    2^40 times the |a|_1 / |b|_1 the slots are sized for, so the norm test
    fails at every width divided at, and the packed product at -X, at the
    width divided at, certifies q: |a|_oo + |q|_1 |b|_oo stays below X^2.
    For C = 1, |b|_oo sets both widths to 8 bytes; for C = 3^50, |a|_oo /
    |b|_1 (77 bits) sets the first to 12, which q's 117-bit coefficients
    outgrow, so the kernel goes on to the full 16.  Either way it returns
    q and no heap division runs."""
    for c, sizes in ((1, [8]), (3 ** 50, [12, 16])):
        q = LaurentPolynomial.constant(1, c) * parse("1 + x1", 1) ** 40
        b = parse("1 - x1", 1) ** 40
        a = q * b
        dense = _spy(monkeypatch, "_dense_quotient")
        widths = _spy_widths(monkeypatch)
        heap = _spy(monkeypatch, "_heap_quotient")
        assert divide_exact(a, b) == q
        assert dense == [q.terms] and heap == []
        assert widths == sizes
        monkeypatch.undo()


def test_dense_quotient_outgrowing_every_width_takes_the_heap(monkeypatch):
    """prod_{k<=20} (1 - x^k) / (1 - x)^20 = [20]_x!, whose coefficients
    reach 56 bits while every coefficient of a and b fits in 18: the one
    width tried, 4 bytes, does not hold q, so the dense kernel returns None
    and the heap division answers."""
    x, one = parse("x1", 1), LaurentPolynomial.one(1)
    a, q = one, one
    for k in range(1, 21):
        a = a * (one - x ** k)
        q = q * LaurentPolynomial(1, {(j,): 1 for j in range(k)})
    b = (one - x) ** 20
    assert max(q.terms.values()).bit_length() == 56
    assert laurent._dense_box(a.terms, b.terms) is not None
    dense = _spy(monkeypatch, "_dense_quotient")
    widths = _spy_widths(monkeypatch)
    heap = _spy(monkeypatch, "_heap_quotient")
    assert divide_exact(a, b) == q
    assert dense == [None] and heap == [q.terms] and widths == [4]


def test_dense_quotient_checks_a_narrow_decode_by_its_product(monkeypatch):
    """a = 100 (1 - x1^2)^2 over b = (1 - x1)^2, q = 100 (1 + x1)^2:
    |a|_oo / |b|_1 = 50 fits one-byte slots, so they are tried first.  At
    X = 256, Q = q(X) = 100 + 200 X + 100 X^2 decodes inside the quotient's
    box to 100 - 56 x1 + 101 x1^2 (200 = X - 56).  Its |q|_1 |b|_oo is past
    half the byte, so the packed product at -X decides, and rejects it;
    the two-byte division returns q."""
    q = LaurentPolynomial.constant(1, 100) * parse("1 + x1", 1) ** 2
    b = parse("1 - x1", 1) ** 2
    a = q * b
    assert laurent._unpack_dense(
        laurent._pack_dense(q.terms, [0, 1, 2], 1), [0], [1], [3], 1) == {
            (0,): 100, (1,): -56, (2,): 101}
    widths = _spy_widths(monkeypatch)
    assert laurent._dense_quotient(a.terms, b.terms,
                                   _term_box(a.terms, b.terms)) == q.terms
    assert widths == [1, 2]


@pytest.mark.parametrize("size", range(1, 17))
@given(data=st.data())
@settings(max_examples=25)
def test_pack_dense_pair_is_the_values_at_x_and_minus_x(size, data):
    """The packer's pair is (sum c X^p, sum c (-X)^p), X = 2^(8 size), for
    coefficients of both signs, past half a slot and past the whole slot,
    at every slot size from 1 to 16 bytes, words or not (3, 12)."""
    X = 1 << 8 * size
    edges = [X // 2 - 1, X // 2, X - 1, X, X + 1, 3 * X + 5]
    coeffs = st.one_of(st.integers(-X, X), st.integers(-X * X, X * X),
                       st.sampled_from(edges + [-c for c in edges]))
    pos = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=12,
                             unique=True))
    terms = {(p,): data.draw(coeffs.filter(bool)) for p in pos}
    pair = (sum(c * X ** p for p, c in zip(pos, terms.values())),
            sum(c * (-X) ** p for p, c in zip(pos, terms.values())))
    assert laurent._pack_dense(terms, pos, size, True) == pair
    assert laurent._pack_dense(terms, pos, size) == pair[0]


def test_dense_quotient_is_refuted_at_minus_x_alone(monkeypatch):
    """q = 1 + x1 + ... + x1^11, b = (1 + x1)^2, a = q * b + 256 - x1: in
    one-byte slots 256 - x1 packs to 256 - X = 0, so the divmod leaves no
    remainder and q decodes inside the quotient's box.  |a|_oo = 257 is
    past half a slot, so the norm test cannot accept it, and only the
    packed product at -X rejects it; the two-byte remainder then raises."""
    q = LaurentPolynomial(1, {(j,): 1 for j in range(12)})
    b = parse("1 + x1", 1) ** 2
    a = q * b + parse("256 - x1", 1)
    assert laurent._dense_box(a.terms, b.terms) is not None
    decoded = _spy(monkeypatch, "_unpack_dense")
    widths = _spy_widths(monkeypatch)
    with pytest.raises(InexactDivisionError):
        divide_exact(a, b)
    assert widths == [1] and decoded == [q.terms]


def test_word_typecodes_have_their_item_sizes():
    """The unpacker's signed array typecodes, chosen at import by their C
    types' sizes, hold words of 1, 2, 4 and 8 bytes, one each."""
    from array import array
    codes = laurent._SIGNED
    assert {1, 2, 4, 8} <= set(codes)
    assert all(array(c).itemsize == size for size, c in codes.items())


def test_dense_quotient_skips_slots_too_narrow_for_q(monkeypatch):
    """a = 256 + x1^2 over b = 1: in one-byte slots X = 256 and a packs to
    2X, which decodes inside the quotient's box to 2*x1^2.  But |q|_oo is
    at least |a|_oo / |b|_1 = 256, past a byte, so the kernel starts at two
    bytes and returns a."""
    a, b = parse("256 + x1^2", 1), LaurentPolynomial.one(1)
    assert laurent._pack_dense(a.terms, [0, 1], 1) == 2 * 256
    assert laurent._unpack_dense(2 * 256, [0], [2], [2], 1) == {(2,): 2}
    widths = _spy_widths(monkeypatch)
    assert laurent._dense_quotient(a.terms, b.terms,
                                   _term_box(a.terms, b.terms)) == a.terms
    assert widths == [2]


def test_dense_quotient_by_a_divisor_wider_than_q(monkeypatch):
    """b = 256 - x1 times q = 1 + x1 + ... + x1^16: |q|_oo = 1, but b's
    256 needs two-byte slots, where b packs to a nonzero int (in one-byte
    slots it would pack to 256 - X = 0).  The dense kernel returns q."""
    b = parse("256 - x1", 1)
    q = LaurentPolynomial(1, {(j,): 1 for j in range(17)})
    a = q * b
    assert laurent._dense_box(a.terms, b.terms) is not None
    dense = _spy(monkeypatch, "_dense_quotient")
    widths = _spy_widths(monkeypatch)
    assert divide_exact(a, b) == q
    assert dense == [q.terms] and widths == [2]


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_dense_quotient_of_a_cancelled_dividend(n):
    """prod_{k<=n} (1 - x^k) / [n]_x! = (1 - x)^n, where [n]_x! is the
    product of the 1 + x + ... + x^(k-1): the dividend has cancelled to
    |a|_1 far below |b|_1, so b's coefficients outgrow slots sized for a
    and q * b alone; the slots hold b too, and the quotient is right."""
    x, one = parse("x1", 1), LaurentPolynomial.one(1)
    a, b = one, one
    for k in range(1, n + 1):
        a = a * (one - x ** k)
        b = b * LaurentPolynomial(1, {(j,): 1 for j in range(k)})
    assert sum(map(abs, a.terms.values())) < max(b.terms.values())
    box = laurent._dense_box(a.terms, b.terms)
    assert box is not None
    expected = reference_divide(a, b)
    assert expected == ((one - x) ** n).terms
    assert divide_exact(a, b).terms == expected
    assert laurent._dense_quotient(a.terms, b.terms, box) in (None, expected)


def test_dense_quotient_by_a_wider_divisor_is_inexact():
    """b spans three powers of x1 and a two: q's box is empty, and no
    packing is tried."""
    a, b = parse("1 + x1", 1), parse("1 + x1 + x1^2", 1)
    with pytest.raises(InexactDivisionError):
        laurent._dense_quotient(a.terms, b.terms, _term_box(a.terms, b.terms))


@pytest.mark.parametrize("value", [1 << 40, -(1 << 40)])
def test_unpack_dense_outside_its_slots_is_empty(value):
    """Three one-byte slots hold balanced digits in [-128, 127] only."""
    assert laurent._unpack_dense(value, [0], [1], [3], 1) == {}


def test_dense_quotient_outside_its_box_is_declined():
    """a = x2^4 + x1 + x1*x2 over b = 1 + x2 + x2^2 packs (x2 moving
    fastest, 5 slots a row) to X^4 + X^5 + X^6 = X^4 * (1 + X + X^2), but
    X^4 decodes to x2^4, past q's box (x2^0..x2^2): the kernel declines,
    and the heap division finds a / b inexact."""
    a, b = parse("x2^4 + x1 + x1*x2", 2), parse("1 + x2 + x2^2", 2)
    box = _term_box(a.terms, b.terms)
    assert laurent._dense_quotient(a.terms, b.terms, box) is None
    with pytest.raises(InexactDivisionError):
        divide_exact(a, b)


def test_inexact_dense_division_raises(monkeypatch):
    """a * b + 1 packs to A * B + 1, which B does not divide: the dense
    quotient raises before any heap division runs."""
    a = LaurentPolynomial(2, {(i, j): i - 2 * j + 7
                              for i in range(-2, 4) for j in range(3)})
    b = LaurentPolynomial(2, {(i, j): 3 * i + j + 1
                              for i in range(3) for j in range(-1, 3)})
    heap = _spy(monkeypatch, "_heap_quotient")
    with pytest.raises(InexactDivisionError):
        divide_exact(a * b + 1, b)
    assert heap == []
    dividend = (a * b + 1).terms
    with pytest.raises(InexactDivisionError):
        laurent._dense_quotient(dividend, b.terms,
                                _term_box(dividend, b.terms))
    assert divide_exact(a * b, b) == a and heap == []


def test_far_apart_terms_stay_sparse(monkeypatch):
    """Terms 10^9 apart (offsets of gcd 1) would need a box of 10^9 slots:
    the product stays on the packed-key kernel."""
    a = LaurentPolynomial(1, {(k,): k + 1 for k in range(8)})
    a = a + LaurentPolynomial.monomial([10 ** 9], -5)
    b = a + LaurentPolynomial.monomial([-10 ** 9], 7)
    dense = _spy(monkeypatch, "_dense_product")
    assert (a * b).terms == reference_mul(a, b)
    assert (a * a).terms == reference_mul(a, a)
    assert dense == []


def test_kronecker_chain_takes_the_dense_path(monkeypatch):
    """x_12 * x_12 and (x_12^2 + 1) / x_11 along the Kronecker chain (18
    mutations from the initial seed) run the dense kernels, and they agree
    with the packed-key ones."""
    from cclab.mutation import apply_mutations, initial_seed
    from cclab.quiver import kronecker_quiver

    seed = initial_seed(kronecker_quiver())
    seed = apply_mutations(seed, [1, 2] * 5)
    x11, x12 = seed.cluster[1], apply_mutations(seed, [1]).cluster[0]
    x13 = apply_mutations(seed, [1, 2]).cluster[1]
    products = _spy(monkeypatch, "_dense_product")
    quotients = _spy(monkeypatch, "_dense_quotient")
    square = x12 * x12
    assert divide_exact(square + 1, x11) == x13
    assert products == [square.terms] and quotients == [x13.terms]
    assert square.terms == laurent._sparse_product(x12.terms, x12.terms, 2)
    assert x13.terms == laurent._heap_quotient((square + 1).terms, x11.terms,
                                               2)
