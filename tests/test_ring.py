"""Laurent polynomial and prime-power-denominator arithmetic."""

import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hnnrep import ring as ring_module
from hnnrep.ring import (
    INT,
    LAURENT,
    QQ,
    LaurentPoly,
    QpRing,
    QpScalar,
    is_prime,
    ring_from_descriptor,
)

from helpers import _json_text, specialize

LAM = LAURENT.lam()
MU = LAURENT.mu()
S = LAURENT.s_power(1)
ONE = LAURENT.one


def random_poly(rng, max_terms=8):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = (rng.randrange(6), rng.randrange(6), rng.randrange(-5, 6))
        terms[mono] = rng.randrange(-9, 10)
    return LaurentPoly(terms)


class TestLaurentPoly:
    def test_sum_of_cubes_identity(self):
        # (1 + lam mu)(1 - lam mu + lam^2 mu^2) = 1 + lam^3 mu^3
        a = ONE + LAM * MU
        b = ONE - LAM * MU + LAM * LAM * MU * MU
        cube = LaurentPoly.monomial(3, 3, 0)
        assert a * b - cube == ONE

    def test_s_inverse(self):
        assert S * LAURENT.s_power(-1) == ONE

    def test_additive_inverse_is_canonical_zero(self):
        p = LaurentPoly({(1, 2, -3): 7, (0, 0, 0): -2})
        assert (p + (-p)).terms == {}
        assert p - p == LAURENT.zero

    def test_negative_lam_exponent_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly({(-1, 0, 0): 1})

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(1000):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a * ONE == a
            assert a + LAURENT.zero == a

    def test_units(self):
        s3 = LAURENT.s_power(3)
        assert s3.is_unit() and s3.unit_inverse() == LAURENT.s_power(-3)
        assert not (ONE + LAM * MU).is_unit()
        neg = LAURENT.s_power(-1, -1)
        assert neg.is_unit()
        assert neg.unit_inverse() == LAURENT.s_power(1, -1)
        assert neg * neg.unit_inverse() == ONE
        with pytest.raises(ValueError):
            (LAM + MU).unit_inverse()

    def test_serialization_round_trip(self):
        rng = random.Random(6)
        for _ in range(200):
            p = random_poly(rng)
            doc = p.to_json()
            assert doc == sorted(doc)
            assert LaurentPoly.from_json(doc) == p


def schoolbook(xs, ys):
    """Reference product of two term dicts: one update per term pair."""
    out = {}
    for (a1, b1, c1), k1 in xs.items():
        for (a2, b2, c2), k2 in ys.items():
            mono = (a1 + a2, b1 + b2, c1 + c2)
            out[mono] = out.get(mono, 0) + k1 * k2
    return {mono: k for mono, k in out.items() if k}


# Terms (a, b, c) with b - a in {-1, 0, 1} and c in {-2, .., 1}: up to 12
# classes, dense along a.  The sparse strategy spreads terms over many
# classes with gaps along a.
DENSE_MONO = st.tuples(st.integers(0, 24), st.integers(-1, 1), st.integers(-2, 1)).map(
    lambda t: (t[0] + 1, t[0] + 1 + t[1], t[2])
)
SPARSE_MONO = st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(-40, 40))
COEFF = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))


def polys(mono):
    return st.dictionaries(mono, COEFF, max_size=40).map(LaurentPoly)


# One class (b - a, c), dense along a from a position lo, as every entry the
# builders make: the only operands the packed product packs.  The length is
# drawn uniformly, so that most pairs reach the packing thresholds.
HOMOGENEOUS = st.builds(
    lambda d, c, lo, coeffs: LaurentPoly(
        {(lo + i, lo + i + d, c): k for i, k in enumerate(coeffs)}),
    st.integers(-1, 1), st.integers(-2, 1), st.integers(1, 5),
    st.integers(0, 40).flatmap(lambda n: st.lists(COEFF, min_size=n, max_size=n)),
)
# A sum of two homogeneous polynomials has up to two classes, each dense
# along a: operands a wrong class check would pack.
POLYS = st.one_of(polys(DENSE_MONO), polys(SPARSE_MONO), HOMOGENEOUS,
                  st.builds(operator.add, HOMOGENEOUS, HOMOGENEOUS))
PAIRS = st.one_of(st.tuples(POLYS, POLYS), st.tuples(HOMOGENEOUS, HOMOGENEOUS))

ONE_CLASS = ((-1, -1),)
# Three classes (b - a, c) that differ in b - a, and three that differ only
# in the s power.
THREE_CLASSES = (((-1, -1), (0, -1), (1, -1)), ((-1, -1), (-1, -2), (-1, 0)))


def dense_poly(rng, n, classes=ONE_CLASS, bits=84):
    """n terms dealt in turn to the classes (b - a, c), contiguous along a
    in each, with big coefficients."""
    terms = {}
    for i in range(n):
        q, r = divmod(i, len(classes))
        d, c = classes[r]
        terms[(q + 1, q + 1 + d, c)] = rng.choice((-1, 1)) * rng.getrandbits(bits) | 1
    return LaurentPoly(terms)


def unused(*args):
    raise AssertionError("wrong product path")


# Shrinking the big-coefficient Laurent examples of a failing product test
# takes minutes; the failing example is reported as drawn.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


class TestProduct:
    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @given(PAIRS)
    def test_matches_schoolbook(self, pair):
        x, y = pair
        want = schoolbook(x.terms, y.terms)
        assert (x * y).terms == want
        assert (y * x).terms == want

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(PAIRS)
    def test_packed_product_exact_for_any_shape(self, pair):
        x, y = pair
        if x and y:
            assert ring_module._packed_product(x.terms, y.terms) == schoolbook(
                x.terms, y.terms
            )

    @settings(max_examples=100, deadline=None)
    @given(polys(DENSE_MONO), polys(DENSE_MONO))
    def test_cancellation_leaves_no_zero_terms(self, x, y):
        diff = (x + y) * (x - y) - (x * x - y * y)
        assert diff.terms == {}
        assert all(((x + y) * (x - y)).terms.values())

    @pytest.mark.parametrize("n1,n2,packed", [
        (3, 40, False), (4, 15, False), (4, 16, True), (8, 8, True),
        (33, 33, True), (1, 33, False), (0, 33, False),
    ])
    def test_both_sides_of_the_packing_rule(self, monkeypatch, n1, n2, packed):
        rng = random.Random(n1 * 100 + n2)
        x, y = dense_poly(rng, n1), dense_poly(rng, n2)
        want = schoolbook(x.terms, y.terms)
        other = "_schoolbook_product" if packed else "_packed_product"
        monkeypatch.setattr(ring_module, other, unused)
        assert (x * y).terms == want
        assert (y * x).terms == want

    @pytest.mark.parametrize("classes", THREE_CLASSES, ids=["b-a", "s"])
    @pytest.mark.parametrize("n1,n2,one_class", [
        (4, 16, False), (8, 8, False), (33, 33, False), (8, 33, True),
    ])
    def test_multi_class_operands_take_schoolbook(self, monkeypatch, classes,
                                                  n1, n2, one_class):
        rng = random.Random(n1 * 100 + n2)
        x = dense_poly(rng, n1, ONE_CLASS if one_class else classes)
        y = dense_poly(rng, n2, classes)
        want = schoolbook(x.terms, y.terms)
        calls = []
        real = ring_module._schoolbook_product
        monkeypatch.setattr(
            ring_module, "_schoolbook_product",
            lambda xs, ys: calls.append(1) or real(xs, ys),
        )
        monkeypatch.setattr(ring_module, "_pack_digits", unused)
        assert (x * y).terms == want
        assert (y * x).terms == want
        assert len(calls) == 2

    def test_sparse_operands_fall_back_to_schoolbook(self, monkeypatch):
        rng = random.Random(3)
        x = LaurentPoly({(10 * i, 10 * i, 0): rng.randrange(1, 9) for i in range(8)})
        y = dense_poly(rng, 16)
        want = schoolbook(x.terms, y.terms)
        calls = []
        real = ring_module._schoolbook_product
        monkeypatch.setattr(
            ring_module, "_schoolbook_product",
            lambda xs, ys: calls.append(1) or real(xs, ys),
        )
        assert (x * y).terms == want
        assert calls


class TestBalancedDigits:
    """The one packed format: _pack_digits, _balanced_digits and the width
    rule _digit_width."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_codec_at_the_rule_width(self, data):
        # Entries up to the bound, the bound itself and its negation (so a
        # negative top digit occurs), and differences of two entries: each
        # pack reads back whole, digit by digit, and its lowest nonzero digit
        # is its first nonzero entry.
        bound = data.draw(st.one_of(st.integers(0, 300), st.integers(0, 2**130)))
        entry = st.integers(-bound, bound)
        a = data.draw(st.lists(entry, min_size=1, max_size=12))
        a[-1] = data.draw(st.sampled_from([a[-1], -bound, bound]))
        b = data.draw(st.lists(entry, min_size=len(a), max_size=len(a)))
        width = ring_module._digit_width(bound)
        assert 2 * bound < 2 ** (8 * width - 1)
        if width > 1:
            assert 2 * bound >= 2 ** (8 * width - 9)  # the least such width
        for vec in (a, b, [x - y for x, y in zip(a, b)]):
            packed = ring_module._pack_digits(vec, width)
            digits = ring_module._balanced_digits(packed, width, len(vec))
            assert digits == vec
            assert (packed == 0) == (not any(vec))
            if any(vec):
                low = next(i for i, x in enumerate(digits) if x)
                assert low == next(i for i, x in enumerate(vec) if x)
                assert ((packed & -packed).bit_length() - 1) // (8 * width) == low

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_single_digit_reads_need_the_full_count(self, width):
        half = 1 << (8 * width - 1)
        vec = [3, -half, half - 1, 0, -1]  # a negative top digit
        packed = ring_module._pack_digits(vec, width)
        assert packed < 0
        for k, x in enumerate(vec):
            assert ring_module._balanced_digits(packed, width, len(vec))[k] == x
        with pytest.raises(OverflowError):
            ring_module._balanced_digits(packed, width, len(vec) - 1)
        assert ring_module._balanced_digits(0, width, 0) == []

    @staticmethod
    def _loop_pack(digits, width):
        """The pack one digit at a time, the contract _pack_digits keeps."""
        v = 0
        for k in reversed(digits):
            v = (v << (8 * width)) + k
        return v

    @pytest.mark.parametrize("n, width", [
        (20, 2), (80, 4), (1297, 16), (1297, 0), (7, 0),
        # digit counts around the cut-off in n * n * width, which is the
        # 16-digit cut-off at width 64
        *((math.isqrt(ring_module._PACK_LOOP_WORK // w) + d, w)
          for d in (-1, 0, 1, 2) for w in (1, 3, 8, 64)),
        (4097, 1), (0, 2), (1, 2),
    ])
    def test_halving_pack_is_the_digit_loop(self, n, width):
        # Balanced digits, digits past the range (so carries cross the
        # halves), and width 0, where the pack is the digits' sum.
        rng = random.Random(n * 64 + width)
        half = 1 << max(8 * width - 1, 0)
        for digits in (
            [rng.randrange(-half, half) for _ in range(n)],
            [rng.choice([-1, 1]) * rng.randrange(half, half << 200) for _ in range(n)],
            [rng.randrange(-(half << 40), half << 40) for _ in range(n)],
        ):
            for seq in (digits, tuple(digits)):
                assert ring_module._pack_digits(seq, width) == self._loop_pack(digits, width)


class TestSpecialize:
    def test_value(self):
        p = ONE - LAM * MU + LAM * LAM * MU * MU
        assert specialize(p, 2, 2, 5) == QpScalar(13, 0, 5)

    def test_s_inverse_lands_in_denominator(self):
        assert specialize(LAURENT.s_power(-1), 2, 2, 5) == QpScalar(1, 1, 5)

    def test_homomorphism_random(self):
        rng = random.Random(8)
        for _ in range(1000):
            u, v = random_poly(rng, 5), random_poly(rng, 5)
            su, sv = specialize(u, 2, 3, 5), specialize(v, 2, 3, 5)
            assert specialize(u * v, 2, 3, 5) == su * sv
            assert specialize(u + v, 2, 3, 5) == su + sv


class TestQpScalar:
    def test_normalization(self):
        q = QpScalar(50, 2, 5)
        assert (q.num, q.k) == (2, 0)
        assert QpScalar(0, 3, 5) == QpScalar(0, 0, 5)

    def test_matches_fraction_oracle(self):
        rng = random.Random(9)
        p = 5
        for _ in range(1000):
            a = QpScalar(rng.randrange(-200, 201), rng.randrange(4), p)
            b = QpScalar(rng.randrange(-200, 201), rng.randrange(4), p)
            assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()
            assert (a * b).to_fraction() == a.to_fraction() * b.to_fraction()
            assert (a - b).to_fraction() == a.to_fraction() - b.to_fraction()
            assert (a == b) == (a.to_fraction() == b.to_fraction())

    def test_unit_inverse(self):
        p = QpRing(5)
        s = p.from_int(5)
        assert s.unit_inverse() == QpScalar(1, 1, 5)
        assert s * s.unit_inverse() == p.one
        assert QpScalar(1, 2, 5).unit_inverse() == QpScalar(25, 0, 5)
        with pytest.raises(ValueError):
            p.from_int(3).unit_inverse()

    def test_zero_is_not_a_unit(self):
        zero = QpScalar(0, 0, 5)
        assert not zero.is_unit()
        assert not QpRing(5).is_unit(zero)
        with pytest.raises(ValueError):
            zero.unit_inverse()

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            QpScalar(1, 0, 5) + QpScalar(1, 0, 7)


class TestRingDescriptors:
    def test_round_trip(self):
        for ring in (LAURENT, QpRing(5), INT, QQ):
            assert ring_from_descriptor(ring.descriptor()) == ring

    def test_unit_test_and_inverse(self):
        q5 = QpRing(5)
        cases = [
            (LAURENT, [ONE, LAURENT.s_power(-3), LAURENT.s_power(2, -1)],
             [LAURENT.zero, LAM, ONE + S, LAURENT.from_int(2)]),
            (q5, [q5.one, q5.from_int(-25), QpScalar(-1, 3, 5)],
             [q5.zero, q5.from_int(2), QpScalar(3, 1, 5)]),
            (INT, [1, -1], [0, 2, -3]),
            (QQ, [Fraction(-2, 3), Fraction(5)], [Fraction(0)]),
        ]
        for ring, units, others in cases:
            for u in units:
                assert ring.is_unit(u)
                assert u * ring.unit_inverse(u) == ring.one
            for x in others:
                assert not ring.is_unit(x)
                with pytest.raises(ValueError):
                    ring.unit_inverse(x)

    def test_qp_requires_prime(self):
        with pytest.raises(ValueError):
            QpRing(6)

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(is_prime(n) == trial(n) for n in range(5000))

    def test_is_prime_large_primes_are_fast(self):
        started = time.perf_counter()
        assert is_prime(10000000000037)
        assert is_prime(2**64 - 59)  # 20 digits
        assert is_prime(2**61 - 1)
        assert QpRing(2**64 - 59).p == 2**64 - 59
        assert time.perf_counter() - started < 0.5

    def test_is_prime_rejects_pseudoprimes_and_squares(self):
        carmichael = (561, 41041)
        # Strong pseudoprimes to the bases 2..7 and 2..37: the last one is
        # caught only by the base 41.
        strong = (3215031751, 318665857834031151167461)
        squares = (49, 10007**2, (2**31 - 1) ** 2)
        for n in carmichael + strong + squares:
            assert not is_prime(n)

    def test_is_prime_refuses_beyond_proven_bound(self):
        with pytest.raises(ValueError):
            is_prime(10**29 + 1)
        with pytest.raises(ValueError):
            ring_from_descriptor({"kind": "qp", "prime": 10**29 + 1})

    def test_fraction_scalar_json(self):
        assert QQ.scalar_to_json(Fraction(3, 4)) == "3/4"
        assert QQ.scalar_from_json("3/4") == Fraction(3, 4)
        assert QQ.scalar_to_json(Fraction(5)) == "5"

    def test_module_specialize(self):
        assert specialize(S, 2, 2, 5) == QpScalar(5, 0, 5)


class TestScalarJsonText:
    """Each ring's scalar_json_text is the text _json_text writes for its
    scalar_to_json document, at any nesting prefix."""

    INDENTS = ("", "  ", "        ", "          ")

    def _check(self, ring, xs):
        for x in xs:
            for indent in self.INDENTS:
                assert ring.scalar_json_text(x, indent) == _json_text(
                    ring.scalar_to_json(x), indent), (x, indent)

    def test_laurent(self):
        rng = random.Random(31)
        big = 2**300
        polys = [LAURENT.zero, ONE, -S, LAURENT.s_power(-4, big),
                 LaurentPoly({(2, 1, -3): -big})]
        for n in (1, 40):
            for _ in range(5):
                monos = set()
                while len(monos) < n:
                    monos.add((rng.randrange(6), rng.randrange(6), rng.randrange(-5, 6)))
                monos = list(monos)
                rng.shuffle(monos)
                polys.append(LaurentPoly({mono: rng.choice([1, -1, 7, -5, big, -big - 1])
                                          for mono in monos}))
        # Terms in an order other than the sorted one must be written sorted.
        assert any(list(p.terms) != sorted(p.terms) for p in polys)
        self._check(LAURENT, polys)

    def test_qp(self):
        self._check(QpRing(5), [QpScalar(0, 0, 5), QpScalar(25, 0, 5), QpScalar(-3, 0, 5),
                                QpScalar(7, 3, 5), QpScalar(-(2**300), 1, 5)])

    def test_int(self):
        self._check(INT, [0, 1, -7, 2**300, -(2**300)])

    def test_fraction(self):
        self._check(QQ, [Fraction(0), Fraction(-5), Fraction(3, 4), Fraction(-(2**300), 7)])
