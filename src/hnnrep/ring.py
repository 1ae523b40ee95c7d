"""Exact scalar rings for the representation matrices.

LaurentPoly is an element of Z[lam, mu, s, s^-1]: lam and mu exponents are
non-negative (every matrix entry the constructions produce is polynomial in
lam, mu), the s exponent is unrestricted.  QpScalar is a rational x / p^k
with a fixed prime p.  Plain Python ints and Fractions serve as the integer
and rational scalar rings for the integer representation and the splittable
engine.

Each ring has a small descriptor object carrying zero/one, integer
embedding, a unit test with the unit inverse, and a bit-exact JSON encoding
of its scalars, both as a document (scalar_to_json) and as the text of that
document at a given indent (scalar_json_text), read back by
scalar_from_json.  QQ.scalar_from_json reads every exact rational in JSON.

Every LaurentPoly the builders make is homogeneous: its terms
lam^a mu^b s^c share one class (b - a, c).  sigma(lam e^-1, mu e) is sigma
conjugated by diag(1, e), so sigma's entry (r, c) lies in the class
(c - r, 0); the corner z adds one s power per block, and block products,
adjugates and the Artin conjugations keep one class per entry.
_packed_product relies on it: it packs an operand only after checking that
it has one class and is dense along a, and any other operand takes the
schoolbook loop, so every product stays exact.

Packed products (LaurentPoly products, _integer_eval in matrix, the
splittable engine's fresh-point checks) share one format.  Signed ints
k_0, .., k_(n-1) pack into the one int v = sum k_i 2^(8 w i), digit i
holding k_i (Kronecker substitution, _pack_digits), w a width in bytes.
When every digit lies in [-2^(8 w - 1), 2^(8 w - 1)) they are the balanced
base-2^(8 w) digits of v, and the packing is unique: v is 0 exactly when
every digit is, its lowest nonzero digit is the first nonzero entry, and
_balanced_digits reads the digits back.  Packs of one width add and
multiply by ints digit by digit, so an identity that holds entrywise holds
for the packs as long as every digit of the result stays balanced.  One
rule picks the width (_digit_width): digits of absolute value at most a
bound, and the differences of two of them, stay balanced.
"""

from __future__ import annotations

from fractions import Fraction

Monomial = "tuple[int, int, int]"  # exponents of (lam, mu, s)


class LaurentPoly:
    """Integer-coefficient polynomial in lam, mu and the invertible s."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                a, b, c = mono
                if a < 0 or b < 0:
                    raise ValueError(f"negative lam/mu exponent in {mono}")
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def const(cls, k: int) -> "LaurentPoly":
        return cls({(0, 0, 0): k})

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(a, b, c): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            elif mono in out:
                del out[mono]
        result = LaurentPoly()
        result.terms = out
        return result

    def __neg__(self):
        result = LaurentPoly()
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        xs, ys = self.terms, other.terms
        if len(xs) > len(ys):
            xs, ys = ys, xs
        result = LaurentPoly()
        if len(xs) == 1:
            # A monomial times anything only shifts exponents: no collisions.
            (((a0, b0, c0), k0),) = xs.items()
            result.terms = {
                (a + a0, b + b0, c + c0): k * k0 for (a, b, c), k in ys.items()
            }
        elif len(xs) >= _PACK_MIN_TERMS and len(xs) * len(ys) >= _PACK_MIN_PAIRS:
            result.terms = _packed_product(xs, ys)
        elif xs:
            result.terms = _schoolbook_product(xs, ys)
        return result

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use unit_inverse for negative powers")
        out = LaurentPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def is_unit(self) -> bool:
        """Units of the ring are exactly +-s^c."""
        if len(self.terms) != 1:
            return False
        ((a, b, _c),) = self.terms.keys()
        (coeff,) = self.terms.values()
        return a == 0 and b == 0 and coeff in (1, -1)

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ValueError(f"{self!r} is not a unit")
        ((_a, _b, c),) = self.terms.keys()
        (coeff,) = self.terms.values()
        return LaurentPoly({(0, 0, -c): coeff})

    @classmethod
    def from_graded_int(cls, v: int, width: int, d: int) -> "LaurentPoly":
        """The polynomial sum_a k_a lam^a mu^(a + d) whose value at
        lam = 2^(8 width), mu = 1 is v, given |k_a| < 2^(8 width - 2) for
        every a: its coefficients are the balanced base-2^(8 width) digits
        of v, and it has at most bits(v) / (8 width) + 1 of them."""
        n = abs(v).bit_length() // (8 * width) + 1
        result = cls()
        result.terms = {(a, a + d, 0): k for a, k in
                        enumerate(_balanced_digits(v, width, n)) if k}
        return result

    def to_json(self):
        return [[a, b, c, str(k)] for (a, b, c), k in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, doc) -> "LaurentPoly":
        """Read [[a, b, c, "coeff"], ...]; ValueError on anything else."""
        if not isinstance(doc, list):
            raise ValueError("Laurent polynomial must be a list of terms")
        terms = {}
        for term in doc:
            if not isinstance(term, list) or len(term) != 4:
                raise ValueError("Laurent term must be [a, b, c, coeff]")
            mono = tuple(_json_int(e, "exponent", text=False) for e in term[:3])
            if mono in terms:
                raise ValueError(f"repeated monomial {mono}")
            terms[mono] = _json_int(term[3], "coefficient")
        return cls(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), k in sorted(self.terms.items()):
            body = []
            if a:
                body.append(f"lam^{a}" if a != 1 else "lam")
            if b:
                body.append(f"mu^{b}" if b != 1 else "mu")
            if c:
                body.append(f"s^{c}" if c != 1 else "s")
            if abs(k) != 1 or not body:
                body.insert(0, str(abs(k)))
            term = "*".join(body)
            parts.append(("- " if k < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# LaurentPoly.__mul__ packs when the smaller operand has at least
# _PACK_MIN_TERMS terms and there are at least _PACK_MIN_PAIRS term pairs;
# below that, the per-call cost of packing exceeds the dict loop's.
_PACK_MIN_TERMS = 4
_PACK_MIN_PAIRS = 64


def _schoolbook_product(xs, ys):
    """Product of two term dicts, one dict update per term pair."""
    out = {}
    for (a1, b1, c1), k1 in xs.items():
        for (a2, b2, c2), k2 in ys.items():
            mono = (a1 + a2, b1 + b2, c1 + c2)
            new = out.get(mono, 0) + k1 * k2
            if new:
                out[mono] = new
            elif mono in out:
                del out[mono]
    return out


def _packed_product(xs, ys):
    """Product of two term dicts by Kronecker substitution.

    A term (a, b, c) lies in the class (b - a, c) at position a, and a
    product adds both the class and the position.  When each operand has
    one class and is dense, spanning at most twice as many positions as it
    has terms, it packs from its lowest a as balanced digits, one per
    position (_pack_digits), and the product is one big-int product whose
    digits are the coefficients of the product's one class.  Each result
    coefficient is a sum of at most min(len(xs), len(ys)) products of
    coefficients, so max|x| * max|y| * min(len(xs), len(ys)) bounds it, and
    digits of _digit_width of that bound read it back exactly.  A
    multi-class operand, or a sparse one whose empty slots would cost more
    than they save, takes the schoolbook loop, so the result is exact for
    every input.
    """
    px, py = _dense_class(xs), _dense_class(ys)
    if px is None or py is None:
        return _schoolbook_product(xs, ys)
    (d1, c1, lo1, digits1), (d2, c2, lo2, digits2) = px, py
    bound = (max(map(abs, xs.values())) * max(map(abs, ys.values()))
             * min(len(xs), len(ys)))
    width = _digit_width(bound)
    v = _pack_digits(digits1, width) * _pack_digits(digits2, width)
    lo, d, c = lo1 + lo2, d1 + d2, c1 + c2
    n = len(digits1) + len(digits2) - 1
    return {(lo + i, lo + i + d, c): k
            for i, k in enumerate(_balanced_digits(v, width, n)) if k}


def _dense_class(terms):
    """(b - a, c, lowest a, coefficients by a from the lowest) of terms
    that all lie in one class (b - a, c) and span at most 2 * len(terms)
    positions, else None."""
    a0, b0, c = next(iter(terms))
    d = b0 - a0
    if any(b - a != d or s != c for a, b, s in terms):
        return None
    lo, hi = min(a for a, _, _ in terms), max(a for a, _, _ in terms)
    if hi - lo >= 2 * len(terms):
        return None
    return d, c, lo, [terms.get((a, a + d, c), 0) for a in range(lo, hi + 1)]


def _digit_width(bound):
    """The least width w, in bytes, with 2 * bound < 2^(8 w - 1): digits of
    absolute value at most bound, and the differences of two of them, are
    balanced at that width."""
    return ((2 * bound).bit_length() + 8) // 8


def _pack_digits(digits, width):
    """sum k_i 2^(8 width i) for the digits k_0, k_1, .., lowest first."""
    shift = 8 * width
    v = 0
    for k in reversed(digits):
        v = (v << shift) + k
    return v


def _digit_offset(width, n):
    """Half the digit range at each of n digits of the given width."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _balanced_digits(v, width, n, offset=None):
    """The digits k_0, .., k_(n-1) of v = sum k_i 2^(8 width i), lowest
    first, each in [-2^(8 width - 1), 2^(8 width - 1)).  Adding the offset
    _digit_offset(width, n), which a caller reading many packs of one shape
    passes in, makes all digits non-negative, so they are read back with
    one to_bytes; OverflowError if v needs more than n digits, so reading
    one digit of a pack takes its full digit count."""
    half = 1 << (8 * width - 1)
    buf = (v + (offset or _digit_offset(width, n))).to_bytes(n * width, "little")
    return [int.from_bytes(buf[i:i + width], "little") - half
            for i in range(0, n * width, width)]


class QpScalar:
    """Rational num / p^k for a fixed prime p; p never divides num unless k = 0."""

    __slots__ = ("num", "k", "p")

    def __init__(self, num: int, k: int, p: int):
        if k < 0:
            raise ValueError("denominator exponent must be non-negative")
        while k > 0 and num % p == 0:
            num //= p
            k -= 1
        if num == 0:
            k = 0
        self.num = num
        self.k = k
        self.p = p

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __bool__(self):
        return self.num != 0

    def __eq__(self, other):
        return (
            isinstance(other, QpScalar)
            and self.p == other.p
            and self.num == other.num
            and self.k == other.k
        )

    def __add__(self, other):
        self._check(other)
        k = max(self.k, other.k)
        num = self.num * self.p ** (k - self.k) + other.num * self.p ** (k - other.k)
        return QpScalar(num, k, self.p)

    def __neg__(self):
        return QpScalar(-self.num, self.k, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return QpScalar(self.num * other.num, self.k + other.k, self.p)

    def is_unit(self) -> bool:
        """Units of Q_p are +-p^e; zero is not one."""
        num = abs(self.num)
        if num == 0:
            return False
        while num % self.p == 0:
            num //= self.p
        return num == 1

    def unit_inverse(self) -> "QpScalar":
        if not self.is_unit():
            raise ValueError(f"{self!r} is not a unit of Q_{self.p}")
        sign = 1 if self.num > 0 else -1
        e = 0  # value is sign * p^e
        num = abs(self.num)
        while num % self.p == 0:
            num //= self.p
            e += 1
        e -= self.k
        if e >= 0:
            return QpScalar(sign, e, self.p)
        return QpScalar(sign * self.p ** (-e), 0, self.p)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.k)

    def to_json(self):
        return [str(self.num), self.k]

    def __repr__(self):
        return str(self.num) if self.k == 0 else f"{self.num}/{self.p}^{self.k}"


def _json_int(x, what, text=True):
    """An int from a JSON integer, or from a decimal string when text is
    set; ValueError for anything else (bools and floats included)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if text and isinstance(x, str):
        return int(x)
    raise ValueError(f"{what} must be an integer, not {x!r}")


# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015), so is_prime is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.317 * 10^24; a
    larger n raises ValueError rather than guess."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: it is at least "
                         "3.317e24, where the Miller-Rabin bases are not proven")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class LaurentRing:
    kind = "laurent"

    @property
    def zero(self):
        return LaurentPoly()

    @property
    def one(self):
        return LaurentPoly.const(1)

    def from_int(self, k):
        return LaurentPoly.const(k)

    def lam(self):
        return LaurentPoly.monomial(1, 0, 0)

    def mu(self):
        return LaurentPoly.monomial(0, 1, 0)

    def s_power(self, c: int, coeff: int = 1):
        return LaurentPoly.monomial(0, 0, c, coeff)

    def is_unit(self, x) -> bool:
        """Units are +-s^c."""
        return x.is_unit()

    def unit_inverse(self, x):
        return x.unit_inverse()

    def descriptor(self):
        return {"kind": "laurent"}

    def scalar_to_json(self, x):
        return x.to_json()

    def scalar_json_text(self, x, indent):
        """The text of scalar_to_json(x) at nesting prefix indent, as
        matrix._json_text writes it, made directly: one f-string per term,
        in sorted order."""
        if not x.terms:
            return "[]"
        a = indent + "  "
        b = a + "  "
        return f"[\n{a}" + f",\n{a}".join(
            f'[\n{b}{p},\n{b}{q},\n{b}{c},\n{b}"{k}"\n{a}]'
            for (p, q, c), k in sorted(x.terms.items())) + f"\n{indent}]"

    def scalar_from_json(self, doc):
        return LaurentPoly.from_json(doc)

    def __eq__(self, other):
        return isinstance(other, LaurentRing)

    def __repr__(self):
        return "LaurentRing()"


# Largest denominator exponent k that a JSON Q_p entry [numerator, k] may
# carry.  Sums bring their terms to a common denominator p^k, so one sum
# with a large k costs time superlinear in k; the builds write k <= 1.
QP_MAX_JSON_EXPONENT = 10_000


class QpRing:
    kind = "qp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def zero(self):
        return QpScalar(0, 0, self.p)

    @property
    def one(self):
        return QpScalar(1, 0, self.p)

    def from_int(self, k):
        return QpScalar(k, 0, self.p)

    def is_unit(self, x) -> bool:
        """Units are +-p^e."""
        return x.is_unit()

    def unit_inverse(self, x):
        return x.unit_inverse()

    def descriptor(self):
        return {"kind": "qp", "prime": self.p}

    def scalar_to_json(self, x):
        return x.to_json()

    def scalar_json_text(self, x, indent):
        a = indent + "  "
        return f'[\n{a}"{x.num}",\n{a}{x.k}\n{indent}]'

    def scalar_from_json(self, doc):
        if not isinstance(doc, list) or len(doc) != 2:
            raise ValueError("Q_p scalar must be [numerator, k]")
        num = _json_int(doc[0], "numerator")
        k = _json_int(doc[1], "k", text=False)
        if k > QP_MAX_JSON_EXPONENT:
            raise ValueError(f"Q_p exponent k = {k} exceeds {QP_MAX_JSON_EXPONENT}")
        return QpScalar(num, k, self.p)

    def __eq__(self, other):
        return isinstance(other, QpRing) and self.p == other.p

    def __repr__(self):
        return f"QpRing({self.p})"


class IntRing:
    kind = "integer"
    zero = 0
    one = 1

    def from_int(self, k):
        return k

    def is_unit(self, x) -> bool:
        """Units are +-1."""
        return x in (1, -1)

    def unit_inverse(self, x):
        if not self.is_unit(x):
            raise ValueError(f"{x} is not a unit of Z")
        return x

    def descriptor(self):
        return {"kind": "integer"}

    def scalar_to_json(self, x):
        return str(x)

    def scalar_json_text(self, x, indent):
        return f'"{x}"'

    def scalar_from_json(self, doc):
        return _json_int(doc, "integer entry")

    def __eq__(self, other):
        return isinstance(other, IntRing)

    def __repr__(self):
        return "IntRing()"


# Largest |e| of a decimal exponent (1e5) in a rational JSON entry: entries
# are exact, and 1e2000000 would build a two-million-digit integer.
MAX_DECIMAL_EXPONENT = 10_000


class FractionRing:
    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def is_unit(self, x) -> bool:
        """Every nonzero rational is a unit."""
        return x != 0

    def unit_inverse(self, x):
        if not x:
            raise ValueError("0 is not a unit of Q")
        return 1 / Fraction(x)

    def descriptor(self):
        return {"kind": "rational"}

    def scalar_to_json(self, x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def scalar_json_text(self, x, indent):
        return f'"{self.scalar_to_json(x)}"'

    def scalar_from_json(self, doc):
        """The exact rational a JSON entry names: a JSON int, or the text of
        an integer, a fraction "p/q" or a decimal such as "0.25" or
        "2.5e0".  A decimal exponent past MAX_DECIMAL_EXPONENT is refused
        before the value is built.  Anything else (a bool, a float, a
        Fraction, malformed text, a zero denominator) raises ValueError."""
        if not isinstance(doc, str):
            return Fraction(_json_int(doc, "rational entry"))
        exponent = doc.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > len(str(MAX_DECIMAL_EXPONENT))
                                     or int(exponent) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"matrix entry {doc[:40]!r} has a decimal exponent "
                             f"past {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(doc)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {doc!r}") from None

    def __eq__(self, other):
        return isinstance(other, FractionRing)

    def __repr__(self):
        return "FractionRing()"


LAURENT = LaurentRing()
INT = IntRing()
QQ = FractionRing()


def ring_from_descriptor(doc):
    """The ring a descriptor names; ValueError for an unknown kind or a qp
    descriptor without a prime."""
    if not isinstance(doc, dict):
        raise ValueError("ring descriptor must be an object")
    kind = doc.get("kind")
    if kind == "laurent":
        return LAURENT
    if kind == "qp":
        return QpRing(_json_int(doc.get("prime"), "prime", text=False))
    if kind == "integer":
        return INT
    if kind == "rational":
        return QQ
    raise ValueError(f"unknown ring kind {kind!r}")
