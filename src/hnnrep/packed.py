"""Integer linear algebra for the splittable engine's packed checks.

_integer_map compiles a fixed sparse integer matrix once into the source of
one list expression, so that applying it to a list of ints (packs among
them) costs one multiply-add per term.  _Span is the splittable engine's
one fraction-free Gauss-Jordan form, of the kernel rows in the Krylov walk
and of the candidates' values on those rows in the build, its rows kept
as packs in ring.py's balanced-digit format.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from .ring import _balanced_digits, _digit_width, _pack_digits

# CPython's compiler recurses once per term of a + chain and fails near
# 3,000 terms, so _map_source parenthesises long sums in groups.
_MAP_GROUP = 256


def _map_source(rows):
    """(source, namespace) of the map v -> [sum_i c_i * v[i] for each row]
    of sparse rows {index: coefficient}.  The source holds integer indices
    and names only: a coefficient of absolute value 1 is a sign, and every
    other one is a name bound in the namespace, one per distinct value."""
    names = {}
    sums = []
    for row in rows:
        terms = []
        for i, c in row.items():
            if not c:
                continue
            a = abs(c)
            name = "" if a == 1 else names.setdefault(a, f"k{len(names)}") + "*"
            terms.append(f"{'-' if c < 0 else '+'}{name}v[{i:d}]")
        while len(terms) > _MAP_GROUP:
            terms = [f"+({''.join(terms[j:j + _MAP_GROUP]).lstrip('+')})"
                     for j in range(0, len(terms), _MAP_GROUP)]
        sums.append("".join(terms).lstrip("+") or "0")
    return f"lambda v: [{', '.join(sums)}]", {n: a for a, n in names.items()}


def _integer_map(rows):
    """The compiled map v -> [sum_i c_i * v[i] for each row] of sparse rows
    {index: coefficient}: the list of the rows' values on the list v."""
    source, namespace = _map_source(rows)
    return eval(source, namespace)


def _integer_vector(values):
    """(den, integer list) for ints and Fractions: den is the lcm of their
    denominators and the integers are den * values."""
    if set(map(type, values)) <= {int}:
        return 1, list(values)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class _Span:
    """Fraction-free Gauss-Jordan form over Z of the span of some vectors.

    insert(v) adds a row with no basis index (the Krylov walk's rows), and
    add(...) the row of the next basis vector b_k (the build's).  Row i is
    an integer vector r_i, positive at its pivot column and zero at every
    other row's pivot, followed by its combination R_i over the basis, r_i
    = sum_k R_i[k] b_k modulo the rows with no index, entry k for the k-th
    add.  Each row is also one pack in ring.py's balanced digits, values
    then combination, at `width`: the exact sum of r 2^(8 width j) over its
    entries r, so the integer steps that change a row change its pack alike.

    reduce(v) eliminates every pivot at once.  With L the lcm of the pivot
    entries a_i of the rows whose pivot column is nonzero in v, and c_i =
    (L / a_i) v[p_i], the pack of sum_i c_i (r_i, R_i) - L (v, 0) costs one
    multiply-add per such row.  Its value digits are minus the residual and
    its combination digits the combination, all at most L |v|_inf + sum_i
    |c_i| |row i|_inf in absolute value, and v is in the span exactly when
    the value digits are zero: one test of the pack modulo 2^(8 width n).
    The packs are rebuilt wider when that bound needs it.  A new row
    updates only the rows that are nonzero at its pivot, and every row it
    makes is divided by its content."""

    def __init__(self):
        self.rows = []  # integer lists, values then combination
        self.pivots = []
        self._norms = []  # largest absolute entry of each row
        self._packs = []  # each row packed at self.width
        self.adds = 0  # basis vectors added, the length of a combination
        self.width = 0

    def _repack(self, width: int):
        self.width = width
        self._packs = [_pack_digits(row, width) for row in self.rows]

    def reduce(self, vec):
        """(residual, combo, scale), all integers with scale > 0, such that
        scale * vec - sum_k combo[k] * b_k - residual is in the span of the
        rows with no index and the residual is zero at every pivot.  The
        entries of vec may be ints or Fractions."""
        scale, vec = _integer_vector(vec)
        rows, pivots = self.rows, self.pivots
        hit = [i for i, p in enumerate(pivots) if vec[p]]
        if not hit:
            return vec, {}, scale
        heads = [rows[i][pivots[i]] for i in hit]
        lead = lcm(*heads)
        coeffs = [lead // a * vec[pivots[i]] for a, i in zip(heads, hit)]
        norms = map(self._norms.__getitem__, hit)
        bound = lead * max(map(abs, vec)) + sum(map(mul, map(abs, coeffs), norms))
        width = _digit_width(bound)
        if width > self.width:
            # Half as much again, so that growing bounds repack rarely.
            self._repack(width + width // 2)
        width, n, d = self.width, len(vec), self.adds
        total = sum(map(mul, coeffs, map(self._packs.__getitem__, hit)))
        total -= lead * _pack_digits(vec, width)
        if total & ((1 << (8 * width * n)) - 1):
            digits = _balanced_digits(total, width, n + d)
            residual = [-x for x in digits[:n]]
            digits = digits[n:]
        else:
            residual = [0] * n
            digits = _balanced_digits(total >> (8 * width * n), width, d)
        return residual, {k: x for k, x in enumerate(digits) if x}, scale * lead

    def insert(self, vec) -> bool:
        """Whether vec is outside the span; its row, with no basis index,
        is added when it is."""
        residual, _, _ = self.reduce(vec)
        if any(residual):
            self._append(residual)
        return any(residual)

    def add(self, residual, combo, scale):
        """Add the row of the next basis vector b_d, d = self.adds, from its
        nonzero residual: residual = scale * b_d - sum_k combo[k] * b_k
        modulo the rows with no index."""
        row = list(residual) + [0] * self.adds + [scale]
        for k, v in combo.items():
            row[len(residual) + k] = -v
        self.adds += 1
        self._append(row)

    def _append(self, row):
        """Append a row whose values are nonzero and zero at every pivot:
        its pivot is its first nonzero entry, made positive, and the other
        rows are eliminated there."""
        piv = next(i for i, v in enumerate(row) if v)
        g = gcd(*row) if row[piv] > 0 else -gcd(*row)
        row = [x // g for x in row]
        a, pack = row[piv], _pack_digits(row, self.width)
        for i, r in enumerate(self.rows):
            x = r[piv]
            if x:
                r = [a * u - x * v for u, v in zip_longest(r, row, fillvalue=0)]
                g = gcd(*r)
                self.rows[i] = r = [u // g for u in r]
                self._norms[i] = max(map(abs, r))
                self._packs[i] = (a * self._packs[i] - x * pack) // g
        self.rows.append(row)
        self.pivots.append(piv)
        self._norms.append(max(map(abs, row)))
        self._packs.append(pack)
