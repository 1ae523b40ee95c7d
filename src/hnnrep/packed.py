"""Integer linear algebra for the splittable engine's packed checks.

_integer_map compiles a fixed sparse integer matrix into straight-line code,
as dataclasses generates its methods, so that applying it to a list of ints
(packs among them) costs one multiply-add per term.  _Span is the build's
fraction-free Gauss-Jordan span of coefficient vectors modulo relations,
its rows kept as packs in ring.py's balanced-digit format.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm

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
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class _Span:
    """Fraction-free Gauss-Jordan form over Z of vectors b_k modulo the span
    of some relation vectors.

    _Span(relations) starts from the rows of the relations, which carry no
    basis index: a vector and its combination over the basis are decided
    modulo them.  Row i is an integer vector r_i, positive at its pivot
    column and zero at every other row's pivot, followed by its combination
    R_i over the basis, r_i = sum_k R_i[k] b_k modulo the relations, one
    entry per basis vector added so far (entry j for the basis vector of the
    j-th add; a relation row has none until an add eliminates it).  Each row
    is also one pack in ring.py's balanced digits, values then combination,
    at `width`: the exact sum of r 2^(8 width j) over its entries r, so the
    integer steps that change a row change its pack alike.

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

    def __init__(self, relations=()):
        self.rows = []  # integer lists, values then combination
        self.pivots = []
        self._norms = []  # largest absolute entry of each row
        self._packs = []  # each row packed at self.width
        self._indices = []  # the basis index of each combination entry
        self.width = 0
        for vec in relations:
            residual, _, _ = self.reduce(vec)
            if any(residual):
                self._insert(residual)

    def _repack(self, width: int):
        self.width = width
        self._packs = [_pack_digits(row, width) for row in self.rows]

    def reduce(self, vec):
        """(residual, combo, scale), all integers with scale > 0, such that
        scale * vec - sum_k combo[k] * b_k - residual is in the span of the
        relations and the residual is zero at every pivot.  The entries of
        vec may be ints or Fractions."""
        scale, vec = _integer_vector(vec)
        rows = self.rows
        hits = [(rows[i][p], x, i) for i, p in enumerate(self.pivots) if (x := vec[p])]
        if not hits:
            return vec, {}, scale
        lead = lcm(*(a for a, _, _ in hits))
        hits = [(lead // a * x, i) for a, x, i in hits]
        bound = lead * max(map(abs, vec)) + sum(abs(c) * self._norms[i] for c, i in hits)
        width = _digit_width(bound)
        if width > self.width:
            # Half as much again, so that growing bounds repack rarely.
            self._repack(width + width // 2)
        width, n, packs = self.width, len(vec), self._packs
        indices = self._indices
        total = sum(c * packs[i] for c, i in hits) - lead * _pack_digits(vec, width)
        if total & ((1 << (8 * width * n)) - 1):
            digits = _balanced_digits(total, width, n + len(indices))
            residual = [-x for x in digits[:n]]
            digits = digits[n:]
        else:
            residual = [0] * n
            digits = _balanced_digits(total >> (8 * width * n), width, len(indices))
        return residual, {indices[j]: x for j, x in enumerate(digits) if x}, scale * lead

    def add(self, residual, combo, scale, index):
        """Add the row of basis vector b_index from its nonzero residual:
        residual = scale * b_index - sum_k combo[k] * b_k modulo the
        relations."""
        n, position = len(residual), {k: j for j, k in enumerate(self._indices)}
        row = list(residual) + [0] * len(position) + [scale]
        for k, v in combo.items():
            row[n + position[k]] = -v
        self._indices.append(index)
        self._insert(row)

    def _insert(self, row):
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
