"""Splittable-coordinates engine for semidirect products of matrix groups.

Given generator matrices for Phi <= GL_m and G <= GL_n and a conjugator
record tau, one pair (tau(l), tau(l)^-1) per Phi generator l with Phi
letter l acting on G as conjugation by tau(l) (see semidirect.py), the
engine closes the coordinate functions (entries of the Phi part and of the
G part) under the shift action f^x(y) = f(x y) and reads off a matrix
representation of Phi x| G of dimension at most m^2 + n^4.

Each element y has a kernel row k(y): its m^2 entries y.phi[k][j] and its
n^4 splitting-kernel values H_{p k1 k2 q}(y).  A shifted coordinate is
y -> c . k(y) for a coefficient vector c read off the shift, so the linear
relations among shifted coordinates are K^perp, K the span of the kernel
rows of the whole group.  Every element carries the tau pair of its
Phi-word as the product of its letters' pairs, (I, I) for the empty word,
so a Krylov walk finds K's Gauss-Jordan rows R exactly (_krylov_walk), and
the build decides each candidate c by its values R c (build_rep), with no
evaluation sample.  Every extracted expansion is still re-verified on a
fresh sample of random words, and the dimension bound is checked.

The engine computes on an exact kernel, a format only this module knows:
matrices are tuples of row tuples of ints and Fractions, converted once
from the generator pairs and tau's pairs, and every product of an element
by a generator is one _Kernel.step.  Action matrices
are sparse rows {column: coefficient}.  The fresh-sample check and
verify_rep read them as (den, integer rows), compile each fixed integer map
(packed._integer_map) and compute on packs in ring.py's balanced digits,
every width from a proven bound (_PackedPoints, verify_rep); a Fraction
appears only in a witness, and RingMatrix over QQ only at the API: tau's
pairs, `basis`, `actions` and `recover`.

The generator pairs, the conjugator records InnerTau and TrivialTau and the
Fraction reference API live in semidirect.py; this module re-exports them.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm, prod
from operator import mul

from ._record import Record
from .errors import DimensionBoundError, OracleError, VerificationError
from .matrix import RingMatrix, _block_mul, _matrix_json
from .packed import _integer_map, _integer_vector, _Span
from .ring import QQ, _balanced_digits, _digit_offset, _digit_width, _pack_digits
from .semidirect import (  # the reference API and tau records, re-exported
    InnerTau,
    MatrixGroupGens,
    SemidirectElement,
    TrivialTau,
    coord_name,
    coordinate_value,
    eval_word,
    generator_element,
    h_eval,
    letter_name,
    semidirect_identity,
    semidirect_mul,
    word_str,
)
from .words import reduced_walk

# --- The exact kernel ------------------------------------------------------
#
# A kernel matrix is a tuple of row tuples of exact numbers (ints, and
# Fractions for rational inputs, integral ones included); Python's numeric
# tower picks the arithmetic.  Sparse rows are dicts {column: coefficient}
# with no zero coefficient.


def _exact(x):
    """x as a kernel scalar: an int when integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def _kernel_matrix(mat: RingMatrix):
    return tuple(tuple(_exact(x) for x in row) for row in mat.rows)


def _kernel_identity(d: int):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _qq_matrix(rows, den=1) -> RingMatrix:
    """The kernel matrix rows / den as a RingMatrix over QQ with Fraction
    entries."""
    return RingMatrix(QQ, tuple(tuple(Fraction(x, den) for x in row) for row in rows))


def _dense_rows(rows, d: int):
    return tuple(tuple(row.get(j, 0) for j in range(d)) for row in rows)


def _integer_rows(rows):
    """(den, integer rows) for sparse rows of ints and Fractions: den is the
    lcm of their denominators and the integer rows are den * rows."""
    den = lcm(*(x.denominator for row in rows for x in row.values()))
    return den, tuple(
        {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        for row in rows
    )


def _norm(row):
    return sum(map(abs, row.values()))


class _Element:
    """A semidirect element in kernel form: its letter word, the kernel pair
    tau = (tau(w), tau(w)^-1) of its Phi-letter subsequence w, and the phi
    and g kernel matrices."""

    __slots__ = ("word", "tau", "phi", "g")

    def __init__(self, word, tau, phi, g):
        self.word = word
        self.tau = tau
        self.phi = phi
        self.g = g


class _Kernel:
    """(Phi, G, tau) in kernel form: the generator matrices by letter and
    the tau pair of each Phi letter, converted once from tau.pairs.  Each
    pair (t, t^-1) is checked one-sided, t t^-1 = I, which over Q gives the
    other side too (see MatrixGroupGens), and raises OracleError naming its
    Phi generator otherwise.  An element's tau pair is the product of its
    letters' pairs."""

    def __init__(self, phi_gens, g_gens, tau):
        ident = _kernel_identity(g_gens.degree)
        self.identity = _Element((), (ident, ident),
                                 _kernel_identity(phi_gens.degree), ident)
        self.mats = {
            (kind, idx, sign): _kernel_matrix(mat)
            for kind, gens in (("phi", phi_gens), ("g", g_gens))
            for idx, pair in enumerate(gens.pairs)
            for sign, mat in zip((1, -1), pair)
        }
        self.tau_letters = {}
        for idx, pair in enumerate(tau.pairs):
            t_val, t_inv = map(_kernel_matrix, pair)
            if _block_mul(t_val, t_inv, 0) != ident:
                raise OracleError(f"tau inverse wrong on phi{idx}")
            self.tau_letters["phi", idx, 1] = t_val, t_inv
            self.tau_letters["phi", idx, -1] = t_inv, t_val
        self._steps = {}

    def step(self, el: _Element, letter) -> _Element:
        """el times the generator of letter, by the product (phi1, g1)(phi2,
        g2) = (phi1 phi2, tau(phi2)^-1 g1 tau(phi2) g2) with one identity
        factor dropped: a Phi letter with matrix P and pair (t, t^-1) gives
        (phi P, t^-1 g t) and multiplies the pair on as (tau(w) t, t^-1
        tau(w)^-1), and a G letter with matrix M gives (phi, g M) and keeps
        the pair."""
        step = self._steps.get(letter)
        if step is None:
            step = self._steps[letter] = self._letter_step(letter)
        return step(el)

    def _letter_step(self, letter):
        mat, word = self.mats[letter], (letter,)
        if letter[0] == "g":
            return lambda el: _Element(el.word + word, el.tau, el.phi,
                                       _block_mul(el.g, mat, 0))
        t_val, t_inv = self.tau_letters[letter]
        # Row i of phi P is row i of phi times the columns of P.
        times = _integer_map([dict(enumerate(col)) for col in zip(*mat)])
        return lambda el: _Element(
            el.word + word,
            (_block_mul(el.tau[0], t_val, 0), _block_mul(t_inv, el.tau[1], 0)),
            tuple(map(tuple, map(times, el.phi))),
            _block_mul(_block_mul(t_inv, el.g, 0), t_val, 0))

    def eval_word(self, letters) -> _Element:
        out = self.identity
        for letter in letters:
            out = self.step(out, letter)
        return out

    def public(self, el: _Element) -> SemidirectElement:
        return SemidirectElement(el.word, _qq_matrix(el.phi), _qq_matrix(el.g))


def validate_tau(phi_gens, g_gens, tau):
    """The kernel form of (Phi, G, tau), checked: tau must be a conjugator
    record, with `degree` G's degree and `pairs` one pair per Phi generator,
    each multiplying to I (_Kernel).  Anything else, a black-box oracle of
    Phi-words included, raises OracleError."""
    pairs = getattr(tau, "pairs", None)
    if (getattr(tau, "degree", None) != g_gens.degree or pairs is None
            or len(pairs) != len(phi_gens.pairs)):
        raise OracleError(
            f"tau must be a conjugator record of degree {g_gens.degree} with "
            f"{len(phi_gens.pairs)} pairs, one per Phi generator")
    return _Kernel(phi_gens, g_gens, tau)


class ShiftedCoordinate(Record, frozen=True):
    """The function y -> coordinate(shift * y)."""

    _fields = ("coord", "shift")

    def __init__(self, coord: tuple, shift: SemidirectElement):
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "shift", shift)


def _kernel_row(kernel: _Kernel, y: _Element):
    """The kernel row of the point y: its m^2 entries y.phi[k][j], column j
    at [j m, (j + 1) m), then its n^4 values of the splitting kernel
    H_{p k1 k2 q}(y) = tau(y.phi)^-1[p][k1] * (tau(y.phi) y.g)[k2][q], for
    (p, q) at m^2 + (p n + q) n^2 and k1, k2 in order.  Every shifted
    coordinate is a fixed linear combination of these entries (see
    _shift_coefficients)."""
    t_val, t_inv = y.tau
    b_cols = tuple(zip(*_block_mul(t_val, y.g, 0)))
    n = len(b_cols)
    row = [x for col in zip(*y.phi) for x in col]
    row += [t * b for p in range(n) for q in range(n)
            for t in t_inv[p] for b in b_cols[q]]
    return row


def _krylov_walk(kernel: _Kernel, letters, width: int):
    """(rows, read): the Gauss-Jordan rows of K, the span of the kernel rows
    of every element, and the number of kernel rows the walk read.

    Each element carries tau of its Phi-word as the product of its letters'
    pairs, so k(y l) = R_l k(y) for one fixed matrix R_l per letter l, by
    construction, and K is the least subspace that holds k(1) and is stable
    under every R_l.  The walk goes breadth first from the identity over
    reduced words and extends only the words whose row is new to its
    _Span.  Every row read lies in the span N of the new rows, and R_l maps
    a new row of a word w to the row of w l, which is read, or of w's
    parent when l undoes w's last letter.  So N is R-stable and holds k(1):
    N = K, and the walk ends after rank K <= width new rows."""
    span, queue, read = _Span(), deque([kernel.identity]), 0
    while queue and len(span.rows) < width:
        el = queue.popleft()
        read += 1
        if span.insert(_kernel_row(kernel, el)):
            back = _inverse_letter(el.word[-1]) if el.word else None
            queue.extend(kernel.step(el, l) for l in letters if l != back)
    return span.rows, read


def _shift_coefficients(coord, shift, m: int):
    """(offset, coefficients) of the shifted coordinate y -> coord(shift *
    y): its value at a point is the dot product of the coefficients with
    the point's kernel row from offset on.  The Phi coordinate (i, j) is row
    i of shift.phi against column j of y.phi, and the G coordinate (p, q)
    is the flattened shift.g against the H_{p k1 k2 q}(y), k1 and k2 in
    order."""
    kind, i, j = coord
    if kind == "phi":
        return j * m, shift.phi[i]
    n = len(shift.g)
    return m * m + (i * n + j) * n * n, [x for row in shift.g for x in row]


class SplittableRep:
    """Result of the orbit closure: a basis of shifted coordinates, one
    action matrix per generator letter, and the expansion of every original
    coordinate function in the basis (used to recover elements).

    The engine's own data are sparse: `action_rows` maps a letter name to
    the rows {column: coefficient} of its action matrix, and `expansions`
    maps a coordinate id to {basis index: coefficient}; the checks and
    to_json read these.  `basis` and `actions`, the Fraction views of the
    basis and of the action rows, are built on first access."""

    def __init__(self, phi_gens, g_gens, tau, kernel, basis, action_rows,
                 expansions, sample_len, letters, walk):
        self.phi_gens = phi_gens
        self.g_gens = g_gens
        self.tau = tau
        self.sample_len = sample_len
        # The Krylov walk's rank K and the number of kernel rows it read.
        self.walk_rank, self.walk_rows = walk
        self.letters = tuple(letters)
        self._kernel = kernel
        self._shifts = tuple(basis)  # (coord id, kernel shift element)
        self.action_rows = action_rows
        self.expansions = expansions

    @cached_property
    def basis(self):
        return tuple(
            ShiftedCoordinate(coord, self._kernel.public(shift))
            for coord, shift in self._shifts
        )

    @cached_property
    def actions(self):
        d = self.dimension
        return {
            name: _qq_matrix(_dense_rows(rows, d))
            for name, rows in self.action_rows.items()
        }

    @property
    def dimension(self) -> int:
        return len(self._shifts)

    @property
    def m_degree(self) -> int:
        return self.phi_gens.degree

    @property
    def n_degree(self) -> int:
        return self.g_gens.degree

    def _integer_actions(self):
        """Each letter's action as (den, integer rows), read from
        action_rows at the time of the call."""
        return {l: _integer_rows(self.action_rows[letter_name(l)])
                for l in self.letters}

    def recover(self, action: RingMatrix):
        """Matrices (phi, g) read off an action matrix through the coordinate
        expansions evaluated at the identity."""
        recovery = _Recovery(self)
        idv = recovery.identity_values
        values = recovery.read([sum(map(mul, row, idv)) for row in action.rows])
        den = recovery.scale
        m, n = self.m_degree, self.n_degree
        return (
            _qq_matrix([values[i * m:(i + 1) * m] for i in range(m)], den),
            _qq_matrix([values[m * m + p * n:m * m + (p + 1) * n]
                        for p in range(n)], den),
        )

    def to_json(self):
        """The document, with the action matrices written straight from
        action_rows: str of an int or a Fraction is QQ's scalar text."""
        d = self.dimension
        return {
            "mDegree": self.m_degree,
            "nDegree": self.n_degree,
            "dimension": d,
            "basis": [
                {"coordId": coord_name(coord), "shiftWord": word_str(shift.word)}
                for coord, shift in self._shifts
            ],
            "actions": {
                name: _matrix_json(QQ, [[str(x) for x in row]
                                        for row in _dense_rows(rows, d)])
                for name, rows in sorted(self.action_rows.items())
            },
        }


class _Recovery:
    """The recovery map of a representation, in integers.

    Row i of an action matrix applied to the identity values of the basis
    functions is the value at the identity of basis function i shifted by
    the element, and a coordinate of the element is its expansion applied
    to those values.  The identity values and the expansions are scaled to
    integers by one common factor, so read(y), for y the integer action
    matrix den * A applied to identity_values, gives the coordinates of the
    element of A times den * scale: the Phi entries row by row, then the G
    entries (the order of coords), by the compiled map of the expansions
    (packed._integer_map)."""

    def __init__(self, rep: SplittableRep):
        m, n = rep.m_degree, rep.n_degree
        self.coords = [("phi", i, j) for i in range(m) for j in range(m)]
        self.coords += [("g", p, q) for p in range(n) for q in range(n)]
        idv = [
            (shift.phi if coord[0] == "phi" else shift.g)[coord[1]][coord[2]]
            for coord, shift in rep._shifts
        ]
        idv_den, self.identity_values = _integer_vector(idv)
        exp_den, expansions = _integer_rows(
            [rep.expansions[c] for c in self.coords])
        self.read = _integer_map(expansions)
        self.scale = idv_den * exp_den


def _letter_pairs(phi_gens, g_gens):
    """(letter, inverse letter) for every Phi generator, then every G one."""
    return tuple(
        ((kind, idx, 1), (kind, idx, -1))
        for kind, gens in (("phi", phi_gens), ("g", g_gens))
        for idx in range(len(gens.pairs))
    )


def _inverse_letter(letter):
    kind, idx, sign = letter
    return (kind, idx, -sign)


def _random_reduced_word(rng, letters, length):
    word = []
    while len(word) < length:
        letter = rng.choice(letters)
        if word and letter == _inverse_letter(word[-1]):
            continue
        word.append(letter)
    return tuple(word)


def build_rep(phi_gens: MatrixGroupGens, g_gens: MatrixGroupGens,
              tau, sample_len: int = 4) -> SplittableRep:
    """Close the coordinate functions under shifts by the generators and
    extract the action matrices.

    tau is the conjugator record of Phi's action on G (validate_tau): a
    MatrixGroupGens of degree n with one pair per Phi generator, InnerTau
    or TrivialTau.  A tau that fails validate_tau raises OracleError.

    The relations among shifted coordinates are exactly K^perp, K the span
    of the Krylov walk's rows R (_krylov_walk, exact for the kernel that
    validate_tau checked), so f_c = sum_j a_j f_(b_j) exactly when R c =
    sum_j a_j R b_j: each candidate c is decided by its values R c.
    sample_len sets the word lengths of the fresh-sample gate, sample_len +
    1 and + 2, which raises VerificationError if an expansion fails there.
    A negative sample_len, whose fresh sample is the identity alone, raises
    ValueError.

    The dimension stays within m^2 + n^4 by construction: the values R b_j
    of the basis functions are independent, so basis <= rank K <= m^2 +
    n^4.  The DimensionBoundError check states that bound and cannot fire.
    """
    if sample_len < 0:
        raise ValueError("sample_len must be at least 0")
    m, n = phi_gens.degree, g_gens.degree
    bound = m * m + n**4  # also the width of a kernel row
    pairs = _letter_pairs(phi_gens, g_gens)
    letters = tuple(letter for pair in pairs for letter in pair)
    kernel = validate_tau(phi_gens, g_gens, tau)
    k_rows, walk_rows = _krylov_walk(kernel, letters, bound)
    rank, span = len(k_rows), _Span()
    # R by columns {row: entry}: R c sums the columns where c is nonzero.
    columns = [{i: x for i, x in enumerate(col) if x} for col in zip(*k_rows)]

    coords = [("phi", i, j) for i in range(m) for j in range(m)]
    coords += [("g", p, q) for p in range(n) for q in range(n)]

    basis = []  # (coord id, kernel shift element)
    expansions = {}
    action_rows = {letter: {} for letter in letters}
    pending = deque()

    def expand(coord, shift):
        """The sparse expansion of coord shifted by shift in the basis; a
        function outside the span becomes the next basis function."""
        off, coeffs = _shift_coefficients(coord, shift, m)
        vec = [0] * rank
        for x, col in zip(coeffs, columns[off:]):
            if x:
                for i, r in col.items():
                    vec[i] += x * r
        residual, combo, scale = span.reduce(vec)
        if not any(residual):
            return {k: _exact(Fraction(v, scale)) for k, v in combo.items()}
        idx = len(basis)
        if idx + 1 > bound:
            raise DimensionBoundError(
                f"closure exceeded the bound m^2 + n^4 = {bound}"
            )
        basis.append((coord, shift))
        span.add(residual, combo, scale)
        pending.extend((idx, letter) for letter in letters)
        return {idx: 1}

    for coord in coords:
        expansions[coord] = expand(coord, kernel.identity)

    while pending:
        i, letter = pending.popleft()
        coord, shift = basis[i]
        action_rows[letter][i] = expand(coord, kernel.step(shift, letter))

    d = len(basis)
    rows = {
        letter_name(letter): tuple(action_rows[letter][i] for i in range(d))
        for letter in letters
    }
    rep = SplittableRep(
        phi_gens, g_gens, tau, kernel, basis, rows, expansions,
        sample_len, letters, (rank, walk_rows),
    )
    _fresh_sample_check(rep)
    return rep


class _PackedPoints:
    """Evaluation points, given by their words and kernel rows, and the
    basis functions of a representation, in packed form (ring.py's
    balanced digits, one digit per point), for checking combinations of
    basis functions.

    Every value at a point y is linear in y's kernel row, so scaling the
    row by a positive factor s_y scales them all and keeps every per-point
    equality.  Each row is scaled to integers by s_y, the lcm of its
    denominators, and each kernel column, its entries over the points, is
    one pack.  A shifted coordinate with integer coefficients (its shift's
    coefficients times their lcm e) is then the dot product of the
    coefficients with its block of column packs: its digit at y is
    e * s_y * value(y).  The basis functions' packs are scaled to
    integers by one common factor D, the lcm of their shifts' e: basis
    function j's digit at y is D * s_y * b_j(y).

    check(coord, shift, combo, den) compares den * coord(shift * y) with
    sum_j combo[j] * b_j(y) at every point as one equation of packs,
    den * D * direct == e * total, both sides with digit y equal to
    e * D * s_y times the two sides at y.  check_product checks every
    basis function shifted by one element (see there).  Each comparison
    bounds the digits of both sides from the largest entry of the columns
    and of the basis packs and the 1-norms of its coefficients, and
    repacks wider when that bound needs a wider digit than the packs have
    (ring._digit_width), so no digit ever overflows."""

    def __init__(self, words, rows, m, shifts):
        self.words = words
        self.m = m
        self.scales, int_rows = [], []
        for row in rows:
            scale, row = _integer_vector(row)
            self.scales.append(scale)
            int_rows.append(row)
        # One column per kernel row entry, m^2 + n^4, also with no points.
        n = len(shifts[0][1].g) if shifts else 0
        self._columns = [[row[j] for row in int_rows] for j in range(m * m + n**4)]
        self._col_max = max((abs(x) for r in int_rows for x in r), default=0)
        self._basis = []  # (offset, e, integer coefficients)
        for coord, shift in shifts:
            off, coeffs = _shift_coefficients(coord, shift, m)
            self._basis.append((off, *_integer_vector(coeffs)))
        self.basis_den = lcm(*(e for _, e, _ in self._basis))
        # Basis pack j is D / e times the dot product of its coefficients
        # with its block of columns.
        self._basis_packs = _integer_map([
            {off + t: self.basis_den // e * c for t, c in enumerate(coeffs)}
            for off, e, coeffs in self._basis])
        # Basis pack j's digits are at most D / e * |e c|_1 * (largest entry).
        self._basis_bounds = [self.basis_den // e * sum(map(abs, c)) * self._col_max
                              for _, e, c in self._basis]
        self._basis_max = max(self._basis_bounds, default=0)
        self.width = 0  # nothing packed until the first check

    def _repack(self, width: int):
        self.width = width
        self._packed_columns = [_pack_digits(col, width) for col in self._columns]
        self._packed_basis = self._basis_packs(self._packed_columns)

    def _witness(self, lhs, rhs, scale):
        """The first point where the packs lhs and rhs differ, and their
        digits there divided by scale * s_y: the direct value and the
        combination."""
        n, width = len(self.words), self.width
        k = next(k for k, x in enumerate(_balanced_digits(lhs - rhs, width, n)) if x)
        direct, total = (_balanced_digits(v, width, n)[k] for v in (lhs, rhs))
        s = self.scales[k] * scale
        return (f"at fresh word {word_str(self.words[k])}: direct value "
                f"{Fraction(direct, s)}, combination {Fraction(total, s)}")

    def check(self, coord, shift, combo, den):
        off, coeffs = _shift_coefficients(coord, shift, self.m)
        e, coeffs = _integer_vector(coeffs)
        lhs_scale = den * self.basis_den
        bound = max(lhs_scale * sum(map(abs, coeffs)) * self._col_max,
                    e * sum(map(abs, combo.values())) * self._basis_max)
        width = _digit_width(bound)
        if width > self.width:
            # Half as much again, so that growing bounds repack rarely.
            self._repack(width + width // 2)
        basis = self._packed_basis
        lhs = lhs_scale * sum(map(mul, coeffs, self._packed_columns[off:]))
        rhs = e * sum(c * basis[j] for j, c in combo.items())
        return None if lhs == rhs else self._witness(lhs, rhs, e * lhs_scale)

    def check_product(self, phi, t_inv, r, actions):
        """Check that each basis function b_i shifted by an element E is
        sum_j A[i][j] b_j at every point, A the action of a word of E: None
        when all agree, else (i, witness) for the first i that differs.

        phi is E.phi, (t_val, t_inv) = E.tau, E's carried pair, r = t_val
        E.g, and actions holds the word's letters in order as _LetterRows:
        the integer matrix L = den * A(letter), its rows and their compiled
        map, and its largest row 1-norm.

        The direct side reassociates: b_i(E y) = coord_i(shift_i (E y)),
        and the kernel row of E y is y's transformed by E.  Column block j
        of y.phi becomes phi times it, and the G block (p, q), the n x n
        matrix H(y) of the H_{p k1 k2 q}(y), becomes t_inv^T H(y) r^T.  With
        the transform scaled to integers by f, basis pack i taken against
        the transformed column packs has digit D f s_y b_i(E y).  The other
        side applies the letters right to left to the basis packs, V' = L V
        for each letter's integer rows L, so that V_i has digit
        D s_y (den A)[i] . b(y), den the product of the letters' dens.  The
        check is den B'_i == f V_i.

        Digit bounds: a transformed column is at most a row 1-norm of the
        transform (phi's, or t_inv^T's times r's) times the largest column
        entry, and V_i at most the product of the letters' norms times the
        largest basis digit.  When those do not fit the packs, V_i is
        bounded by (|L_1| .. |L_k| u)_i, u the bounds of the basis digits,
        and the width is fitted per basis function, in basis order; a
        repack recomputes both sides at the new width."""
        # f scales t_inv and r to integers, so f^2 scales the transform.
        f = lcm(*(x.denominator for mat in (phi, t_inv, r) for row in mat for x in row))
        phi = [[(x * f * f).numerator for x in row] for row in phi]
        t_cols = [[(x * f).numerator for x in col] for col in zip(*t_inv)]
        r = [[(x * f).numerator for x in row] for row in r]
        f *= f
        phi_norm, t_norm, r_norm = (max([sum(map(abs, row)) for row in mat] or [0])
                                    for mat in (phi, t_cols, r))
        grow = max(phi_norm, t_norm * r_norm)
        den = prod(a.den for a in actions)
        lhs = [den * b * grow for b in self._basis_bounds]
        rhs = [f * prod(a.norm for a in actions) * self._basis_max] * len(lhs)
        if _digit_width(max(lhs + rhs + [0])) > self.width:
            # A bound, run a few times per call: not worth compiling |L|.
            rhs = self._basis_bounds
            for a in reversed(actions):
                rhs = [sum(abs(x) * rhs[j] for j, x in row.items()) for row in a.rows]
            rhs = [f * v for v in rhs]
        packs = None
        for i, bound in enumerate(map(max, lhs, rhs)):
            width = _digit_width(bound)
            if width > self.width:
                self._repack(width + width // 2)
                packs = None
            if packs is None:
                combined = self._packed_basis
                for a in reversed(actions):
                    combined = a.apply(combined)
                packs = self._transform(phi, t_cols, r), combined
            left, right = den * packs[0][i], f * packs[1][i]
            if left != right:
                return i, self._witness(left, right, den * f * self.basis_den)
        return None

    def _transform(self, phi, t_cols, r):
        """The basis packs against the column packs transformed by an
        element (see check_product)."""
        cols, m, n = self._packed_columns, self.m, len(r)
        y = tuple(zip(*(cols[j * m:j * m + m] for j in range(m))))
        out = [x for col in zip(*_block_mul(phi, y, 0)) for x in col]
        for o in range(m * m, len(cols), max(1, n * n)):
            h = tuple(cols[k:k + n] for k in range(o, o + n * n, n))
            out += chain(*_block_mul(_block_mul(t_cols, h, 0), tuple(zip(*r)), 0))
        return self._basis_packs(out)

    __call__ = check


class _LetterRows:
    """A letter's integer action matrix L = den * A(letter): its sparse rows,
    apply(v) = L v compiled (packed._integer_map), and norm, the largest row
    1-norm of L."""

    def __init__(self, den, rows):
        self.den = den
        self.rows = rows
        self.norm = max(map(_norm, rows), default=0)
        self.apply = _integer_map(rows)


def _fresh_points(rep: SplittableRep, words):
    """A checker on the fresh evaluation points kernel.eval_word(w), w in
    words: their _PackedPoints, called as check.

    check(coord, shift, combo, den) compares the shifted coordinate
    y -> coord(shift * y) with the combination sum_j combo[j] / den *
    (basis function j), for integer coefficients combo[j], at each point,
    in the order of words.  It returns None when they agree everywhere,
    and otherwise names the first differing point: "at fresh word w: direct
    value v, combination c".

    Every point is packed with its kernel row (_PackedPoints), so a check
    is one equation of packs, whatever the number of points; digits are
    read back only when it fails, from the lowest nonzero digit of the
    packed difference."""
    kernel = rep._kernel
    rows = [_kernel_row(kernel, kernel.eval_word(w)) for w in words]
    return _PackedPoints(words, rows, len(kernel.identity.phi), rep._shifts)


def _fresh_sample_check(rep: SplittableRep):
    """Re-verify every extracted expansion identity on fresh elements: the
    distinct words among 40 random ones of lengths sample_len + 1 and + 2.
    The relations are exact for the kernel's tau by construction, so this
    gate guards the engine itself."""
    rng = random.Random(271828)
    words = sorted({
        _random_reduced_word(rng, rep.letters, length)
        for length in (rep.sample_len + 1, rep.sample_len + 2)
        for _ in range(40 if rep.letters else 0)
    })
    kernel = rep._kernel
    mismatch = _fresh_points(rep, words)

    def check(what, coord, shift, combo, den):
        bad = mismatch(coord, shift, combo, den)
        if bad is not None:
            raise VerificationError(f"fresh-sample check failed for {what} {bad}")

    for coord, combo in rep.expansions.items():
        den, (combo,) = _integer_rows((combo,))
        check(f"coordinate {coord_name(coord)}", coord, kernel.identity, combo, den)
    for letter, (den, rows) in rep._integer_actions().items():
        for i, (coord, shift) in enumerate(rep._shifts):
            check(f"basis {i} under {letter_name(letter)}", coord,
                  kernel.step(shift, letter), rows[i], den)


def conjugation_matrix(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Matrix of M -> a M b on n x n matrices in the row-major basis."""
    n, a, b = a.degree, a.rows, b.rows
    return RingMatrix(QQ, tuple(
        tuple(a[i][k] * b[l][j] for k in range(n) for l in range(n))
        for i in range(n) for j in range(n)))


def int_g_rep(g_gens: MatrixGroupGens, sample_len: int = 4) -> SplittableRep:
    """Representation of Int(G) x| G: Phi is the conjugation action of G on
    the n^2-dimensional matrix space (so m = n^2) and tau is G's own pairs
    (InnerTau).  Dimension at most 2 n^4."""
    phi_pairs = tuple(
        (conjugation_matrix(mat, inv), conjugation_matrix(inv, mat))
        for mat, inv in g_gens.pairs
    )
    phi_gens = MatrixGroupGens(g_gens.degree**2, phi_pairs)
    tau = InnerTau(g_gens)
    return build_rep(phi_gens, g_gens, tau, sample_len)


class SplittableReport(Record):
    _fields = (
        "max_len", "words_checked", "identity_actions", "pairs_checked",
        "injectivity_failures", "recovery_failures", "homomorphism_failures",
        "well_definedness_failures", "witness")

    def __init__(self, max_len: int, words_checked: int = 0,
                 identity_actions: int = 0, pairs_checked: int = 0,
                 injectivity_failures: int = 0, recovery_failures: int = 0,
                 homomorphism_failures: int = 0, well_definedness_failures: int = 0,
                 witness: str | None = None):
        self.max_len = max_len
        self.words_checked = words_checked
        self.identity_actions = identity_actions
        self.pairs_checked = pairs_checked
        self.injectivity_failures = injectivity_failures
        self.recovery_failures = recovery_failures
        self.homomorphism_failures = homomorphism_failures
        # Walked words whose pair is the identity but whose action is not.
        self.well_definedness_failures = well_definedness_failures
        # The first failure found, naming its word and the differing values.
        self.witness = witness

    @property
    def ok(self) -> bool:
        return not (self.injectivity_failures or self.recovery_failures
                    or self.homomorphism_failures or self.well_definedness_failures)


def verify_rep(rep: SplittableRep, max_len: int, pairs: int = 100,
               seed: int = 0) -> SplittableReport:
    """Exhaustive injectivity and recovery check to max_len, plus a random
    check that products of action matrices act like the product elements.

    Injectivity: an identity action matrix must recover the identity pair.
    Well-definedness: a word whose pair is the identity must act as the
    identity, so the action is a function of the pair on the walked words.
    Recovery: the coordinates read off the action matrix must equal the
    directly computed element coordinates, for every enumerated word.
    Homomorphism: for random word pairs (u, v), the matrix action(u)action(v)
    must shift the basis functions exactly like the element of u v, checked
    by evaluation on fresh sample points (_PackedPoints.check_product).  A
    max_len below 1 raises ValueError.

    The walk keeps den * A(w) as d column packs, column j with digit i the
    entry (i, j), and appends a letter with integer matrix L = den_l * A(l)
    as new column j = sum_k L[k][j] * column k.  An entry of a product of
    integer matrices is at most the product of their largest column
    1-norms, a recovery digit (den * A(w) applied to the identity values)
    at most that times the 1-norm of the identity values, and den at most
    the product of the letters' dens, so one width fits the whole walk.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    report = SplittableReport(max_len=max_len)
    kernel = rep._kernel
    letters = rep.letters
    d = rep.dimension
    recovery = _Recovery(rep)
    idv = recovery.identity_values
    identity = kernel.identity
    # Each letter's integer matrix den * A, read now: its rows for the
    # pairs, and the map of its columns for the walk.
    rows, columns, norm = {}, {}, 1
    for letter, (den, int_rows) in rep._integer_actions().items():
        int_cols = [{} for _ in range(d)]
        for k, row in enumerate(int_rows):
            for j, x in row.items():
                int_cols[j][k] = x
        rows[letter] = _LetterRows(den, int_rows)
        columns[letter] = den, _integer_map(int_cols)
        norm = max(norm, den, *map(_norm, int_cols))
    width = _digit_width(norm**max_len * max(1, sum(map(abs, idv))))
    offset = _digit_offset(width, d)
    units = [1 << (8 * width * j) for j in range(d)]

    def note(message):
        if report.witness is None:
            report.witness = message

    def check(element, den, cols):
        report.words_checked += 1
        scale = den * recovery.scale
        got = recovery.read(_balanced_digits(sum(map(mul, idv, cols)), width, d, offset))
        values = [x for mat in (element.phi, element.g) for row in mat for x in row]
        if got != [x * scale for x in values]:
            report.recovery_failures += 1
            k = next(k for k, x in enumerate(values) if got[k] != x * scale)
            note(f"recovery failure at word {word_str(element.word)}: "
                 f"{coord_name(recovery.coords[k])} reads "
                 f"{Fraction(got[k], scale)}, the element has {values[k]}")
        identity_pair = element.phi == identity.phi and element.g == identity.g
        if all(col == den * unit for col, unit in zip(cols, units)):
            report.identity_actions += 1
            if not identity_pair:
                report.injectivity_failures += 1
                note(f"identity action at word {word_str(element.word)}")
        elif identity_pair:
            report.well_definedness_failures += 1
            note(f"identity pair at word {word_str(element.word)} acts as a "
                 "non-identity matrix")

    def step(state, letter):
        element, den, cols = state
        l_den, l_cols = columns[letter]
        return kernel.step(element, letter), den * l_den, l_cols(cols)

    root = (identity, 1, units)
    check(*root)
    alphabet = _letter_pairs(rep.phi_gens, rep.g_gens)
    for _, state in reduced_walk(alphabet, max_len, root, step):
        check(*state)

    # Random semantic homomorphism check on fresh evaluation points.
    rng = random.Random(seed)
    fresh_words = [
        _random_reduced_word(rng, letters, max_len + 2) for _ in range(20)
    ] if letters else []
    points = _fresh_points(rep, fresh_words)
    for _ in range(pairs if letters else 0):
        u = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        v = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        element = kernel.eval_word(u + v)
        t_val, t_inv = element.tau
        report.pairs_checked += 1
        bad = points.check_product(element.phi, t_inv, _block_mul(t_val, element.g, 0),
                                   [rows[letter] for letter in u + v])
        if bad is not None:
            report.homomorphism_failures += 1
            note(f"homomorphism failure for u = {word_str(u)}, "
                 f"v = {word_str(v)}: basis {bad[0]} {bad[1]}")
    return report
