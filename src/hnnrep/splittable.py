"""Splittable-coordinates engine for semidirect products of matrix groups.

Given generator matrices for Phi <= GL_m and G <= GL_n and a conjugator
oracle tau sending Phi-words to matrices g_phi realizing the action of Phi
on G by conjugation, the engine closes the coordinate functions (entries of
the Phi part and of the G part) under the shift action f^x(y) = f(x y) and
reads off a matrix representation of Phi x| G of dimension at most
m^2 + n^4.

Span membership is decided by exact linear algebra on a deterministic
evaluation sample (all reduced generator words up to a given length).
Sampling cannot prove a function lies in a span, so every extracted
expansion is re-verified on a disjoint fresh sample, and the dimension
bound is enforced as a hard error.

Each sample point y has a kernel row: its m^2 entries y.phi[k][j] and its
n^4 splitting-kernel values H_{p k1 k2 q}(y).  A shifted coordinate's
values on a sample S are K_S c, for the kernel rows K_S and a coefficient
vector c read off the shift, so a linear relation holds among value
vectors on S exactly when it holds on any subset of S whose kernel rows
span the row space of K_S.  The build therefore decides spans on the
points that raise the rank, in walk order (26 of 457 for Int(G).G of a
rank-2 SL_2(Z) pair at sample length 3): the same basis, expansions and
action matrices as the whole sample gives.  The fresh points are pruned
the same way (_Sample), with the same verdicts and witnesses: a mismatch
at a point is linear in its kernel row, so the first failing point is
outside the span of the points before it, and it is kept.

The engine computes on an exact kernel: its matrices are tuples of row
tuples, ints for integer inputs and ints and Fractions, some of them
integral, for rational ones.  They are converted once from the generator
pairs and once per Phi-word from the tau pairs, and multiplied by
matrix._block_mul.  Span membership is decided fraction-free over Z, and
the action matrices are kept as sparse rows {column: coefficient}.  The
checks read them once per call as (den, integer rows), den the lcm of the
denominators, and multiply ints; recovery and the identity test compare
against den times the element and den times I, and a Fraction appears
only in a witness.  RingMatrix over QQ (Fraction entries) appears only at
the API: the basis elements, `actions`, `action_of_word`, `recover` and
`to_json`.

`semidirect_identity`, `generator_element`, `semidirect_mul`, `eval_word`,
`coordinate_value` and `h_eval` are the public Fraction reference API: they
compute semidirect products, coordinates and the splitting kernel on
RingMatrix over QQ straight from the definitions, for checking the kernel
against.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DimensionBoundError, OracleError, VerificationError
from .matrix import RingMatrix, _block_mul
from .ring import QQ
from .words import reduced_walk

# A letter of the semidirect product alphabet: (kind, generator index, sign).
Letter = "tuple[str, int, int]"
# A coordinate function id: (kind, row, col), 0-based.
CoordId = "tuple[str, int, int]"


def letter_name(letter) -> str:
    kind, idx, sign = letter
    return f"{kind}{idx}" + ("" if sign == 1 else "^-1")


def word_str(word) -> str:
    return " ".join(letter_name(l) for l in word) if word else "ε"


def coord_name(coord) -> str:
    kind, i, j = coord
    return f"{'Phi' if kind == 'phi' else 'G'}({i + 1},{j + 1})"


@dataclass(frozen=True)
class MatrixGroupGens:
    """Generators of a matrix group, each paired with its inverse.

    A pair (A, B) is checked one-sided, A B = I.  That suffices: A and B
    are square over Q, so A B = I gives det A det B = 1, A is invertible,
    and B = A^-1, so B A = I as well."""

    degree: int
    pairs: tuple

    def __post_init__(self):
        ident = RingMatrix.identity(QQ, self.degree)
        for mat, inv in self.pairs:
            if mat.degree != self.degree or inv.degree != self.degree:
                raise ValueError("generator degree mismatch")
            if mat * inv != ident:
                raise ValueError("generator pair does not multiply to identity")

    @classmethod
    def trivial(cls) -> "MatrixGroupGens":
        return cls(0, ())

    @classmethod
    def from_int_rows(cls, degree, gens) -> "MatrixGroupGens":
        pairs = tuple(
            (RingMatrix.from_ints(QQ, mat), RingMatrix.from_ints(QQ, inv))
            for mat, inv in gens
        )
        return cls(degree, pairs)

    def to_json(self):
        return {
            "degree": self.degree,
            "generators": [
                {"matrix": _rows_to_json(m), "inverse": _rows_to_json(i)}
                for m, i in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "MatrixGroupGens":
        """Read {"degree": int, "generators": [{"matrix": rows, "inverse":
        rows}, ..]}; a document of another shape raises ValueError."""
        if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
            raise ValueError('document must be an object with a "generators" list')
        degree = doc.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise ValueError('"degree" must be a non-negative integer')
        pairs = []
        for g in doc["generators"]:
            if not isinstance(g, dict):
                raise ValueError("each generator must be an object")
            pairs.append(
                (_rows_from_json(g.get("matrix")), _rows_from_json(g.get("inverse")))
            )
        return cls(degree, tuple(pairs))


def _rows_to_json(m: RingMatrix):
    return [[QQ.scalar_to_json(x) for x in row] for row in m.rows]


def _rows_from_json(rows) -> RingMatrix:
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and all(isinstance(x, (int, float, str)) and not isinstance(x, bool)
                for x in row)
        for row in rows
    ):
        raise ValueError(
            '"matrix" and "inverse" must be lists of rows of numbers or strings'
        )
    try:
        entries = tuple(tuple(Fraction(str(x)) for x in row) for row in rows)
    except ZeroDivisionError:
        raise ValueError("matrix entry with a zero denominator") from None
    return RingMatrix(QQ, entries)


@dataclass(frozen=True)
class SemidirectElement:
    """Element (phi, g) of the semidirect product, with the generator word
    it was built from.

    The phi component of a product of generators is the product of the phi
    letters in order, so phi_word is the phi-letter subsequence of word.  The
    g component is twisted by tau, so its matrix is authoritative.
    """

    word: tuple
    phi_mat: RingMatrix
    g_mat: RingMatrix

    @property
    def phi_word(self):
        return tuple((idx, sign) for kind, idx, sign in self.word if kind == "phi")

    def word_str(self) -> str:
        return word_str(self.word)


class TauOracle:
    """Maps Phi-words to (g_phi, g_phi^-1) realizing the action on G."""

    def tau_pair(self, phi_word):
        raise NotImplementedError


class TrivialTau(TauOracle):
    """Oracle for a trivial Phi: only the empty word occurs."""

    def __init__(self, n_degree: int):
        ident = RingMatrix.identity(QQ, n_degree)
        self._pair = (ident, ident)

    def tau_pair(self, phi_word):
        if phi_word:
            raise OracleError("trivial Phi has no nonempty words")
        return self._pair


class InnerTau(TauOracle):
    """Phi generator i acts on G as conjugation by G generator i; a Phi-word
    maps to the same word evaluated over the G generators."""

    def __init__(self, g_gens: MatrixGroupGens):
        self.g_gens = g_gens
        ident = RingMatrix.identity(QQ, g_gens.degree)
        self._memo = {(): (ident, ident)}

    def tau_pair(self, phi_word):
        phi_word = tuple(phi_word)
        if phi_word not in self._memo:
            val_prev, inv_prev = self.tau_pair(phi_word[:-1])
            idx, sign = phi_word[-1]
            mat, inv = self.g_gens.pairs[idx]
            if sign == -1:
                mat, inv = inv, mat
            self._memo[phi_word] = (val_prev * mat, inv * inv_prev)
        return self._memo[phi_word]


def semidirect_identity(phi_degree: int, g_degree: int) -> SemidirectElement:
    return SemidirectElement(
        (), RingMatrix.identity(QQ, phi_degree), RingMatrix.identity(QQ, g_degree)
    )


def generator_element(letter, phi_gens, g_gens) -> SemidirectElement:
    kind, idx, sign = letter
    phi = RingMatrix.identity(QQ, phi_gens.degree)
    g = RingMatrix.identity(QQ, g_gens.degree)
    if kind == "phi":
        phi = phi_gens.pairs[idx][sign != 1]
    elif kind == "g":
        g = g_gens.pairs[idx][sign != 1]
    else:
        raise ValueError(f"unknown letter kind {kind!r}")
    return SemidirectElement(((kind, idx, sign),), phi, g)


def semidirect_mul(e1: SemidirectElement, e2: SemidirectElement,
                   tau: TauOracle) -> SemidirectElement:
    """(phi1, g1)(phi2, g2) = (phi1 phi2, tau(phi2)^-1 g1 tau(phi2) g2)."""
    t_val, t_inv = tau.tau_pair(e2.phi_word)
    return SemidirectElement(
        e1.word + e2.word,
        e1.phi_mat * e2.phi_mat,
        t_inv * e1.g_mat * t_val * e2.g_mat,
    )


def eval_word(letters, phi_gens, g_gens, tau) -> SemidirectElement:
    out = semidirect_identity(phi_gens.degree, g_gens.degree)
    for letter in letters:
        out = semidirect_mul(out, generator_element(letter, phi_gens, g_gens), tau)
    return out


def coordinate_value(coord, element: SemidirectElement) -> Fraction:
    kind, i, j = coord
    mat = element.phi_mat if kind == "phi" else element.g_mat
    return mat.rows[i][j]


def h_eval(p, k1, k2, q, element: SemidirectElement, tau: TauOracle) -> Fraction:
    """The splitting kernel H_{p k1 k2 q} at (phi2, g2): the sum over k3 of
    entries (g_phi2^-1)[p][k1] * (g_phi2)[k2][k3] * (g2)[k3][q]."""
    t_val, t_inv = tau.tau_pair(element.phi_word)
    n = element.g_mat.degree
    total = Fraction(0)
    for k3 in range(n):
        total += t_inv.rows[p][k1] * t_val.rows[k2][k3] * element.g_mat.rows[k3][q]
    return total


# --- The exact kernel ------------------------------------------------------
#
# A kernel matrix is a tuple of row tuples of exact numbers (ints, and
# Fractions for rational inputs, integral ones included); Python's numeric
# tower picks the arithmetic.  Kernel rows and shifts are read through
# _exact, so the sample's dot products stay in ints where they can.  Sparse
# rows are dicts {column: coefficient} with no zero coefficient, so two
# sparse matrices are equal exactly when their rows compare equal.


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


def _sparse_rows(rows):
    return tuple({j: _exact(x) for j, x in enumerate(row) if x} for row in rows)


def _sparse_identity(d: int):
    return tuple({i: 1} for i in range(d))


def _dense_rows(rows, d: int):
    return tuple(tuple(row.get(j, 0) for j in range(d)) for row in rows)


def _sparse_mul(a, b):
    """Product of two matrices given as sparse rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return tuple(out)


def _integer_rows(rows):
    """(den, integer rows) for sparse rows of ints and Fractions: den is the
    lcm of their denominators and the integer rows are den * rows."""
    den = lcm(*(x.denominator for row in rows for x in row.values()))
    return den, tuple(
        {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        for row in rows
    )


def _word_rows(actions, letters, d: int):
    """(den, integer rows) of the action of a word, from actions mapping a
    letter to its (den, integer rows): the product folded from the first
    letter, with the dens multiplied.  The empty word gives the identity."""
    if not letters:
        return 1, _sparse_identity(d)
    den, rows = actions[letters[0]]
    for letter in letters[1:]:
        l_den, l_rows = actions[letter]
        den *= l_den
        rows = _sparse_mul(rows, l_rows)
    return den, rows


class _Element:
    """A semidirect element in kernel form: its letter word, the Phi-letter
    subsequence as (index, sign) pairs, and the phi and g kernel matrices."""

    __slots__ = ("word", "phi_word", "phi", "g")

    def __init__(self, word, phi_word, phi, g):
        self.word = word
        self.phi_word = phi_word
        self.phi = phi
        self.g = g


class _Kernel:
    """(Phi, G, tau) in kernel form: the generator elements, built once from
    the generator pairs, and the tau pairs, converted once per Phi-word."""

    def __init__(self, phi_gens, g_gens, tau):
        self.tau = tau
        self._tau_pairs = {}
        phi_id = _kernel_identity(phi_gens.degree)
        g_id = _kernel_identity(g_gens.degree)
        self.identity = _Element((), (), phi_id, g_id)
        self.gens = {}
        for kind, gens in (("phi", phi_gens), ("g", g_gens)):
            for idx, pair in enumerate(gens.pairs):
                for sign, mat in zip((1, -1), pair):
                    letter = (kind, idx, sign)
                    mat = _kernel_matrix(mat)
                    self.gens[letter] = (
                        _Element((letter,), ((idx, sign),), mat, g_id)
                        if kind == "phi" else
                        _Element((letter,), (), phi_id, mat)
                    )

    def tau_pair(self, phi_word):
        pair = self._tau_pairs.get(phi_word)
        if pair is None:
            val, inv = self.tau.tau_pair(phi_word)
            pair = (_kernel_matrix(val), _kernel_matrix(inv))
            self._tau_pairs[phi_word] = pair
        return pair

    def mul(self, e1: _Element, e2: _Element) -> _Element:
        """(phi1, g1)(phi2, g2) = (phi1 phi2, tau(phi2)^-1 g1 tau(phi2) g2)."""
        t_val, t_inv = self.tau_pair(e2.phi_word)
        return _Element(
            e1.word + e2.word,
            e1.phi_word + e2.phi_word,
            _block_mul(e1.phi, e2.phi, 0),
            _block_mul(_block_mul(t_inv, e1.g, 0), _block_mul(t_val, e2.g, 0), 0),
        )

    def eval_word(self, letters) -> _Element:
        out = self.identity
        for letter in letters:
            out = self.mul(out, self.gens[letter])
        return out

    def public(self, el: _Element) -> SemidirectElement:
        return SemidirectElement(el.word, _qq_matrix(el.phi), _qq_matrix(el.g))


def _conjugate_by_letter(kernel, mat, letter):
    lv, linv = kernel.tau_pair((letter,))
    return _block_mul(_block_mul(linv, mat, 0), lv, 0)


def validate_tau(phi_gens, g_gens, tau, word_len: int = 3):
    """Check the oracle contract on short Phi-words: tau inverts correctly
    and word-level conjugation agrees with letter-by-letter conjugation.
    The inverse is checked one-sided, tau(w) tau(w)^-1 = I, which for
    square matrices over Q gives the other side too (see MatrixGroupGens).

    Returns the kernel form of (Phi, G, tau) that was checked, holding the
    tau pairs of the Phi-words of length at most word_len."""
    kernel = _Kernel(phi_gens, g_gens, tau)
    ident = kernel.identity.g
    g_mats = tuple(kernel.gens[("g", idx, 1)].g for idx in range(len(g_gens.pairs)))
    pairs = [((idx, 1), (idx, -1)) for idx in range(len(phi_gens.pairs))]
    # A Phi-word's state: the G generators conjugated by its letters one at
    # a time, the expected word-level conjugates.
    words = reduced_walk(pairs, word_len, g_mats, lambda expected, l: tuple(
        _conjugate_by_letter(kernel, e, l) for e in expected))
    for w, expected in chain([((), g_mats)], words):
        t_val, t_inv = kernel.tau_pair(w)
        if _block_mul(t_val, t_inv, 0) != ident:
            raise OracleError(f"tau inverse wrong on {w}")
        for g_mat, exp in zip(g_mats, expected):
            if _block_mul(_block_mul(t_inv, g_mat, 0), t_val, 0) != exp:
                raise OracleError(
                    f"tau({w}) does not realize the letterwise action"
                )
    return kernel


@dataclass(frozen=True)
class ShiftedCoordinate:
    """The function y -> coordinate(shift * y)."""

    coord: tuple
    shift: SemidirectElement


def _kernel_row(kernel: _Kernel, y: _Element):
    """The kernel row of the point y: its m^2 entries y.phi[k][j], column j
    at [j m, (j + 1) m), then its n^4 values of the splitting kernel
    H_{p k1 k2 q}(y) = tau(y.phi)^-1[p][k1] * (tau(y.phi) y.g)[k2][q], for
    (p, q) at m^2 + (p n + q) n^2 and k1, k2 in order.  Every shifted
    coordinate is a fixed linear combination of these entries (see
    _Sample)."""
    t_val, t_inv = kernel.tau_pair(y.phi_word)
    b_cols = tuple(zip(*_block_mul(t_val, y.g, 0)))
    n = len(b_cols)
    row = [x for col in zip(*y.phi) for x in col]
    row += [t * b for p in range(n) for q in range(n)
            for t in t_inv[p] for b in b_cols[q]]
    return [_exact(x) for x in row]


def _row_basis(rows):
    """Indices, in order, of the rows that are not in the span of the rows
    before them: a row basis of the row space.

    The null space of the rows picked so far is kept as a basis of integer
    vectors.  A row outside the span of the picked rows has a nonzero dot
    product with one of them, the pivot; the others are then made
    orthogonal to the row fraction-free, p * u - (row . u) * v for the
    pivot v with p = row . v, and divided by their content."""
    width = len(rows[0]) if rows else 0
    null = [[int(i == j) for j in range(width)] for i in range(width)]
    picked = []
    for idx, row in enumerate(rows):
        if not null:
            break
        den = lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
        piv = next(((k, p) for k, v in enumerate(null)
                    if (p := sum(map(mul, row, v)))), None)
        if piv is None:
            continue
        picked.append(idx)
        k, p = piv
        v = null.pop(k)
        for k, u in enumerate(null[k:], k):
            c = sum(map(mul, row, u))
            if c:
                u = [p * a - c * b for a, b in zip(u, v)]
                g = gcd(*u)
                null[k] = [a // g for a in u] if g > 1 else u
    return picked


class _Sample:
    """Evaluation points, given as (word, kernel element) pairs, pruned to
    the points whose kernel rows (_kernel_row) raise the rank, in order
    (_row_basis); words holds the kept points' words.  A linear relation
    among shifted coordinates holds on the kept points exactly when it
    holds on all of them.

    A shifted coordinate is one dot product per kept point: at a point y
    and for the shift x, the Phi coordinate (i, j) is row i of x.phi times
    column j of y.phi, and the G coordinate (p, q) is the sum over k1, k2
    of x.g[k1][k2] * H_{p k1 k2 q}(y)."""

    def __init__(self, kernel: _Kernel, points):
        words, rows = [], []
        for word, el in points:
            words.append(word)
            rows.append(_kernel_row(kernel, el))
        keep = _row_basis(rows)
        self.words = [words[i] for i in keep]
        rows = [rows[i] for i in keep]
        m, n = len(kernel.identity.phi), len(kernel.identity.g)
        self._phi_cols = [[r[j * m:(j + 1) * m] for r in rows] for j in range(m)]
        self._h = {}
        for p in range(n):
            for q in range(n):
                start = m * m + (p * n + q) * n * n
                self._h[p, q] = [r[start:start + n * n] for r in rows]

    def values(self, coord, shift: _Element):
        """The shifted coordinate y -> coord(shift * y) at every point."""
        kind, i, j = coord
        if kind == "phi":
            row = [_exact(x) for x in shift.phi[i]]
            return [sum(map(mul, row, col)) for col in self._phi_cols[j]]
        flat = [_exact(x) for row in shift.g for x in row]
        return [sum(map(mul, flat, h)) for h in self._h[i, j]]


class _Span:
    """Fraction-free echelon form over Z of the basis value vectors b_k.

    A row is an integer vector r with a positive pivot entry and its
    combination R, so that r = sum_k R[k] * b_k.  Reduction eliminates the
    pivots Bareiss style, scaling by the pivot entry instead of dividing by
    it, and divides out the common factor after every step."""

    def __init__(self):
        self.rows = []  # (integer vector, combination dict, pivot column)

    def reduce(self, vec):
        """(residual, combo, scale), all integers with scale > 0, such that
        scale * vec - sum_k combo[k] * b_k == residual and the residual is
        zero at every pivot.  The entries of vec may be ints or Fractions."""
        scale = lcm(*(x.denominator for x in vec))
        vec = [x.numerator * (scale // x.denominator) for x in vec]
        combo = {}
        for row, rcombo, piv in self.rows:
            c = vec[piv]
            if not c:
                continue
            p = row[piv]
            vec = [p * v - c * r for v, r in zip(vec, row)]
            combo = {k: p * v for k, v in combo.items()}
            for k, v in rcombo.items():
                combo[k] = combo.get(k, 0) + c * v
            scale *= p
            g = gcd(scale, *combo.values())
            if g > 1:
                g = gcd(g, *vec)
                if g > 1:
                    vec = [v // g for v in vec]
                    combo = {k: v // g for k, v in combo.items()}
                    scale //= g
        return vec, {k: v for k, v in combo.items() if v}, scale

    def add(self, residual, combo, scale, index):
        """Add the row of basis vector b_index from its nonzero residual:
        residual = scale * b_index - sum_k combo[k] * b_k."""
        piv = next(i for i, v in enumerate(residual) if v)
        sign = 1 if residual[piv] > 0 else -1
        rcombo = {k: -sign * v for k, v in combo.items()}
        rcombo[index] = sign * scale
        self.rows.append(([sign * v for v in residual], rcombo, piv))


class SplittableRep:
    """Result of the orbit closure: a basis of shifted coordinates, one
    action matrix per generator letter, and the expansion of every original
    coordinate function in the basis (used to recover elements).

    The engine's own data are sparse: `action_rows` maps a letter name to
    the rows {column: coefficient} of its action matrix, and `expansions`
    maps a coordinate id to {basis index: coefficient}; the checks read
    these.  `actions` is the Fraction view of the action rows."""

    def __init__(self, phi_gens, g_gens, tau, kernel, basis, action_rows,
                 expansions, sample_len, letters):
        self.phi_gens = phi_gens
        self.g_gens = g_gens
        self.tau = tau
        self.sample_len = sample_len
        self.letters = tuple(letters)
        self._kernel = kernel
        self._shifts = tuple(basis)  # (coord id, kernel shift element)
        self.basis = tuple(
            ShiftedCoordinate(coord, kernel.public(shift)) for coord, shift in basis
        )
        self.action_rows = action_rows
        self.expansions = expansions
        d = self.dimension
        self.actions = {
            name: _qq_matrix(_dense_rows(rows, d))
            for name, rows in action_rows.items()
        }

    @property
    def dimension(self) -> int:
        return len(self.basis)

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

    def action_of_word(self, letters) -> RingMatrix:
        d = self.dimension
        den, rows = _word_rows(self._integer_actions(), tuple(letters), d)
        return _qq_matrix(_dense_rows(rows, d), den)

    def recover(self, action: RingMatrix):
        """Matrices (phi, g) read off an action matrix through the coordinate
        expansions evaluated at the identity."""
        den, rows = _integer_rows(_sparse_rows(action.rows))
        recovery = _Recovery(self)
        values = recovery.read(rows)
        den *= recovery.scale
        m, n = self.m_degree, self.n_degree
        return (
            _qq_matrix([values[i * m:(i + 1) * m] for i in range(m)], den),
            _qq_matrix([values[m * m + p * n:m * m + (p + 1) * n]
                        for p in range(n)], den),
        )

    def to_json(self):
        return {
            "mDegree": self.m_degree,
            "nDegree": self.n_degree,
            "dimension": self.dimension,
            "basis": [
                {"coordId": coord_name(b.coord), "shiftWord": b.shift.word_str()}
                for b in self.basis
            ],
            "actions": {
                name: mat.to_json() for name, mat in sorted(self.actions.items())
            },
        }


class _Recovery:
    """The recovery map of a representation, in integers.

    Row i of an action matrix applied to the identity values of the basis
    functions is the value at the identity of basis function i shifted by
    the element, and a coordinate of the element is its expansion applied
    to those values.  The identity values and the expansions are scaled to
    integers by one common factor, so read(rows) for integer action rows
    den * A gives the coordinates of the element of A times den * scale:
    the Phi entries row by row, then the G entries (the order of coords)."""

    def __init__(self, rep: SplittableRep):
        m, n = rep.m_degree, rep.n_degree
        self.coords = [("phi", i, j) for i in range(m) for j in range(m)]
        self.coords += [("g", p, q) for p in range(n) for q in range(n)]
        idv = [
            (shift.phi if coord[0] == "phi" else shift.g)[coord[1]][coord[2]]
            for coord, shift in rep._shifts
        ]
        idv_den = lcm(*(x.denominator for x in idv))
        self.identity_values = [
            x.numerator * (idv_den // x.denominator) for x in idv
        ]
        exp_den, self.expansions = _integer_rows(
            [rep.expansions[c] for c in self.coords])
        self.scale = idv_den * exp_den
        self.rows_read = sorted(set().union(*self.expansions))

    def read(self, rows):
        idv = self.identity_values
        y = {i: sum(c * idv[j] for j, c in rows[i].items())
             for i in self.rows_read}
        return [sum(c * y[i] for i, c in e.items()) for e in self.expansions]


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
        letter = letters[rng.randrange(len(letters))]
        if word and letter == _inverse_letter(word[-1]):
            continue
        word.append(letter)
    return tuple(word)


def build_rep(phi_gens: MatrixGroupGens, g_gens: MatrixGroupGens,
              tau: TauOracle, sample_len: int = 4) -> SplittableRep:
    """Close the coordinate functions under shifts by the generators and
    extract the action matrices.

    Raises DimensionBoundError if the closure exceeds m^2 + n^4 (an
    inconsistent oracle) and VerificationError if an extracted expansion
    fails on the disjoint fresh sample (insufficient sample_len).  A
    negative sample_len, whose fresh sample is the identity alone, raises
    ValueError.
    """
    if sample_len < 0:
        raise ValueError("sample_len must be at least 0")
    m, n = phi_gens.degree, g_gens.degree
    bound = m * m + n**4
    pairs = _letter_pairs(phi_gens, g_gens)
    letters = tuple(letter for pair in pairs for letter in pair)
    # The engine consults tau on phi-words as long as the fresh sample, so
    # the oracle contract is sampled to that depth.
    kernel = validate_tau(phi_gens, g_gens, tau, word_len=sample_len + 2)
    words = reduced_walk(pairs, sample_len, kernel.identity,
                         lambda el, l: kernel.mul(el, kernel.gens[l]))
    # Relations among shifted coordinates on the sample are relations among
    # their coefficient vectors modulo the null space of the kernel rows,
    # so a row basis of the sample decides them exactly as the whole does.
    sample = _Sample(kernel, chain([((), kernel.identity)], words))

    coords = [("phi", i, j) for i in range(m) for j in range(m)]
    coords += [("g", p, q) for p in range(n) for q in range(n)]

    basis = []  # (coord id, kernel shift element)
    span = _Span()
    expansions = {}
    action_rows = {letter: {} for letter in letters}
    pending = deque()

    def expand(coord, shift):
        """The sparse expansion of coord shifted by shift in the basis; a
        function outside the span becomes the next basis function."""
        residual, combo, scale = span.reduce(sample.values(coord, shift))
        if not any(residual):
            return {k: _exact(Fraction(v, scale)) for k, v in combo.items()}
        idx = len(basis)
        if idx + 1 > bound:
            raise DimensionBoundError(
                f"closure exceeded the bound m^2 + n^4 = {bound}"
            )
        basis.append((coord, shift))
        span.add(residual, combo, scale, idx)
        pending.extend((idx, letter) for letter in letters)
        return {idx: 1}

    for coord in coords:
        expansions[coord] = expand(coord, kernel.identity)

    while pending:
        i, letter = pending.popleft()
        coord, shift = basis[i]
        action_rows[letter][i] = expand(
            coord, kernel.mul(shift, kernel.gens[letter])
        )

    d = len(basis)
    rows = {
        letter_name(letter): tuple(action_rows[letter][i] for i in range(d))
        for letter in letters
    }
    rep = SplittableRep(
        phi_gens, g_gens, tau, kernel, basis, rows, expansions,
        sample_len, letters,
    )
    _fresh_sample_check(rep)
    return rep


def _fresh_points(rep: SplittableRep, words):
    """A checker on the fresh evaluation points kernel.eval_word(w), w in
    words.

    check(coord, shift, combo, den) compares the shifted coordinate
    y -> coord(shift * y) with the combination sum_j combo[j] / den *
    (basis function j), for integer coefficients combo[j], at each point,
    in the order of words.  It returns None when they agree everywhere,
    and otherwise names the first differing point: "at fresh word w: direct
    value v, combination c".  The points are pruned to a row basis as the
    build sample is (_Sample), which keeps the verdict and the first
    differing point."""
    kernel = rep._kernel
    sample = _Sample(kernel, ((w, kernel.eval_word(w)) for w in words))
    basis_vals = [sample.values(coord, shift) for coord, shift in rep._shifts]

    def check(coord, shift, combo, den):
        terms = [(basis_vals[j], c) for j, c in combo.items()]
        for k, value in enumerate(sample.values(coord, shift)):
            total = sum(c * vals[k] for vals, c in terms)
            if total != value * den:
                return (f"at fresh word {word_str(sample.words[k])}: direct value "
                        f"{value}, combination {Fraction(total, den)}")
        return None

    return check


def _fresh_sample_check(rep: SplittableRep, count: int = 40):
    """Re-verify every extracted expansion identity on fresh elements,
    disjoint (as words) from the build sample."""
    rng = random.Random(271828)
    words = sorted({
        _random_reduced_word(rng, rep.letters, length)
        for length in (rep.sample_len + 1, rep.sample_len + 2)
        for _ in range(count if rep.letters else 0)
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
                  kernel.mul(shift, kernel.gens[letter]), rows[i], den)


def conjugation_matrix(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Matrix of M -> a M b on n x n matrices in the row-major basis."""
    n = a.degree
    rows = []
    for i in range(n):
        for j in range(n):
            row = []
            for k in range(n):
                for l in range(n):
                    row.append(a.rows[i][k] * b.rows[l][j])
            rows.append(tuple(row))
    return RingMatrix(QQ, tuple(rows))


def int_g_rep(g_gens: MatrixGroupGens, sample_len: int = 4) -> SplittableRep:
    """Representation of Int(G) x| G: Phi is the conjugation action of G on
    the n^2-dimensional matrix space (so m = n^2) and tau transfers Phi-words
    to the same words over the G generators.  Dimension at most 2 n^4."""
    phi_pairs = tuple(
        (conjugation_matrix(mat, inv), conjugation_matrix(inv, mat))
        for mat, inv in g_gens.pairs
    )
    phi_gens = MatrixGroupGens(g_gens.degree**2, phi_pairs)
    tau = InnerTau(g_gens)
    return build_rep(phi_gens, g_gens, tau, sample_len)


@dataclass
class SplittableReport:
    max_len: int
    words_checked: int = 0
    identity_actions: int = 0
    pairs_checked: int = 0
    injectivity_failures: int = 0
    recovery_failures: int = 0
    homomorphism_failures: int = 0
    # The first failure found, naming its word and the differing values.
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return not (
            self.injectivity_failures
            or self.recovery_failures
            or self.homomorphism_failures
        )


def verify_rep(rep: SplittableRep, max_len: int, pairs: int = 100,
               seed: int = 0) -> SplittableReport:
    """Exhaustive injectivity and recovery check to max_len, plus a random
    check that products of action matrices act like the product elements.

    Injectivity: an identity action matrix must recover the identity pair.
    Recovery: the coordinates read off the action matrix must equal the
    directly computed element coordinates, for every enumerated word.
    Homomorphism: for random word pairs (u, v), the matrix action(u)action(v)
    must shift the basis functions exactly like the element of u v, checked
    by evaluation on fresh sample points.  A max_len below 1 raises
    ValueError.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    report = SplittableReport(max_len=max_len)
    kernel = rep._kernel
    letters = rep.letters
    d = rep.dimension
    # Every action is den * A as integer rows, so the walk multiplies ints.
    actions = rep._integer_actions()
    recovery = _Recovery(rep)
    identity = kernel.identity

    def note(message):
        if report.witness is None:
            report.witness = message

    def check(element, den, rows):
        report.words_checked += 1
        scale = den * recovery.scale
        got = recovery.read(rows)
        values = [x for mat in (element.phi, element.g) for row in mat for x in row]
        if got != [x * scale for x in values]:
            report.recovery_failures += 1
            k = next(k for k, x in enumerate(values) if got[k] != x * scale)
            note(f"recovery failure at word {word_str(element.word)}: "
                 f"{coord_name(recovery.coords[k])} reads "
                 f"{Fraction(got[k], scale)}, the element has {values[k]}")
        if all(row == {i: den} for i, row in enumerate(rows)):
            report.identity_actions += 1
            if element.phi != identity.phi or element.g != identity.g:
                report.injectivity_failures += 1
                note(f"identity action at word {word_str(element.word)}")

    def step(state, letter):
        element, den, rows = state
        l_den, l_rows = actions[letter]
        return (kernel.mul(element, kernel.gens[letter]), den * l_den,
                _sparse_mul(rows, l_rows))

    root = (identity, *_word_rows(actions, (), d))
    check(*root)
    alphabet = _letter_pairs(rep.phi_gens, rep.g_gens)
    for _, state in reduced_walk(alphabet, max_len, root, step):
        check(*state)

    # Random semantic homomorphism check on fresh evaluation points.
    rng = random.Random(seed)
    fresh_words = [
        _random_reduced_word(rng, letters, max_len + 2) for _ in range(20)
    ] if letters else []
    mismatch = _fresh_points(rep, fresh_words)
    for _ in range(pairs if letters else 0):
        u = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        v = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        element = kernel.eval_word(u + v)
        (u_den, u_rows), (v_den, v_rows) = (
            _word_rows(actions, w, d) for w in (u, v))
        rows = _sparse_mul(u_rows, v_rows)
        report.pairs_checked += 1
        for i, (coord, shift) in enumerate(rep._shifts):
            bad = mismatch(coord, kernel.mul(shift, element), rows[i],
                           u_den * v_den)
            if bad is not None:
                report.homomorphism_failures += 1
                note(f"homomorphism failure for u = {word_str(u)}, "
                     f"v = {word_str(v)}: basis {i} {bad}")
                break
    return report
