"""Splittable-coordinates engine for semidirect products of matrix groups.

Given generator matrices for Phi <= GL_m and G <= GL_n and a conjugator
oracle tau sending Phi-words to matrices g_phi realizing the action of Phi
on G by conjugation, the engine closes the coordinate functions (entries of
the Phi part and of the G part) under the shift action f^x(y) = f(x y) and
reads off a matrix representation of Phi x| G of dimension at most
m^2 + n^4.

Span membership is decided by exact linear algebra over the rationals on a
deterministic evaluation sample (all reduced generator words up to a given
length).  Sampling cannot prove a function lies in a span, so every
extracted expansion is re-verified on a disjoint fresh sample, and the
dimension bound is enforced as a hard error.  All scalars are Fractions.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionBoundError, OracleError, VerificationError
from .matrix import RingMatrix
from .ring import QQ

# A letter of the semidirect product alphabet: (kind, generator index, sign).
Letter = "tuple[str, int, int]"
# A coordinate function id: (kind, row, col), 0-based.
CoordId = "tuple[str, int, int]"


def letter_name(letter) -> str:
    kind, idx, sign = letter
    return f"{kind}{idx}" + ("" if sign == 1 else "^-1")


def letter_from_name(name: str):
    base, _, tail = name.partition("^")
    sign = -1 if tail == "-1" else 1
    kind = "phi" if base.startswith("phi") else "g"
    return (kind, int(base[len(kind):]), sign)


def coord_name(coord) -> str:
    kind, i, j = coord
    return f"{'Phi' if kind == 'phi' else 'G'}({i + 1},{j + 1})"


@dataclass(frozen=True)
class MatrixGroupGens:
    """Generators of a matrix group, each paired with its inverse."""

    degree: int
    pairs: tuple

    def __post_init__(self):
        ident = RingMatrix.identity(QQ, self.degree)
        for mat, inv in self.pairs:
            if mat.degree != self.degree or inv.degree != self.degree:
                raise ValueError("generator degree mismatch")
            if mat * inv != ident or inv * mat != ident:
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
    g component is twisted by tau, so its matrix is authoritative; g_word is
    the g-letter subsequence kept for display.
    """

    word: tuple
    phi_mat: RingMatrix
    g_mat: RingMatrix

    @property
    def phi_word(self):
        return tuple((idx, sign) for kind, idx, sign in self.word if kind == "phi")

    @property
    def g_word(self):
        return tuple((idx, sign) for kind, idx, sign in self.word if kind == "g")

    def is_identity_pair(self) -> bool:
        return self.phi_mat.is_identity() and self.g_mat.is_identity()

    def word_str(self) -> str:
        return " ".join(letter_name(l) for l in self.word) if self.word else "ε"


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


def validate_tau(phi_gens, g_gens, tau, word_len: int = 3):
    """Check the oracle contract on short Phi-words: tau inverts correctly
    and word-level conjugation agrees with letter-by-letter conjugation."""
    ident = RingMatrix.identity(QQ, g_gens.degree)
    letters = []
    for idx in range(len(phi_gens.pairs)):
        letters.append((idx, 1))
        letters.append((idx, -1))
    words = [()]
    frontier = [()]
    for _ in range(word_len):
        frontier = [
            w + (l,) for w in frontier for l in letters
            if not (w and l == (w[-1][0], -w[-1][1]))
        ]
        words.extend(frontier)
    for w in words:
        t_val, t_inv = tau.tau_pair(w)
        if t_val * t_inv != ident or t_inv * t_val != ident:
            raise OracleError(f"tau inverse wrong on {w}")
        for g_mat, _ in g_gens.pairs:
            expected = g_mat
            for letter in w:
                lv, linv = tau.tau_pair((letter,))
                expected = linv * expected * lv
            if t_inv * g_mat * t_val != expected:
                raise OracleError(
                    f"tau({w}) does not realize the letterwise action"
                )


@dataclass(frozen=True)
class ShiftedCoordinate:
    """The function y -> coordinate(shift * y)."""

    coord: tuple
    shift: SemidirectElement

    def evaluate(self, y: SemidirectElement, tau: TauOracle) -> Fraction:
        return coordinate_value(self.coord, semidirect_mul(self.shift, y, tau))


class _PreparedPoint:
    """Sample element with the matrices needed to evaluate shifted
    coordinates at it in O(n^2): for the shift x,
    phi value = (x.phi * y.phi)[i][j] and
    g value = (tau(y.phi)^-1 * x.g * tau(y.phi) * y.g)[p][q]."""

    __slots__ = ("element", "phi_cols", "a_rows", "b_cols")

    def __init__(self, element: SemidirectElement, tau: TauOracle):
        self.element = element
        self.phi_cols = tuple(zip(*element.phi_mat.rows)) if element.phi_mat.degree else ()
        t_val, t_inv = tau.tau_pair(element.phi_word)
        b = t_val * element.g_mat
        self.a_rows = t_inv.rows
        self.b_cols = tuple(zip(*b.rows))

    def value(self, coord, shift: SemidirectElement) -> Fraction:
        kind, i, j = coord
        if kind == "phi":
            row = shift.phi_mat.rows[i]
            col = self.phi_cols[j]
            return sum(a * b for a, b in zip(row, col))
        x = shift.g_mat.rows
        a_row = self.a_rows[i]
        b_col = self.b_cols[j]
        n = len(b_col)
        total = Fraction(0)
        for c in range(n):
            s = sum(a_row[r] * x[r][c] for r in range(n))
            if s:
                total += s * b_col[c]
        return total


class _Span:
    """Echelonized span with bookkeeping of each row as a combination of the
    basis value vectors."""

    def __init__(self):
        self.rows = []  # (normalized vector, combination dict, pivot column)

    def reduce(self, vec):
        vec = list(vec)
        combo = {}
        for row, rcombo, piv in self.rows:
            c = vec[piv]
            if c:
                for idx, rv in enumerate(row):
                    if rv:
                        vec[idx] -= c * rv
                for k, v in rcombo.items():
                    combo[k] = combo.get(k, Fraction(0)) + c * v
        return vec, combo

    def add(self, residual, combo, new_index):
        piv = next(i for i, v in enumerate(residual) if v)
        inv = Fraction(1) / residual[piv]
        row = [v * inv for v in residual]
        rcombo = {k: -v * inv for k, v in combo.items() if v}
        rcombo[new_index] = rcombo.get(new_index, Fraction(0)) + inv
        self.rows.append((row, rcombo, piv))


class SplittableRep:
    """Result of the orbit closure: a basis of shifted coordinates, one
    action matrix per generator letter, and the expansion of every original
    coordinate function in the basis (used to recover elements)."""

    def __init__(self, phi_gens, g_gens, tau, basis, actions, coord_expansions,
                 identity_values, sample_len, letters):
        self.phi_gens = phi_gens
        self.g_gens = g_gens
        self.tau = tau
        self.basis = tuple(basis)
        self.actions = actions  # letter name -> RingMatrix over QQ
        self.coord_expansions = coord_expansions  # coord id -> coeff tuple
        self.identity_values = tuple(identity_values)
        self.sample_len = sample_len
        self.letters = tuple(letters)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def m_degree(self) -> int:
        return self.phi_gens.degree

    @property
    def n_degree(self) -> int:
        return self.g_gens.degree

    def action_of_word(self, letters) -> RingMatrix:
        out = RingMatrix.identity(QQ, self.dimension)
        for letter in letters:
            out = out * self.actions[letter_name(letter)]
        return out

    def recover(self, action: RingMatrix):
        """Matrices (phi, g) read off an action matrix through the coordinate
        expansions evaluated at the identity."""
        y = [
            sum(row[j] * self.identity_values[j] for j in range(self.dimension))
            for row in action.rows
        ]

        def coord_val(coord):
            coeffs = self.coord_expansions[coord]
            return sum(c * y[i] for i, c in enumerate(coeffs) if c)

        m, n = self.m_degree, self.n_degree
        phi = RingMatrix(QQ, tuple(
            tuple(coord_val(("phi", i, j)) for j in range(m)) for i in range(m)
        ))
        g = RingMatrix(QQ, tuple(
            tuple(coord_val(("g", p, q)) for q in range(n)) for p in range(n)
        ))
        return phi, g

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


def _alphabet(phi_gens, g_gens):
    letters = []
    for idx in range(len(phi_gens.pairs)):
        letters.append(("phi", idx, 1))
        letters.append(("phi", idx, -1))
    for idx in range(len(g_gens.pairs)):
        letters.append(("g", idx, 1))
        letters.append(("g", idx, -1))
    return tuple(letters)


def _inverse_letter(letter):
    kind, idx, sign = letter
    return (kind, idx, -sign)


def _reduced_words_elements(phi_gens, g_gens, tau, letters, max_len):
    """All freely reduced letter words up to max_len, as semidirect elements,
    in length-lexicographic order."""
    out = [semidirect_identity(phi_gens.degree, g_gens.degree)]
    frontier = [(out[0], None)]
    gen_elems = {l: generator_element(l, phi_gens, g_gens) for l in letters}
    for _ in range(max_len):
        new = []
        for el, last in frontier:
            for letter in letters:
                if last is not None and letter == _inverse_letter(last):
                    continue
                child = semidirect_mul(el, gen_elems[letter], tau)
                new.append((child, letter))
        frontier = new
        out.extend(el for el, _ in new)
    return out


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
    fails on the disjoint fresh sample (insufficient sample_len).
    """
    m, n = phi_gens.degree, g_gens.degree
    bound = m * m + n**4
    letters = _alphabet(phi_gens, g_gens)
    # The engine consults tau on phi-words as long as the fresh sample, so
    # the oracle contract is sampled to that depth.
    validate_tau(phi_gens, g_gens, tau, word_len=sample_len + 2)

    sample = _reduced_words_elements(phi_gens, g_gens, tau, letters, sample_len)
    points = [_PreparedPoint(el, tau) for el in sample]
    gen_elems = {l: generator_element(l, phi_gens, g_gens) for l in letters}
    identity = semidirect_identity(m, n)

    coords = [("phi", i, j) for i in range(m) for j in range(m)]
    coords += [("g", p, q) for p in range(n) for q in range(n)]

    basis = []
    span = _Span()
    expansions = {}
    action_rows = {letter: {} for letter in letters}
    pending = deque()

    def eval_vector(coord, shift):
        return [pt.value(coord, shift) for pt in points]

    def combo_tuple(combo, width):
        return tuple(combo.get(i, Fraction(0)) for i in range(width))

    def add_basis(coord, shift, residual, combo):
        idx = len(basis)
        if idx + 1 > bound:
            raise DimensionBoundError(
                f"closure exceeded the bound m^2 + n^4 = {bound}"
            )
        basis.append(ShiftedCoordinate(coord, shift))
        span.add(residual, combo, idx)
        pending.extend((idx, letter) for letter in letters)
        return idx

    for coord in coords:
        vec = eval_vector(coord, identity)
        residual, combo = span.reduce(vec)
        if any(residual):
            idx = add_basis(coord, identity, residual, combo)
            expansions[coord] = {idx: Fraction(1)}
        else:
            expansions[coord] = combo

    while pending:
        i, letter = pending.popleft()
        shifted = semidirect_mul(basis[i].shift, gen_elems[letter], tau)
        vec = eval_vector(basis[i].coord, shifted)
        residual, combo = span.reduce(vec)
        if any(residual):
            idx = add_basis(basis[i].coord, shifted, residual, combo)
            action_rows[letter][i] = {idx: Fraction(1)}
        else:
            action_rows[letter][i] = combo

    d = len(basis)
    actions = {}
    for letter in letters:
        rows = tuple(
            combo_tuple(action_rows[letter][i], d) for i in range(d)
        )
        actions[letter_name(letter)] = RingMatrix(QQ, rows)
    coord_expansions = {c: combo_tuple(expansions[c], d) for c in coords}
    identity_values = [coordinate_value(b.coord, b.shift) for b in basis]

    rep = SplittableRep(
        phi_gens, g_gens, tau, basis, actions, coord_expansions,
        identity_values, sample_len, letters,
    )
    _fresh_sample_check(rep, gen_elems)
    return rep


def _fresh_sample_check(rep: SplittableRep, gen_elems, count: int = 40):
    """Re-verify every extracted expansion identity on fresh elements,
    disjoint (as words) from the build sample."""
    rng = random.Random(271828)
    words = set()
    for length in (rep.sample_len + 1, rep.sample_len + 2):
        for _ in range(count):
            if rep.letters:
                words.add(_random_reduced_word(rng, rep.letters, length))
    elems = [
        eval_word(w, rep.phi_gens, rep.g_gens, rep.tau) for w in sorted(words)
    ]
    if not elems:
        return
    points = [_PreparedPoint(el, rep.tau) for el in elems]
    basis_vals = [
        [pt.value(b.coord, b.shift) for pt in points] for b in rep.basis
    ]
    d = rep.dimension
    for coord, coeffs in rep.coord_expansions.items():
        direct = [coordinate_value(coord, pt.element) for pt in points]
        combo = [
            sum(coeffs[j] * basis_vals[j][k] for j in range(d))
            for k in range(len(points))
        ]
        if direct != combo:
            raise VerificationError(
                f"fresh-sample check failed for coordinate {coord_name(coord)}"
            )
    for letter in rep.letters:
        mat = rep.actions[letter_name(letter)]
        for i, b in enumerate(rep.basis):
            shifted = semidirect_mul(b.shift, gen_elems[letter], rep.tau)
            direct = [pt.value(b.coord, shifted) for pt in points]
            combo = [
                sum(mat.rows[i][j] * basis_vals[j][k] for j in range(d))
                for k in range(len(points))
            ]
            if direct != combo:
                raise VerificationError(
                    f"fresh-sample check failed for basis {i} under "
                    f"{letter_name(letter)}"
                )


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
    by evaluation on fresh sample points.
    """
    report = SplittableReport(max_len=max_len)
    letters = rep.letters
    gen_elems = {
        l: generator_element(l, rep.phi_gens, rep.g_gens) for l in letters
    }
    ident_action = RingMatrix.identity(QQ, rep.dimension)

    def check(element, action):
        report.words_checked += 1
        phi, g = rep.recover(action)
        if phi != element.phi_mat or g != element.g_mat:
            report.recovery_failures += 1
        if action == ident_action:
            report.identity_actions += 1
            if not element.is_identity_pair():
                report.injectivity_failures += 1

    def walk(element, action, depth, last):
        for letter in letters:
            if last is not None and letter == _inverse_letter(last):
                continue
            child = semidirect_mul(element, gen_elems[letter], rep.tau)
            child_action = action * rep.actions[letter_name(letter)]
            check(child, child_action)
            if depth + 1 < max_len:
                walk(child, child_action, depth + 1, letter)

    identity = semidirect_identity(rep.m_degree, rep.n_degree)
    check(identity, ident_action)
    if letters:
        walk(identity, ident_action, 0, None)

    # Random semantic homomorphism check on fresh evaluation points.
    rng = random.Random(seed)
    fresh_words = [
        _random_reduced_word(rng, letters, max_len + 2) for _ in range(20)
    ] if letters else []
    points = [
        _PreparedPoint(eval_word(w, rep.phi_gens, rep.g_gens, rep.tau), rep.tau)
        for w in fresh_words
    ]
    basis_vals = [
        [pt.value(b.coord, b.shift) for pt in points] for b in rep.basis
    ]
    d = rep.dimension
    for _ in range(pairs if letters else 0):
        u = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        v = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        element = eval_word(u + v, rep.phi_gens, rep.g_gens, rep.tau)
        action = rep.action_of_word(u) * rep.action_of_word(v)
        report.pairs_checked += 1
        ok = True
        for i, b in enumerate(rep.basis):
            shifted = semidirect_mul(b.shift, element, rep.tau)
            for k, pt in enumerate(points):
                direct = pt.value(b.coord, shifted)
                combo = sum(
                    action.rows[i][j] * basis_vals[j][k] for j in range(d)
                )
                if direct != combo:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            report.homomorphism_failures += 1
    return report
