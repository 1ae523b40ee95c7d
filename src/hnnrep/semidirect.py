"""Semidirect products Phi x| G of matrix groups: generator pairs, the tau
oracles that realize the action of Phi on G by conjugation, and the
Fraction reference products.

`semidirect_identity`, `generator_element`, `semidirect_mul`, `eval_word`,
`coordinate_value` and `h_eval` are the public Fraction reference API: they
compute semidirect products, coordinates and the splitting kernel on
RingMatrix over QQ straight from the definitions, for checking the
splittable engine's exact kernel against.  `_exact`, `_kernel_matrix` and
`_kernel_identity` make the kernel's matrices (see splittable.py), which
InnerTau keeps in its memo.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import OracleError
from .matrix import RingMatrix, _block_mul
from .ring import QQ


def _exact(x):
    """x as a kernel scalar: an int when integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def _kernel_matrix(mat: RingMatrix):
    return tuple(tuple(_exact(x) for x in row) for row in mat.rows)


def _kernel_identity(d: int):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


# A letter of the semidirect product alphabet is (kind, generator index,
# sign), and a coordinate function id is (kind, row, col), 0-based.


def letter_name(letter) -> str:
    kind, idx, sign = letter
    return f"{kind}{idx}" + ("" if sign == 1 else "^-1")


def word_str(word) -> str:
    return " ".join(letter_name(l) for l in word) if word else "ε"


def coord_name(coord) -> str:
    kind, i, j = coord
    return f"{'Phi' if kind == 'phi' else 'G'}({i + 1},{j + 1})"


class MatrixGroupGens(Record, frozen=True):
    """Generators of a matrix group, each paired with its inverse.

    A pair (A, B) is checked one-sided, A B = I.  That suffices: A and B
    are square over Q, so A B = I gives det A det B = 1, A is invertible,
    and B = A^-1, so B A = I as well."""

    _fields = ("degree", "pairs")

    def __init__(self, degree: int, pairs: tuple):
        ident = RingMatrix.identity(QQ, degree)
        for mat, inv in pairs:
            if mat.degree != degree or inv.degree != degree:
                raise ValueError("generator degree mismatch")
            if mat * inv != ident:
                raise ValueError("generator pair does not multiply to identity")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "pairs", pairs)

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
        and all(isinstance(x, (int, float, Fraction, str)) and not isinstance(x, bool)
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


class SemidirectElement(Record, frozen=True):
    """Element (phi, g) of the semidirect product, with the generator word
    it was built from.

    The phi component of a product of generators is the product of the phi
    letters in order, so phi_word is the phi-letter subsequence of word.  The
    g component is twisted by tau, so its matrix is authoritative.
    """

    _fields = ("word", "phi_mat", "g_mat")

    def __init__(self, word: tuple, phi_mat: RingMatrix, g_mat: RingMatrix):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "phi_mat", phi_mat)
        object.__setattr__(self, "g_mat", g_mat)

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
    maps to the same word evaluated over the G generators.

    The memo holds, per Phi-word, the kernel matrices (ints for integral
    generators), multiplied by matrix._block_mul, next to the RingMatrix
    pair over QQ that tau_pair returns: views of the same rows, made once
    per word, so their entries are the kernel's ints and Fractions.  A miss
    recurses through tau_pair, so a wrapper of tau_pair sees every memo
    miss as a nested call."""

    def __init__(self, g_gens: MatrixGroupGens):
        self.g_gens = g_gens
        self._gens = tuple(
            (_kernel_matrix(mat), _kernel_matrix(inv)) for mat, inv in g_gens.pairs
        )
        ident = _kernel_identity(g_gens.degree)
        view = RingMatrix(QQ, ident)
        self._memo = {(): (ident, ident, view, view)}

    def tau_pair(self, phi_word):
        phi_word = tuple(phi_word)
        if phi_word not in self._memo:
            self.tau_pair(phi_word[:-1])
            val_prev, inv_prev, *_ = self._memo[phi_word[:-1]]
            idx, sign = phi_word[-1]
            mat, inv = self._gens[idx]
            if sign == -1:
                mat, inv = inv, mat
            pair = _block_mul(val_prev, mat, 0), _block_mul(inv, inv_prev, 0)
            self._memo[phi_word] = (*pair, *(RingMatrix(QQ, m) for m in pair))
        return self._memo[phi_word][2:]


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
