"""Semidirect products Phi x| G of matrix groups: generator pairs, the
conjugator records of the action of Phi on G, and the Fraction reference
products.

A conjugator record tau is any object with `degree`, the degree n of G, and
`pairs`, one pair (tau(l), tau(l)^-1) of n x n matrices over QQ per Phi
generator l, such that Phi letter l acts on G as conjugation by tau(l).  A
MatrixGroupGens is one; so are InnerTau and TrivialTau.  The splittable
engine (splittable.py) reads the pairs and builds tau(w) of a Phi-word w as
the product of its letters' pairs.

`semidirect_identity`, `generator_element`, `semidirect_mul`, `eval_word`,
`coordinate_value` and `h_eval` are the public Fraction reference API: they
compute semidirect products, coordinates and the splitting kernel on
RingMatrix over QQ straight from the definitions, for checking the
splittable engine's exact kernel against.  They take tau's word-level view,
`tau_pair(phi_word)`, which InnerTau and TrivialTau give.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import OracleError
from .matrix import RingMatrix
from .ring import QQ


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
                {"matrix": m.to_json()["rows"], "inverse": i.to_json()["rows"]}
                for m, i in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "MatrixGroupGens":
        """Read {"degree": int, "generators": [{"matrix": rows, "inverse":
        rows}, ..]}, the rows as RingMatrix.from_json_rows reads them over
        QQ (a float or Fraction entry is refused like any non-JSON value);
        a document of another shape raises ValueError."""
        if not isinstance(doc, dict) or not isinstance(doc.get("generators"), list):
            raise ValueError('document must be an object with a "generators" list')
        degree = doc.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise ValueError('"degree" must be a non-negative integer')
        pairs = []
        for g in doc["generators"]:
            if not isinstance(g, dict):
                raise ValueError("each generator must be an object")
            pairs.append((RingMatrix.from_json_rows(QQ, g.get("matrix")),
                          RingMatrix.from_json_rows(QQ, g.get("inverse"))))
        return cls(degree, tuple(pairs))


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


class TrivialTau:
    """The conjugator record of a trivial Phi on G of degree n_degree: no
    pairs, so tau_pair knows the empty word only."""

    def __init__(self, n_degree: int):
        self.degree = n_degree
        self.pairs = ()
        ident = RingMatrix.identity(QQ, n_degree)
        self._pair = (ident, ident)

    def tau_pair(self, phi_word):
        if phi_word:
            raise OracleError("trivial Phi has no nonempty words")
        return self._pair


class InnerTau:
    """Phi generator i acts on G as conjugation by G generator i: the
    conjugator record is G's own pairs.  tau_pair maps a Phi-word to the same
    word evaluated over the G generators, letter by letter.

    The memo holds each Phi-word's pair, built from its prefix's pair and
    its last letter's generators.  A miss recurses through tau_pair, so a
    wrapper of tau_pair sees every memo miss as a nested call."""

    def __init__(self, g_gens: MatrixGroupGens):
        self.g_gens = g_gens
        self.degree = g_gens.degree
        self.pairs = g_gens.pairs
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
            self._memo[phi_word] = val_prev * mat, inv * inv_prev
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
                   tau) -> SemidirectElement:
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


def h_eval(p, k1, k2, q, element: SemidirectElement, tau) -> Fraction:
    """The splitting kernel H_{p k1 k2 q} at (phi2, g2): the sum over k3 of
    entries (g_phi2^-1)[p][k1] * (g_phi2)[k2][k3] * (g2)[k3][q]."""
    t_val, t_inv = tau.tau_pair(element.phi_word)
    n = element.g_mat.degree
    total = Fraction(0)
    for k3 in range(n):
        total += t_inv.rows[p][k1] * t_val.rows[k2][k3] * element.g_mat.rows[k3][q]
    return total
