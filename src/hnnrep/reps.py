"""Builders for the explicit faithful representations.

The two-parameter rank-2 images of a free group feed a coset-induced block
construction for the HNN extension F_phi(X) (stable letter as a block
companion over the cosets of <F(X), t^n>, base letters as block diagonals of
twisted images).  Conjugating by explicit block-diagonal matrices produces
the canonical two-generator Artin images, the 12x12 braid-group pair, and an
integer variant of degree 4 per coset where the scalar s is replaced by a
unipotent central block.

Every image is block-monomial (see BlockMonomial), and the builders work on
blocks throughout, JSON output included; dense matrices appear only at the
display boundary (image(), eval()).  Everything is verified at
construction: generator inverses, the defining relations
t^-1 x t = phi(x), the canonical relation w_m, and the displayed block
shapes.  Each relation check runs once, and its report is kept on the
representation (Representation.relation_reports).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, permutations

from .errors import VerificationError
from .matrix import BlockMonomial, RingMatrix, conjugate, det_bareiss
from .ring import INT, LAURENT, LaurentPoly, QpRing, ring_from_descriptor
from .words import (
    HnnSpec,
    MixedWord,
    T_GEN,
    Word,
    artin_even_spec,
    artin_odd_spec,
    canonical_relation,
    parse_word,
    reduced_walk,
    syms_str,
)


class Representation:
    """Matrices assigned to named generators, inverses included.

    Images are stored as BlockMonomial, all of one shape: the builders pass
    blocks, and dense RingMatrix input (a JSON document, say) is read with
    k = spec.n blocks when every image has that shape and as one block
    (k = 1) otherwise.  image(), inverse_image() and eval() return dense
    matrices; block_eval_many() stays in blocks.

    Each inverse is checked for image * inverse = I with
    BlockMonomial.is_inverse_of (an adjugate certificate on 2 x 2 blocks,
    the product on others).  The one-sided check suffices: over the
    commutative rings used here, A B = I gives det A det B = 1, so A is
    invertible and B A = I as well.  An HnnSpec may be attached when the
    generators are the x_i / t alphabet of an extension.

    relation_reports holds the RelationReports that the builder verified,
    in order: the defining relations, then the canonical relation for an
    A(m) build.  It is empty for a representation read from JSON.
    """

    def __init__(self, ring, gens, spec=None, group="", params=None):
        # gens: ordered list of (name, image, inverse image)
        if not gens:
            raise ValueError("a representation needs at least one generator")
        self.gen_names = tuple(name for name, _, _ in gens)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("repeated generator name")
        mats = [mat for _, image, inv in gens for mat in (image, inv)]
        degree = mats[0].degree
        for mat in mats:
            if mat.degree != degree:
                raise ValueError("generator images of mixed degree")
            if mat.ring != ring:
                raise ValueError("generator image over a different ring")
        blocks = _common_blocks(mats, spec.n if spec else 1)
        self.ring = ring
        self.images = {}
        for name, image, inv in zip(self.gen_names, blocks[::2], blocks[1::2]):
            if not image.is_inverse_of(inv):
                raise VerificationError(f"inverse image of {name} is wrong")
            self.images[name] = (image, inv)
        self.degree = degree
        self.spec = spec
        self.group = group
        self.params = params or {}
        self.relation_reports = ()

    def image(self, name: str) -> RingMatrix:
        return self.images[name][0].to_matrix()

    def inverse_image(self, name: str) -> RingMatrix:
        return self.images[name][1].to_matrix()

    def letters(self, item):
        """Normalize words to (name, sign) letter sequences.

        Accepts Word / MixedWord (mapped to the x{i} / t alphabet), a string
        in the word grammar, or an iterable of (name, sign) pairs.
        """
        if isinstance(item, str):
            item = parse_word(item)
        if isinstance(item, (Word, MixedWord)):
            return [
                ("t" if g == T_GEN else f"x{g}", s) for g, s in item.syms
            ]
        return [(name, sign) for name, sign in item]

    def block_eval_many(self, items) -> list:
        """Block images of several words, each a product taken left to right.

        The words are visited in sorted order, which walks their prefix trie
        depth first: a stack holds the images of the current word's
        prefixes, so a prefix that several words share is multiplied once,
        and nothing but the results outlives the call.
        """
        words = [tuple(self.letters(item)) for item in items]
        for name in {name for w in words for name, _ in w}:
            if name not in self.images:
                raise ValueError(f"unknown generator {name!r}")
        first = next(iter(self.images.values()))[0]
        stack = [BlockMonomial.identity(self.ring, first.block_degree, len(first.perm))]
        out = [None] * len(words)
        path = ()
        for idx in sorted(range(len(words)), key=words.__getitem__):
            word = words[idx]
            common = 0
            while common < min(len(word), len(path)) and word[common] == path[common]:
                common += 1
            del stack[common + 1:]
            for name, sign in word[common:]:
                stack.append(stack[-1] * self.images[name][sign != 1])
            out[idx] = stack[-1]
            path = word
        return out

    def eval(self, item) -> RingMatrix:
        """Image of a word: the product of generator images."""
        return self.block_eval_many([item])[0].to_matrix()

    def to_json(self):
        """The document from_json reads.  Each image is laid out as the
        dense RingMatrix document, written from its blocks
        (BlockMonomial.to_json), so zero entries may be one shared
        object."""
        return {
            "group": self.group,
            "degree": self.degree,
            "ring": self.ring.descriptor(),
            "generators": [
                {
                    "name": name,
                    "image": image.to_json(),
                    "imageInverse": inverse.to_json(),
                }
                for name, (image, inverse) in self.images.items()
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "Representation":
        """Read a document written by to_json.  A malformed document (wrong
        types, a missing image, a degree or ring that does not match,
        generators of mixed degree or ring) raises ValueError; a wrong
        inverse raises VerificationError."""
        if not isinstance(doc, dict):
            raise ValueError("representation document must be an object")
        gen_docs = doc.get("generators")
        if not isinstance(gen_docs, list):
            raise ValueError("generators must be a list")
        gens = []
        for g in gen_docs:
            if not isinstance(g, dict) or not isinstance(g.get("name"), str):
                raise ValueError("each generator must be an object with a name")
            for key in ("image", "imageInverse"):
                if key not in g:
                    raise ValueError(f"generator {g['name']!r} has no {key}")
            gens.append((
                g["name"],
                RingMatrix.from_json(g["image"]),
                RingMatrix.from_json(g["imageInverse"]),
            ))
        group = doc.get("group", "")
        if not isinstance(group, str):
            raise ValueError("group must be a string")
        rep = cls(ring_from_descriptor(doc.get("ring")), gens, group=group)
        degree = doc.get("degree")
        if type(degree) is not int or degree != rep.degree:
            raise ValueError("degree field does not match matrices")
        return rep

    def __repr__(self):
        return (
            f"Representation({self.group or 'unnamed'}, degree {self.degree}, "
            f"generators {', '.join(self.gen_names)})"
        )


def _common_blocks(mats, k):
    """The matrices as BlockMonomials of one shape.  BlockMonomials that
    already share a shape are kept; otherwise every matrix is read densely
    with k blocks, or as one block if some matrix lacks that shape."""
    shapes = {
        (len(m.perm), m.block_degree) if isinstance(m, BlockMonomial) else None
        for m in mats
    }
    if len(shapes) == 1 and None not in shapes:
        return mats
    dense = [m.to_matrix() if isinstance(m, BlockMonomial) else m for m in mats]
    try:
        return [BlockMonomial.from_matrix(m, k) for m in dense]
    except ValueError:
        return [BlockMonomial.from_matrix(m, 1) for m in dense]


def _mat2(ring, a, b, c, d):
    return BlockMonomial(ring, (0,), (((a, b), (c, d)),))


def sigma_free(rank, ring, lam, mu, basis="conjugated") -> Representation:
    """Two-parameter degree-2 images of the free group of the given rank.

    x0 maps to the lower unitriangular [[1,0],[lam,1]].  In the conjugated
    basis x_i is that matrix conjugated by [[1,mu],[0,1]]^i; the rank2-mixed
    basis instead sends x1 straight to [[1,mu],[0,1]] (rank 2 only).
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    one, zero = ring.one, ring.zero
    x0 = _mat2(ring, one, zero, lam, one)
    x0_inv = _mat2(ring, one, zero, -lam, one)
    v = _mat2(ring, one, mu, zero, one)
    v_inv = _mat2(ring, one, -mu, zero, one)
    gens = []
    if basis == "conjugated":
        for i in range(rank):
            vp = v**i
            vn = v_inv**i
            gens.append((f"x{i}", vn * x0 * vp, vn * x0_inv * vp))
    elif basis == "rank2-mixed":
        if rank != 2:
            raise ValueError("rank2-mixed basis is specific to rank 2")
        gens = [("x0", x0, x0_inv), ("x1", v, v_inv)]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return Representation(
        ring, gens, group=f"F{rank}",
        params={"lam": lam, "mu": mu, "basis": basis},
    )


def artin_sigma_basis(m: int) -> str:
    """The sigma basis of the A(m) builds: rank2-mixed for the rank-2 spec
    of m = 3, conjugated otherwise."""
    return "rank2-mixed" if m == 3 else "conjugated"


def sigma_symbolic(rank, basis="conjugated") -> Representation:
    return sigma_free(rank, LAURENT, LAURENT.lam(), LAURENT.mu(), basis)


def sigma_qp(rank, lam0, mu0, p, basis="conjugated") -> Representation:
    ring = QpRing(p)
    return sigma_free(rank, ring, ring.from_int(lam0), ring.from_int(mu0), basis)


def sigma_int(rank, lam0, mu0, basis="conjugated") -> Representation:
    return sigma_free(rank, INT, lam0, mu0, basis)


def _unit_with_inverse(ring, s):
    """Validate that s is an infinite-order unit and return (s, s^-1).

    Over Laurent polynomials and Q_p the units are +-s^c and +-p^e, of
    infinite order unless c = 0 or e = 0, that is unless s = +-1."""
    if ring.kind not in ("laurent", "qp"):
        raise ValueError(f"no infinite-order units available over {ring!r}")
    if not ring.is_unit(s):
        raise ValueError(f"s = {s!r} is not a unit over {ring!r}")
    if s == ring.one or s == -ring.one:
        raise ValueError("s must have infinite order, not +-1")
    return s, ring.unit_inverse(s)


def _phi_inverse_orbit(spec: HnnSpec, w: Word):
    """Words phi^0(w), phi^-1(w), .., phi^-(n-1)(w)."""
    out = [w]
    for _ in range(spec.n - 1):
        out.append(spec.phi_inv.apply(out[-1]))
    return out


def _induced_representation(spec, sigma, corner_z, corner_z_inv, group):
    """Coset-induced representation of the extension from sigma and a
    central block z standing in for the image of t^n w0.

    t maps to the block companion over the cosets 1, t, .., t^{n-1} with
    corner z * sigma(w0^-1); x_i maps to the block diagonal of the
    sigma-images of phi^-j(x_i).  All these words and their inverses are
    evaluated in one batch, sharing prefixes.  The defining relations are
    verified.
    """
    k = spec.n
    ring = sigma.ring
    words = [w for i in range(spec.rank) for w in _phi_inverse_orbit(spec, Word.gen(i))]
    f_img, f_inv_img, *images = sigma.block_eval_many(
        [spec.f, spec.f.inverse()] + words + [w.inverse() for w in words]
    )
    forward, backward = images[:len(words)], images[len(words):]
    ident = BlockMonomial.identity(ring, sigma.degree, 1)
    t_img = BlockMonomial.companion([ident] * (k - 1), corner_z * f_img)
    t_inv = BlockMonomial.from_blocks(
        (k - 1, *range(k - 1)), [f_inv_img * corner_z_inv] + [ident] * (k - 1)
    )
    gens = [
        (f"x{i}",
         BlockMonomial.diag(forward[i * k:(i + 1) * k]),
         BlockMonomial.diag(backward[i * k:(i + 1) * k]))
        for i in range(spec.rank)
    ]
    gens.append(("t", t_img, t_inv))
    rep = Representation(ring, gens, spec=spec, group=group, params=dict(sigma.params))
    _require_relations(rep, defining_relations(spec),
                       f"defining relations fail for {group}")
    return rep


def hnn_induced_rep(spec: HnnSpec, sigma: Representation, s) -> Representation:
    """Faithful representation of the extension of degree sigma.degree * n,
    with the infinite-order unit s in the companion corner."""
    s_val, s_inv = _unit_with_inverse(sigma.ring, s)
    ident = BlockMonomial.identity(sigma.ring, sigma.degree, 1)
    rep = _induced_representation(
        spec, sigma, ident.scalar_mul(s_val), ident.scalar_mul(s_inv),
        group=f"F_phi(X), rank {spec.rank}",
    )
    rep.params["s"] = s_val
    return rep


def integer_hnn(spec: HnnSpec, sigma_z: Representation, s: int) -> Representation:
    """Integer variant: the scalar s is replaced by the unipotent block
    [[1,s],[0,1]], giving matrices of degree 4n over the integers with
    determinant one."""
    if sigma_z.ring != INT:
        raise ValueError("integer variant needs an integer sigma")
    if s == 0:
        raise ValueError("s must be nonzero")
    ident2 = ((1, 0), (0, 1))
    gens = []
    for name in sigma_z.gen_names:
        image, inverse = sigma_z.image(name), sigma_z.inverse_image(name)
        if det_bareiss(image) != 1:
            raise ValueError(f"sigma image of {name} must have determinant 1")
        gens.append((name, _diag2(ident2, image.rows), _diag2(ident2, inverse.rows)))
    sigma_ext = Representation(INT, gens, group=sigma_z.group,
                               params=dict(sigma_z.params))
    ident_m = BlockMonomial.identity(INT, sigma_z.degree, 1).blocks[0]
    rep = _induced_representation(
        spec, sigma_ext, _diag2(((1, s), (0, 1)), ident_m),
        _diag2(((1, -s), (0, 1)), ident_m),
        group=f"F_phi(X), rank {spec.rank}, integer",
    )
    rep.params["s"] = s
    return rep


def _diag2(top, bottom) -> BlockMonomial:
    """diag(top, bottom) of two integer blocks as a one-block matrix."""
    a, b = len(top), len(bottom)
    rows = tuple(r + (0,) * b for r in top) + tuple((0,) * a + r for r in bottom)
    return BlockMonomial(INT, (0,), (rows,))


def defining_relations(spec: HnnSpec):
    """The pairs (t^-1 x_i t, phi(x_i)) as mixed words."""
    out = []
    for i in range(spec.rank):
        lhs = MixedWord.t(-1) * MixedWord.gen(i) * MixedWord.t()
        rhs = MixedWord.from_word(spec.phi.apply(Word.gen(i)))
        out.append((lhs, rhs))
    return out


@dataclass(frozen=True)
class RelationResult:
    lhs: str
    rhs: str
    ok: bool
    mismatch: tuple = None  # (row, col, left entry, right entry)


@dataclass(frozen=True)
class RelationReport:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]


def verify_defining_relations(rep: Representation, relations) -> RelationReport:
    """Evaluate both sides of each relation on blocks; on failure report the
    first differing entry in dense (row, col) coordinates.  Each side is
    recorded as the text of its letters, such as "t^-1 x0 t" or "x y x"."""
    sides = [tuple(rep.letters(w)) for pair in relations for w in pair]
    images = rep.block_eval_many(sides)
    results = []
    for lhs, rhs, left, right in zip(sides[::2], sides[1::2], images[::2], images[1::2]):
        mismatch = None if left == right else _first_mismatch(
            left.to_matrix(), right.to_matrix())
        results.append(RelationResult(syms_str(lhs), syms_str(rhs),
                                      mismatch is None, mismatch))
    return RelationReport(tuple(results))


def _require_relations(rep: Representation, relations, failure: str):
    """Raise VerificationError naming the failed relations unless all hold;
    keep the report in rep.relation_reports."""
    report = verify_defining_relations(rep, relations)
    if not report.ok:
        raise VerificationError(f"{failure}: {report.failures()}")
    rep.relation_reports += (report,)


def _first_mismatch(left: RingMatrix, right: RingMatrix):
    """(row, col, left entry, right entry) of the first differing entry."""
    for i, (lrow, rrow) in enumerate(zip(left.rows, right.rows)):
        for j, (a, b) in enumerate(zip(lrow, rrow)):
            if a != b:
                return (i, j, repr(a), repr(b))
    return None


def _check_shape(name, got: BlockMonomial, want: BlockMonomial):
    """Raise VerificationError naming the first block row where got differs
    from the expected block shape."""
    if got == want:
        return
    got_rows = zip(got.perm, got.blocks)
    want_rows = zip(want.perm, want.blocks)
    row = next((i for i, (a, b) in enumerate(zip(got_rows, want_rows)) if a != b), None)
    raise VerificationError(
        f"{name} image does not match its block shape at block row {row}"
    )


# --- canonical Artin representations -----------------------------------------


def artin_even(n: int, sigma: Representation = None, s=None) -> Representation:
    """Canonical generators x, y of the even Artin group of index 2n as
    2n x 2n matrices: x block-scalar lower unitriangular, y a companion of
    A = [[1,-mu],[0,1]] blocks with corner s*x0^-1*(v*x0^-1)^(n-1).

    Built by conjugating the induced representation by
    diag(E2, A, .., A^(n-1)) and checked against those shapes.
    """
    spec = artin_even_spec(n)
    if sigma is None:
        sigma = sigma_symbolic(n)
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    ring = sigma.ring
    lam, mu = sigma.params["lam"], sigma.params["mu"]
    one, zero = ring.one, ring.zero
    w = _mat2(ring, one, -mu, zero, one)  # A block, also v^-1
    v = _mat2(ring, one, mu, zero, one)
    u = BlockMonomial.diag([w**i for i in range(n)])
    u_inv = BlockMonomial.diag([v**i for i in range(n)])
    x_img, x_inv = (conjugate(g, u, u_inv) for g in tau.images["x0"])
    y_img, y_inv = (conjugate(g, u, u_inv) for g in tau.images["t"])

    x0 = _mat2(ring, one, zero, lam, one)
    x0_inv = _mat2(ring, one, zero, -lam, one)
    _check_shape("x", x_img, BlockMonomial.diag([x0] * n))
    corner = (x0_inv * (v * x0_inv) ** (n - 1)).scalar_mul(s)
    _check_shape("y", y_img, BlockMonomial.companion([w] * (n - 1), corner))

    return _canonical_rep(2 * n, tau, (x_img, x_inv), (y_img, y_inv))


def artin_odd(n: int, sigma: Representation = None, s=None) -> Representation:
    """Canonical generators x = t, y = x0 t of the odd Artin group of index
    2n+1 as matrices of degree 4(2n+1) (one 2x2 block per coset).

    The y image is checked against the displayed shape: superdiagonal blocks
    sigma(psi^-j(x0)) and corner s * sigma(Sigma^-1 psi(x0)).
    """
    spec = artin_odd_spec(n)
    if sigma is None:
        sigma = sigma_symbolic(2 * n, basis=artin_sigma_basis(2 * n + 1))
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    x_img, x_inv = tau.images["t"]
    x0_img, x0_inv = tau.images["x0"]
    y_img = x0_img * x_img
    y_inv = x_inv * x0_inv

    orbit = _phi_inverse_orbit(spec, Word.gen(0))
    corner_word = spec.w0.inverse() * spec.phi.apply(Word.gen(0))
    *superdiag, corner = sigma.block_eval_many(orbit[:-1] + [corner_word])
    _check_shape("y", y_img, BlockMonomial.companion(superdiag, corner.scalar_mul(s)))

    return _canonical_rep(2 * n + 1, tau, (x_img, x_inv), (y_img, y_inv))


def _canonical_rep(m, tau, x, y) -> Representation:
    """The representation of A(m) with the (image, inverse) pairs x and y
    as its canonical generators, checked on the canonical relation.  The
    spec, ring and params (s included) are those of the induced
    representation tau, and the relation reports continue tau's."""
    rep = Representation(tau.ring, [("x", *x), ("y", *y)], spec=tau.spec,
                         group=f"A({m})", params=dict(tau.params))
    rep.relation_reports = tau.relation_reports
    _require_relations(rep, [canonical_relation(m)],
                       f"canonical relation fails for A({m})")
    return rep


# --- the braid-group pair and its golden closed forms -------------------------


def _golden(entries):
    return RingMatrix(LAURENT, tuple(
        tuple(LaurentPoly(e) for e in row) for row in entries
    ))


# Closed forms of the braid-case 2x2 blocks over Z[lam, mu]: the inverse of
# the Sigma image and the images of psi^k(x0) for k = 1..4 in the rank2-mixed
# basis.  Derived by direct 2x2 multiplication; each has determinant 1.
GOLDEN_SIGMA_INV = _golden((
    ({(0, 0, 0): 1, (1, 1, 0): -1, (2, 2, 0): 1}, {(1, 2, 0): -1}),
    ({(2, 1, 0): -1}, {(0, 0, 0): 1, (1, 1, 0): 1}),
))
GOLDEN_PSI_X0 = {
    1: _golden((
        ({(0, 0, 0): 1}, {(0, 1, 0): -1}),
        ({(1, 0, 0): 1}, {(0, 0, 0): 1, (1, 1, 0): -1}),
    )),
    2: _golden((
        ({(0, 0, 0): 1, (1, 1, 0): 1}, {(0, 1, 0): -1}),
        ({(2, 1, 0): 1}, {(0, 0, 0): 1, (1, 1, 0): -1}),
    )),
    3: _golden((
        ({(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): -1}, {(1, 2, 0): 1}),
        ({(1, 0, 0): -1, (2, 1, 0): 2, (3, 2, 0): -1},
         {(0, 0, 0): 1, (1, 1, 0): -1, (2, 2, 0): 1}),
    )),
    4: _golden((
        ({(0, 0, 0): 1, (2, 2, 0): -2}, {(0, 1, 0): 1, (1, 2, 0): 2}),
        ({(1, 0, 0): -1, (2, 1, 0): 2, (3, 2, 0): -2},
         {(0, 0, 0): 1, (1, 1, 0): -1, (2, 2, 0): 2}),
    )),
}


def golden_table():
    """Symbolically computed braid-case blocks keyed like the closed forms."""
    spec = artin_odd_spec(1)
    sigma = sigma_symbolic(2, basis="rank2-mixed")
    out = {"sigma_inv": sigma.eval(spec.w0.inverse())}
    for k in range(1, 5):
        out[f"psi{k}_x0"] = sigma.eval(spec.phi.power(k).apply(Word.gen(0)))
    return out


def golden_check():
    """Compare the computed table against the frozen closed forms."""
    table = golden_table()
    expected = {"sigma_inv": GOLDEN_SIGMA_INV}
    expected.update({f"psi{k}_x0": GOLDEN_PSI_X0[k] for k in range(1, 5)})
    mismatches = [k for k in expected if table[k] != expected[k]]
    return table, mismatches


def b3_explicit(sigma: Representation = None, s=None):
    """The braid-group pair X, Y: the induced generators t and x0 t of the
    index-3 case conjugated by diag(E2, E2, Sigma^-1, .., Sigma^-1), their
    inverses t^-1 and t^-1 x0^-1 likewise.

    Returns 12x12 matrices verified against their block shapes (identity and
    Sigma^-1 blocks for X; x0, x1*Sigma^-1 and psi-power blocks for Y), the
    inverse certificate of every Representation, and the braid relation
    X Y X = Y X Y, the canonical relation of A(3).
    """
    spec = artin_odd_spec(1)
    symbolic = sigma is None
    if sigma is None:
        sigma = sigma_symbolic(2, basis="rank2-mixed")
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    t_img, t_inv = tau.images["t"]
    x0_img, x0_inv = tau.images["x0"]
    psi = spec.phi
    x0w, x1w = Word.gen(0), Word.gen(1)
    sig_inv, sig, x0, x1, psi1, psi2, psi3, psi4 = sigma.block_eval_many(
        [spec.w0.inverse(), spec.w0, x0w, x1w]
        + [psi.power(j).apply(x0w) for j in range(1, 5)]
    )
    ident2 = BlockMonomial.identity(sigma.ring, 2, 1)
    u = BlockMonomial.diag([ident2, ident2] + [sig_inv] * 4)
    u_inv = BlockMonomial.diag([ident2, ident2] + [sig] * 4)
    x_pair = [conjugate(g, u, u_inv) for g in (t_img, t_inv)]
    y_pair = [conjugate(g, u, u_inv) for g in (x0_img * t_img, t_inv * x0_inv)]

    _check_shape("X", x_pair[0], BlockMonomial.companion(
        [ident2, sig_inv, ident2, ident2, ident2], ident2.scalar_mul(s)))
    _check_shape("Y", y_pair[0], BlockMonomial.companion(
        [x0, x1 * sig_inv, psi4, psi3, psi2], psi1.scalar_mul(s)))
    if symbolic:
        _, mismatches = golden_check()
        if mismatches:
            raise VerificationError(f"golden mismatch: {mismatches}")
    rep = _canonical_rep(3, tau, x_pair, y_pair)
    return rep.image("x"), rep.image("y")


# --- faithfulness probe --------------------------------------------------------


@dataclass
class ProbeReport:
    max_len: int
    words_checked: int = 0
    identity_count: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def probe_faithfulness(rep: Representation, max_len: int) -> ProbeReport:
    """Check eval(w) = identity iff the normal form of w is trivial, for
    every freely reduced mixed word of length at most max_len.

    Non-reduced words evaluate and normalize identically to their
    reductions, so the reduced words cover all products.  They are not
    walked one by one; a meet-in-the-middle certificate decides them from
    the half-words, the reduced words of length at most H = ceil(max_len/2)
    and the empty word.  A reduced word w of length l splits once as
    a * c^-1 with |a| = ceil(l/2) and |c| = floor(l/2), and a * c^-1 is
    reduced exactly when a and c end in different letters (or c is empty).
    Then eval(w) = I exactly when a and c have the same image, and w is
    trivial exactly when they have the same normal form t^l * f.  So the
    half-words are classed twice, by image and by normal form, and:

    - words_checked is sum_{l <= max_len} 2r (2r - 1)^(l - 1) over the 2r
      letters, and identity_count counts, in each image class, the pairs
      (a, c) of lengths ceil(l/2) and floor(l/2) that end in different
      letters;
    - the counterexamples are the words a * c^-1 of length at most max_len
      whose halves share a class in one partition and not in the other.
      They are listed in the depth-first order of reduced_walk, which is
      the lexicographic order of the letter indices in the flattened
      pairs, a prefix first.  When the partitions agree there are none,
      and nothing is enumerated.

    Images are multiplied as the representation's stored block-monomial
    images (a coset permutation and one m x m block per coset, see
    BlockMonomial): k = spec.n blocks for the induced construction, and
    k = 1, a single dense block, for a representation read from dense
    matrices without that shape.  Over Q_p the blocks are scaled to
    integers with a tracked power p^e, and an image is keyed by its
    blocks rescaled to one common power of p; Laurent entries are keyed by
    their terms, other entries by themselves.
    """
    pairs, root, step, e_max = _probe_steps(rep, max_len)
    half = (max_len + 1) // 2
    image_key = _image_keyer(rep.ring, half * e_max)
    cells = {}  # (image key, normal form) -> half-words
    members = Counter()  # (image key, length, last letter) -> half-words
    half_words = reduced_walk(pairs, half, root, step)
    for word, (mat, e, l, f) in chain([((), root)], half_words):
        key = image_key(mat, e)
        cells.setdefault((key, (l, f.syms)), []).append(word)
        members[key, len(word), word[-1] if word else None] += 1

    # a of length n is the first half of the words of lengths 2n - 1 and
    # 2n, with c of length n - 1 and n: the pairs in one class, less those
    # where c ends in the letter a ends in.
    sizes = Counter()
    for (key, n, _), count in members.items():
        sizes[key, n] += count
    identities = sum(
        count * (sizes[key, n_c] - members[key, n_c, last])
        for (key, n, last), count in members.items()
        for n_c in (n - 1, n) if 0 < n and n + n_c <= max_len
    )
    size = 2 * len(pairs)
    words = sum(size * (size - 1) ** (n - 1) for n in range(1, max_len + 1))
    return ProbeReport(max_len, words, identities,
                       _probe_counterexamples(cells, pairs, max_len))


def _probe_counterexamples(cells, pairs, max_len):
    """The words a * c^-1 of length at most max_len with a and c in
    different cells of one image class or of one normal-form class, as
    strings in depth-first walk order.  (a is never empty: the empty word
    is alone in its cell.)"""
    images, forms = {key for key, _ in cells}, {nf for _, nf in cells}
    if len(images) == len(cells) == len(forms):
        return []  # the partitions agree
    by_image, by_form = defaultdict(list), defaultdict(list)
    for (key, nf), cell in cells.items():
        by_image[key].append(cell)
        by_form[nf].append(cell)
    found = [
        a + tuple((g, -s) for g, s in reversed(c))
        for classes in chain(by_image.values(), by_form.values())
        for a_cell, c_cell in permutations(classes, 2)
        for a in a_cell for c in c_cell
        if 0 <= len(a) - len(c) <= 1 and len(a) + len(c) <= max_len
        and (not c or a[-1] != c[-1])
    ]
    index = {sym: i for i, sym in enumerate(chain.from_iterable(pairs))}
    found.sort(key=lambda w: [index[sym] for sym in w])
    return [syms_str(w) for w in found]


def _probe_steps(rep: Representation, max_len: int):
    """(letter pairs, root state, step, e_max) of the probe's word walks.

    A state is (integer-scaled image, p-exponent e, l, f): the image is
    the scaled blocks / p^e, and the word equals t^l * f in the extension.
    Each letter raises e by at most e_max.
    """
    spec = rep.spec
    if spec is None:
        raise ValueError("probe needs a representation with an attached spec")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    pairs = [((g, 1), (g, -1)) for g in [*range(spec.rank), T_GEN]]
    # letter -> (integer-scaled image, p-exponent, base word or None for t)
    gens = {}
    for g, sign in (sym for pair in pairs for sym in pair):
        name, base = ("t", None) if g == T_GEN else (f"x{g}", Word.gen(g, sign))
        gens[g, sign] = (*_integer_scaled(rep.images[name][sign != 1]), base)
    first = gens[T_GEN, 1][0]
    ident = BlockMonomial.identity(first.ring, first.block_degree, len(first.perm))
    phi, phi_inv = spec.phi, spec.phi_inv

    def step(state, sym):
        mat, e, l, f = state
        gen_mat, gen_e, base = gens[sym]
        if base is not None:
            return mat * gen_mat, e + gen_e, l, f * base
        f = phi.apply(f) if sym[1] == 1 else phi_inv.apply(f)
        return mat * gen_mat, e + gen_e, l + sym[1], f

    e_max = max(e for _, e, _ in gens.values())
    return pairs, (ident, 0, 0, Word()), step, e_max


def _image_keyer(ring, top):
    """key(integer-scaled image, e): a hashable key of the image, equal for
    two states exactly when their images are equal.  Over Q_p the blocks
    are rescaled to the common denominator p^top (e <= top), and the key
    is the text of the permutation and the rescaled entries, which holds
    the probe's half-words in a third of the memory of a tuple of ints;
    Laurent entries become the sets of their terms."""
    if ring.kind == "qp":
        scales = [ring.p ** (top - e) for e in range(top + 1)]

        def key(mat, e):
            c = scales[e]
            return repr((mat.perm, [
                c * x for blk in mat.blocks for row in blk for x in row
            ]))
    elif ring.kind == "laurent":
        def key(mat, e):
            return mat.perm, tuple([
                frozenset(x.terms.items())
                for blk in mat.blocks for row in blk for x in row
            ])
    else:
        def key(mat, e):
            return mat.perm, mat.blocks
    return key


def _integer_scaled(bm: BlockMonomial):
    """(integer blocks, e) with image = blocks / p^e over Q_p; other rings
    keep their blocks with e = 0."""
    if bm.ring.kind != "qp":
        return bm, 0
    p = bm.ring.p
    e = max(x.k for blk in bm.blocks for r in blk for x in r)
    return bm.map_entries(INT, lambda x: x.num * p ** (e - x.k)), e
