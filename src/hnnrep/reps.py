"""Builders for the explicit faithful representations.

The two-parameter rank-2 images of a free group feed a coset-induced block
construction for the HNN extension F_phi(X) (stable letter as a block
companion over the cosets of <F(X), t^n>, base letters as block diagonals of
twisted images).  Conjugating by explicit block-diagonal matrices produces
the canonical two-generator Artin images, the 12x12 braid-group pair, and an
integer variant of degree 4 per coset (two 2x2 blocks) where the scalar s is
replaced by a unipotent central block.

Every image is block-monomial (see BlockMonomial) with 2x2 blocks of unit
determinant, so its inverse is the block adjugate (BlockMonomial.inverse),
exact by construction.  Each built block is z^e sigma(w), or a product of
such blocks, so its determinant is known by construction (sigma's letters
have determinant 1, z's is derived, and det is multiplicative); the blocks
carry it (BlockMonomial.dets), and no inverse computes a d - b c.  The
builders work on blocks throughout, JSON output included; dense matrices
appear only at the display boundary (image(), eval()).

Words are evaluated in batches (Representation.block_eval_many) that walk
their prefix trie (matrix._trie_walk).  sigma's one 2 x 2 block is walked
over the integers in every mode and read back exactly
(matrix._integer_eval): over Q_p the numerators of entries with k = 0, and
symbolically the graded entries evaluated at lam = 2^W, mu = 1, with W
from a 1-norm bound on the coefficients of the call's words.  Other images
are walked over their ring.

The written document is dense, but its text is rendered from the blocks
(Representation.block_document): each distinct block is encoded once, and
the zeros around it are string runs.

Everything is verified at construction: the defining relations
t^-1 x t = phi(x), the canonical relation w_m, and the displayed block
shapes.  The relations are certified on the ring-free word skeleton of the
extension (HnnSpec.skeleton): every induced image is a monomial element of
(F x <z>) wr S_k evaluated through sigma and the corner z.  Three facts make
a relation that holds on the skeletons hold on the matrices, in every ring
at once: sigma is a homomorphism of the free group (its inverse images are
checked), z is central and invertible (z is a scalar s I, or commutes with
each sigma(x_i), checked exactly on the matrices, and the corner block has
a unit determinant), and the images are the evaluated skeleton (the builder
evaluates the skeleton's own words).  The canonical pair is the image of
the artin_canonical words, conjugated by a matrix with its exact block
adjugate inverse, which keeps every relation.  When the certificate does
not pass, the relations are evaluated on the matrices
(verify_defining_relations), which then decides, failure messages
included.  Each check runs once, and its report is kept on the
representation (Representation.relation_reports).
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from itertools import chain, count, permutations

from ._record import Record
from .errors import VerificationError
from .matrix import (
    BlockMonomial,
    RingMatrix,
    _integer_eval,
    _trie_walk,
    conjugate,
    det_bareiss,
)
from .ring import INT, LAURENT, LaurentPoly, QpRing, ring_from_descriptor
from .words import (
    HnnSpec,
    MixedWord,
    T_GEN,
    Word,
    artin_canonical,
    artin_even_spec,
    artin_odd_spec,
    artin_spec,
    canonical_relation,
    parse_word,
    reduced_walk,
    syms_str,
)


class Representation:
    """Matrices assigned to named generators, inverses included.

    Images are stored as BlockMonomial, all of one shape: the builders pass
    blocks, and dense RingMatrix input is read with k = spec.n blocks when
    every image has that shape and as one block (k = 1) otherwise.  A JSON
    document comes without a spec, so it is read as one block.  image(),
    inverse_image() and eval() return dense matrices; block_eval_many()
    stays in blocks.

    A given inverse is checked for image * inverse = I with
    BlockMonomial.is_inverse_of (an adjugate certificate on 2 x 2 blocks,
    the product on others).  The one-sided check suffices: over the
    commutative rings used here, A B = I gives det A det B = 1, so A is
    invertible and B A = I as well.  An inverse given as None is derived
    from a BlockMonomial image as its block adjugate
    (BlockMonomial.inverse), which is exact and raises on a block whose
    determinant is not a unit, so it is not checked again.  An HnnSpec may
    be attached when the generators are the x_i / t alphabet of an
    extension.

    gen_words maps each generator to the mixed word of the spec whose
    skeleton (HnnSpec.skeleton_of) the image evaluates, when the builder
    made that exact; it is None otherwise, and relations are then
    evaluated on the matrices.  skeleton_image, set with gen_words by the
    induced builders, gives a mixed word's image evaluated from its
    skeleton, with no products of images.

    relation_reports holds the RelationReports that the builder verified,
    in order: the defining relations, then the canonical relation for an
    A(m) build.  relation_checks holds, in the same order, the pairs
    (representation, relations) they were verified on, the representation
    None for this one (see matrix_relation_reports).  Both are empty for a
    representation read from JSON.
    """

    def __init__(self, ring, gens, spec=None, group="", params=None):
        # gens: ordered list of (name, image, inverse image or None)
        if not gens:
            raise ValueError("a representation needs at least one generator")
        self.gen_names = tuple(name for name, _, _ in gens)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("repeated generator name")
        derived = {name for name, _, inv in gens if inv is None}
        adjugates = {}  # shared by the derived inverses
        mats = [mat for _, image, inv in gens
                for mat in (image, image.inverse(adjugates) if inv is None else inv)]
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
            if name not in derived and not image.is_inverse_of(inv):
                raise VerificationError(f"inverse image of {name} is wrong")
            self.images[name] = (image, inv)
        self.degree = degree
        self.spec = spec
        self.group = group
        self.params = params or {}
        self.gen_words = self.skeleton_image = None
        self.relation_reports = ()
        self.relation_checks = ()

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
        and nothing but the results outlives the call.  One 2 x 2 block
        over Laurent polynomials or Q_p is walked over the integers when
        its entries allow it (matrix._integer_eval); otherwise over the ring.
        """
        words = [tuple(self.letters(item)) for item in items]
        for name in {name for w in words for name, _ in w}:
            if name not in self.images:
                raise ValueError(f"unknown generator {name!r}")
        order = sorted(range(len(words)), key=words.__getitem__)
        first = next(iter(self.images.values()))[0]
        if first.block_degree == 2 and len(first.perm) == 1:
            out = _integer_eval(self.ring, self.images, words, order)
            if out is not None:
                return out
        ident = BlockMonomial.identity(self.ring, first.block_degree, len(first.perm))
        return _trie_walk(words, order, ident, self.images, BlockMonomial.__mul__)

    def eval(self, item) -> RingMatrix:
        """Image of a word: the product of generator images."""
        return self.block_eval_many([item])[0].to_matrix()

    def _document(self, matrix):
        """The document's layout, with matrix(image) for each image and
        inverse."""
        return {
            "group": self.group,
            "degree": self.degree,
            "ring": self.ring.descriptor(),
            "generators": [
                {"name": name, "image": matrix(image), "imageInverse": matrix(inverse)}
                for name, (image, inverse) in self.images.items()
            ],
        }

    def block_document(self):
        """The document with each image and inverse as its BlockMonomial,
        which the JSON writer renders from the blocks as the dense matrix
        document (matrix._write_json)."""
        return self._document(lambda image: image)

    def to_json(self):
        """The document from_json reads: each image and inverse is the dense
        RingMatrix document."""
        return self._document(BlockMonomial.to_json)

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


def _mat2(ring, a, b, c, d, det=None):
    """The one-block matrix [[a, b], [c, d]], with its determinant det when
    the caller knows it by construction."""
    return BlockMonomial(ring, (0,), (((a, b), (c, d)),), None if det is None else (det,))


def sigma_free(rank, ring, lam, mu, basis="conjugated") -> Representation:
    """Two-parameter degree-2 images of the free group of the given rank.

    x0 maps to the lower unitriangular [[1,0],[lam,1]].  In the conjugated
    basis x_i is that matrix conjugated by [[1,mu],[0,1]]^i, in closed form
    [[1 - i lam mu, -i^2 lam mu^2], [lam, 1 + i lam mu]] with inverse
    [[1 + i lam mu, i^2 lam mu^2], [-lam, 1 - i lam mu]]; the rank2-mixed
    basis instead sends x1 straight to [[1,mu],[0,1]] (rank 2 only).

    Each letter's determinant a d - b c is computed once here and must be
    1.  The letters carry it (BlockMonomial.dets), so every block built
    from them knows its own.  The inverses are certified by Representation
    (is_inverse_of), so theirs is 1 too.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    one, zero = ring.one, ring.zero
    gens = [("x0", (one, zero, lam, one), (one, zero, -lam, one))]
    if basis == "conjugated":
        lm = lam * mu
        lmm = lm * mu
        for i in range(1, rank):
            c, q = ring.from_int(i) * lm, ring.from_int(i * i) * lmm
            gens.append((f"x{i}", (one - c, -q, lam, one + c), (one + c, q, -lam, one - c)))
    elif basis == "rank2-mixed":
        if rank != 2:
            raise ValueError("rank2-mixed basis is specific to rank 2")
        gens.append(("x1", (one, mu, zero, one), (one, -mu, zero, one)))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    letters = []
    for name, (a, b, c, d), inv in gens:
        if a * d - b * c != one:
            raise VerificationError(f"sigma image of {name} must have determinant 1")
        letters.append((name, _mat2(ring, a, b, c, d, one), _mat2(ring, *inv, one)))
    return Representation(
        ring, letters, group=f"F{rank}",
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


def _infinite_order_unit(ring, s):
    """Validate that s is an infinite-order unit and return it.

    Over Laurent polynomials and Q_p the units are +-s^c and +-p^e, of
    infinite order unless c = 0 or e = 0, that is unless s = +-1."""
    if ring.kind not in ("laurent", "qp"):
        raise ValueError(f"no infinite-order units available over {ring!r}")
    if not ring.is_unit(s):
        raise ValueError(f"s = {s!r} is not a unit over {ring!r}")
    if s == ring.one or s == -ring.one:
        raise ValueError("s must have infinite order, not +-1")
    return s


def _induced_representation(spec, sigma, corner_z, group):
    """Coset-induced representation of the extension from sigma and a
    central block z standing in for the image of t^n w0: the evaluated
    skeleton of each letter (HnnSpec.skeleton).

    t maps to the block companion over the cosets 1, t, .., t^{n-1} with
    corner z * sigma(w0^-1); x_i maps to the block diagonal of the
    sigma-images of phi^-j(x_i).  The skeleton's words are evaluated in one
    batch, sharing prefixes.  Every block is z^e sigma(w), 2 x 2 with a
    determinant known by construction: sigma's letters carry theirs (1),
    z^e sigma(w) multiplies in z's, a unit, and det is multiplicative.  So
    each inverse is the block adjugate from that determinant
    (BlockMonomial.inverse), with no a d - b c.  The defining relations are
    verified.  z is central when it is a scalar s I, or commutes with each
    sigma(x_i); then gen_words certifies the skeleton, and skeleton_image
    evaluates a mixed word's skeleton, walking only the words not yet
    evaluated.
    """
    letters = {f"x{i}": (i, 1) for i in range(spec.rank)} | {"t": (T_GEN, 1)}
    sigma_of = {}

    def evaluate(skeletons):
        words = list(dict.fromkeys(
            w for sk in skeletons for _, w in sk.cells if w not in sigma_of))
        sigma_of.update(zip(words, sigma.block_eval_many(words)))
        out = []
        for sk in skeletons:
            blocks = []
            for e, w in sk.cells:
                blk = sigma_of[w]
                for _ in range(e):
                    blk = corner_z * blk
                for _ in range(-e):
                    blk = corner_z.inverse() * blk
                blocks.append(blk)
            out.append(BlockMonomial.from_blocks(sk.perm, blocks))
        return out

    images = evaluate([spec.skeleton[sym] for sym in letters.values()])
    rep = Representation(sigma.ring, [(name, image, None) for name, image in zip(letters, images)],
                         spec=spec, group=group, params=dict(sigma.params))
    if corner_z.is_scalar(corner_z.blocks[0][0][0]) or all(
            corner_z * x == x * corner_z
            for x, _ in (sigma.images[f"x{i}"] for i in range(spec.rank))):
        rep.gen_words = {name: MixedWord((sym,)) for name, sym in letters.items()}
        rep.skeleton_image = lambda word: evaluate([spec.skeleton_of(word.syms)])[0]
    _require_relations(rep, defining_relations(spec),
                       f"defining relations fail for {group}")
    return rep


def hnn_induced_rep(spec: HnnSpec, sigma: Representation, s) -> Representation:
    """Faithful representation of the extension of degree sigma.degree * n,
    with the infinite-order unit s in the companion corner.  sigma's stored
    images must have 2 x 2 blocks, as sigma_free's have; other blocks raise
    ValueError (BlockMonomial.inverse)."""
    s = _infinite_order_unit(sigma.ring, s)
    (ident,) = sigma.block_eval_many([()])  # the identity in sigma's shape
    rep = _induced_representation(
        spec, sigma, ident.scalar_mul(s), group=f"F_phi(X), rank {spec.rank}",
    )
    rep.params["s"] = s
    return rep


def integer_hnn(spec: HnnSpec, sigma_z: Representation, s: int) -> Representation:
    """Integer variant: the scalar s is replaced by the unipotent block
    U = [[1,s],[0,1]], giving matrices of degree 2n (d + 2) over the
    integers with determinant one, d = sigma_z.degree.

    sigma_z's images must have determinant 1 and 2 x 2 blocks.  A base
    letter x maps through diag(I_2, sigma_z(x)) and the corner is
    diag(U, I_d), all as matrices of 2 x 2 blocks, so every built image
    has 2 x 2 blocks of unit determinant.  An image stored block-diagonal
    with known determinants 1 (sigma_free's) is taken as it is; any other
    is read in 2 x 2 blocks, and its determinant computed."""
    if sigma_z.ring != INT:
        raise ValueError("integer variant needs an integer sigma")
    if s == 0:
        raise ValueError("s must be nonzero")
    if sigma_z.degree % 2:
        raise ValueError("integer variant needs sigma images in 2 x 2 blocks")
    half = sigma_z.degree // 2
    ident2 = BlockMonomial.identity(INT, 2, 1)
    gens = []
    for name, pair in sigma_z.images.items():
        if pair[0].dets != (1,) * half or pair[0].perm != tuple(range(half)):
            dense = [m.to_matrix() for m in pair]
            if det_bareiss(dense[0]) != 1:
                raise ValueError(f"sigma image of {name} must have determinant 1")
            pair = [BlockMonomial.from_matrix(m, half) for m in dense]
        gens.append((name, *(BlockMonomial.diag([ident2, m]) for m in pair)))
    sigma_ext = Representation(INT, gens, group=sigma_z.group,
                               params=dict(sigma_z.params))
    # U is unitriangular: determinant 1 by construction.
    corner = BlockMonomial.diag([_mat2(INT, 1, s, 0, 1, 1)] + [ident2] * half)
    rep = _induced_representation(
        spec, sigma_ext, corner, group=f"F_phi(X), rank {spec.rank}, integer",
    )
    rep.params["s"] = s
    return rep


def integer_artin(m: int, sigma_z: Representation, s: int) -> Representation:
    """The integer variant of A(m) on the x_i / t alphabet of artin_spec(m),
    with the canonical relation w_m verified at the artin_canonical words
    of x and y.  Its relation reports are (defining, canonical), as for
    artin_even and artin_odd."""
    rep = integer_hnn(artin_spec(m), sigma_z, s)
    _require_relations(rep, [artin_canonical(m)[2]],
                       f"canonical relation fails for A({m})")
    return rep


def defining_relations(spec: HnnSpec):
    """The pairs (t^-1 x_i t, phi(x_i)) as mixed words."""
    out = []
    for i in range(spec.rank):
        lhs = MixedWord.t(-1) * MixedWord.gen(i) * MixedWord.t()
        rhs = MixedWord.from_word(spec.phi.apply(Word.gen(i)))
        out.append((lhs, rhs))
    return out


class RelationResult(Record, frozen=True):
    """One relation's verdict, its sides as text; mismatch is (row, col,
    left entry, right entry) of the first differing entry, or None."""

    _fields = ("lhs", "rhs", "ok", "mismatch")

    def __init__(self, lhs: str, rhs: str, ok: bool, mismatch: tuple = None):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "mismatch", mismatch)


class RelationReport(Record, frozen=True):
    _fields = ("results",)

    def __init__(self, results: tuple):
        object.__setattr__(self, "results", results)

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


def matrix_relation_reports(rep: Representation):
    """verify_defining_relations on the built matrices for every relation
    the builder verified, in the order of rep.relation_reports."""
    return tuple(verify_defining_relations(source or rep, relations)
                 for source, relations in rep.relation_checks)


def _skeleton_report(rep: Representation, relations):
    """The report verify_defining_relations gives when both sides of every
    relation have equal skeletons (see the module docstring); None when
    rep has no gen_words or some relation is not certified."""
    words = rep.gen_words
    if words is None:
        return None
    results = []
    for pair in relations:
        lhs, rhs = (tuple(rep.letters(w)) for w in pair)
        left, right = (rep.spec.skeleton_of(chain.from_iterable(
            (words[name] ** sign).syms for name, sign in side)) for side in (lhs, rhs))
        if left != right:
            return None
        results.append(RelationResult(syms_str(lhs), syms_str(rhs), True))
    return RelationReport(tuple(results))


def _require_relations(rep: Representation, relations, failure: str):
    """Keep the report in rep.relation_reports, from the skeleton
    certificate or else from the matrices; unless all relations hold,
    raise VerificationError naming the failed ones, with the reports so
    far, this one last, as its reports."""
    report = _skeleton_report(rep, relations)
    if report is None:
        report = verify_defining_relations(rep, relations)
    rep.relation_reports += (report,)
    rep.relation_checks += ((None, relations),)
    if not report.ok:
        raise VerificationError(f"{failure}: {report.failures()}",
                                rep.relation_reports)


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
    w = _mat2(ring, one, -mu, zero, one, one)  # A block, also v^-1; det 1
    v = _mat2(ring, one, mu, zero, one)
    u = BlockMonomial.diag([w**i for i in range(n)])
    x_img = conjugate(tau.images["x0"][0], u)
    y_img = conjugate(tau.images["t"][0], u)

    x0 = _mat2(ring, one, zero, lam, one)
    x0_inv = _mat2(ring, one, zero, -lam, one)
    _check_shape("x", x_img, BlockMonomial.diag([x0] * n))
    corner = (x0_inv * (v * x0_inv) ** (n - 1)).scalar_mul(s)
    _check_shape("y", y_img, BlockMonomial.companion([w] * (n - 1), corner))

    return _canonical_rep(2 * n, tau, x_img, y_img)


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
    x_img = tau.images["t"][0]
    y_img = _odd_y(tau)

    orbit = [w for _, w in spec.skeleton[0, 1].cells]
    corner_word = spec.w0.inverse() * spec.phi.apply(Word.gen(0))
    *superdiag, corner = sigma.block_eval_many(orbit[:-1] + [corner_word])
    _check_shape("y", y_img, BlockMonomial.companion(superdiag, corner.scalar_mul(s)))

    return _canonical_rep(2 * n + 1, tau, x_img, y_img)


def _odd_y(tau):
    """The image of the odd canonical y = x0 t under the induced tau: from
    its skeleton (sigma walk values times corner powers) when
    tau.skeleton_image is set, else the product of the images."""
    if tau.skeleton_image is None:
        return tau.images["x0"][0] * tau.images["t"][0]
    return tau.skeleton_image(MixedWord.gen(0) * MixedWord.t())


def _canonical_rep(m, tau, x, y) -> Representation:
    """The representation of A(m) with the images x and y as its canonical
    generators, and their block adjugates as inverses, checked on the
    canonical relation.  x and y are the images of the artin_canonical(m)
    words under tau, conjugated by a matrix with its exact inverse.  The
    spec, ring and params (s included) are those of the induced
    representation tau, and the relation reports continue tau's."""
    rep = Representation(tau.ring, [("x", x, None), ("y", y, None)],
                         spec=tau.spec, group=f"A({m})", params=dict(tau.params))
    if tau.gen_words is not None:
        x_word, y_word, _ = artin_canonical(m)
        rep.gen_words = {"x": x_word, "y": y_word}
    rep.relation_reports = tau.relation_reports
    rep.relation_checks = tuple((source or tau, relations)
                                for source, relations in tau.relation_checks)
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


def b3_explicit(sigma: Representation = None, s=None, mismatches=None):
    """The braid-group pair X, Y: the induced generators t and x0 t of the
    index-3 case conjugated by diag(E2, E2, Sigma^-1, .., Sigma^-1).

    Returns 12x12 matrices verified against their block shapes (identity and
    Sigma^-1 blocks for X; x0, x1*Sigma^-1 and psi-power blocks for Y), the
    inverse certificate of every Representation, and the braid relation
    X Y X = Y X Y, the canonical relation of A(3).  The symbolic pair is
    also checked against the golden closed forms: mismatches is a caller's
    golden_check() result, computed here when None.
    """
    spec = artin_odd_spec(1)
    symbolic = sigma is None
    if sigma is None:
        sigma = sigma_symbolic(2, basis="rank2-mixed")
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    t_img = tau.images["t"][0]
    psi = spec.phi
    x0w, x1w = Word.gen(0), Word.gen(1)
    sig_inv, x0, x1, psi1, psi2, psi3, psi4 = sigma.block_eval_many(
        [spec.w0.inverse(), x0w, x1w]
        + [psi.power(j).apply(x0w) for j in range(1, 5)]
    )
    ident2 = BlockMonomial.identity(sigma.ring, 2, 1)
    u = BlockMonomial.diag([ident2, ident2] + [sig_inv] * 4)
    x_img = conjugate(t_img, u)
    y_img = conjugate(_odd_y(tau), u)

    _check_shape("X", x_img, BlockMonomial.companion(
        [ident2, sig_inv, ident2, ident2, ident2], ident2.scalar_mul(s)))
    _check_shape("Y", y_img, BlockMonomial.companion(
        [x0, x1 * sig_inv, psi4, psi3, psi2], psi1.scalar_mul(s)))
    if symbolic:
        if mismatches is None:
            _, mismatches = golden_check()
        if mismatches:
            raise VerificationError(f"golden mismatch: {mismatches}")
    rep = _canonical_rep(3, tau, x_img, y_img)
    return rep.image("x"), rep.image("y")


# --- faithfulness probe --------------------------------------------------------


# A failing probe lists at most this many counterexamples, the first in walk
# order; counterexample_count counts them all.
MAX_COUNTEREXAMPLES = 20_000


class ProbeReport(Record):
    _fields = ("max_len", "words_checked", "identity_count", "counterexamples",
               "counterexample_count")

    def __init__(self, max_len: int, words_checked: int = 0,
                 identity_count: int = 0, counterexamples: list = None,
                 counterexample_count: int = 0):
        self.max_len = max_len
        self.words_checked = words_checked
        self.identity_count = identity_count
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.counterexample_count = counterexample_count

    @property
    def ok(self) -> bool:
        return not self.counterexample_count


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
      counterexample_count counts them all, and the first
      MAX_COUNTEREXAMPLES of them are listed in the depth-first order of
      reduced_walk, which is the lexicographic order of the letter indices
      in the flattened pairs, a prefix first.  When the partitions agree
      there are none, and nothing is enumerated.

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
    listed, total = _probe_counterexamples(cells, pairs, max_len)
    return ProbeReport(max_len, words, identities, listed, total)


def _probe_counterexamples(cells, pairs, max_len):
    """(the first MAX_COUNTEREXAMPLES counterexamples as strings, in
    depth-first walk order, and their number): the words a * c^-1 of
    length at most max_len with a and c in different cells of one image
    class or of one normal-form class.  Only the listed words are kept.
    (a is never empty: the empty word is alone in its cell.)"""
    images, forms = {key for key, _ in cells}, {nf for _, nf in cells}
    if len(images) == len(cells) == len(forms):
        return [], 0  # the partitions agree
    by_image, by_form = defaultdict(list), defaultdict(list)
    for (key, nf), cell in cells.items():
        by_image[key].append(cell)
        by_form[nf].append(cell)
    found = (
        a + tuple((g, -s) for g, s in reversed(c))
        for classes in chain(by_image.values(), by_form.values())
        for a_cell, c_cell in permutations(classes, 2)
        for a in a_cell for c in c_cell
        if 0 <= len(a) - len(c) <= 1 and len(a) + len(c) <= max_len
        and (not c or a[-1] != c[-1])
    )
    index = {sym: i for i, sym in enumerate(chain.from_iterable(pairs))}
    # zip stops at the end of found before it draws from tally, so tally's
    # next value is the number of words found.
    tally = count()
    kept = heapq.nsmallest(MAX_COUNTEREXAMPLES, (w for w, _ in zip(found, tally)),
                           key=lambda w: [index[sym] for sym in w])
    return [syms_str(w) for w in kept], next(tally)


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
