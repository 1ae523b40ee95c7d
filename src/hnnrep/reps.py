"""Builders for the explicit faithful representations.

The two-parameter rank-2 images of a free group feed a coset-induced block
construction for the HNN extension F_phi(X) (stable letter as a block
companion over the cosets of <F(X), t^n>, base letters as block diagonals of
twisted images).  Conjugating by explicit block-diagonal matrices produces
the canonical two-generator Artin images, the 12x12 braid-group pair, and an
integer variant of degree 4 per coset where the scalar s is replaced by a
unipotent central block.

Everything is verified at construction: generator inverses, the defining
relations t^-1 x t = phi(x), and the displayed block shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import VerificationError
from .matrix import (
    BlockMonomial,
    RingMatrix,
    block_companion,
    block_diag,
    block_grid,
    conjugate,
    det_bareiss,
    get_block,
)
from .ring import INT, LAURENT, LaurentPoly, QpRing
from .words import (
    HnnSpec,
    MixedWord,
    T_GEN,
    Word,
    artin_even_spec,
    artin_odd_spec,
    parse_word,
)


class Representation:
    """Degree-d matrices assigned to named generators, inverses included.

    Generator images and their inverses are checked against each other at
    construction.  An HnnSpec may be attached when the generators are the
    x_i / t alphabet of an extension.
    """

    def __init__(self, ring, gens, spec=None, group="", params=None):
        # gens: ordered list of (name, image, inverse image)
        self.ring = ring
        self.gen_names = tuple(name for name, _, _ in gens)
        self.images = {}
        degree = None
        for name, image, inv in gens:
            if degree is None:
                degree = image.degree
            if image.degree != degree or inv.degree != degree:
                raise ValueError("generator images of mixed degree")
            if image.ring != ring or inv.ring != ring:
                raise ValueError("generator image over a different ring")
            ident = RingMatrix.identity(ring, degree)
            if image * inv != ident or inv * image != ident:
                raise VerificationError(f"inverse image of {name} is wrong")
            self.images[name] = (image, inv)
        self.degree = degree
        self.spec = spec
        self.group = group
        self.params = params or {}

    def image(self, name: str) -> RingMatrix:
        return self.images[name][0]

    def inverse_image(self, name: str) -> RingMatrix:
        return self.images[name][1]

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

    def eval(self, item) -> RingMatrix:
        """Image of a word: the product of generator images."""
        out = RingMatrix.identity(self.ring, self.degree)
        for name, sign in self.letters(item):
            if name not in self.images:
                raise ValueError(f"unknown generator {name!r}")
            out = out * self.images[name][sign != 1]
        return out

    def to_json(self):
        return {
            "group": self.group,
            "degree": self.degree,
            "ring": self.ring.descriptor(),
            "generators": [
                {
                    "name": name,
                    "image": self.images[name][0].to_json(),
                    "imageInverse": self.images[name][1].to_json(),
                }
                for name in self.gen_names
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "Representation":
        gens = [
            (
                g["name"],
                RingMatrix.from_json(g["image"]),
                RingMatrix.from_json(g["imageInverse"]),
            )
            for g in doc["generators"]
        ]
        ring = gens[0][1].ring
        rep = cls(ring, gens, group=doc.get("group", ""))
        if rep.degree != doc["degree"]:
            raise ValueError("degree field does not match matrices")
        return rep

    def __repr__(self):
        return (
            f"Representation({self.group or 'unnamed'}, degree {self.degree}, "
            f"generators {', '.join(self.gen_names)})"
        )


_LETTER_RE = re.compile(r"^([A-Za-z]\w*)(\^(-?1))?$")


def parse_letters(text: str):
    """Parse "x y^-1 x" style words over arbitrary generator names."""
    out = []
    for term in text.split():
        m = _LETTER_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse letter {term!r}")
        out.append((m.group(1), -1 if m.group(3) == "-1" else 1))
    return out


def _mat2(ring, a, b, c, d):
    return RingMatrix(ring, ((a, b), (c, d)))


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


def sigma_symbolic(rank, basis="conjugated") -> Representation:
    return sigma_free(rank, LAURENT, LAURENT.lam(), LAURENT.mu(), basis)


def sigma_qp(rank, lam0, mu0, p, basis="conjugated") -> Representation:
    ring = QpRing(p)
    return sigma_free(rank, ring, ring.from_int(lam0), ring.from_int(mu0), basis)


def sigma_int(rank, lam0, mu0, basis="conjugated") -> Representation:
    return sigma_free(rank, INT, lam0, mu0, basis)


def _unit_with_inverse(ring, s):
    """Validate that s is an infinite-order unit and return (s, s^-1)."""
    if ring.kind == "laurent":
        if not s.is_unit():
            raise ValueError("s must be a unit +-s^c")
        ((_, _, c),) = s.terms.keys()
        if c == 0:
            raise ValueError("s must have infinite order (nonzero s-exponent)")
        return s, s.unit_inverse()
    if ring.kind == "qp":
        if not s.is_unit():
            raise ValueError("s must be a unit +-p^e of Q_p")
        inv = s.unit_inverse()
        if s == ring.one or s == -ring.one:
            raise ValueError("s must have infinite order")
        return s, inv
    raise ValueError(f"no infinite-order units available over {ring!r}")


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
    sigma-images of phi^-j(x_i).  The defining relations are verified.
    """
    k = spec.n
    m = sigma.degree
    ring = sigma.ring
    f_img = sigma.eval(spec.f)
    f_inv_img = sigma.eval(spec.f.inverse())
    t_img = block_companion([None] * (k - 1), corner_z * f_img)
    t_inv = block_grid(
        ring, m, k,
        {(i + 1, i): None for i in range(k - 1)} | {(0, k - 1): f_inv_img * corner_z_inv},
    )
    gens = []
    for i in range(spec.rank):
        orbit = _phi_inverse_orbit(spec, Word.gen(i))
        img = block_diag([sigma.eval(w) for w in orbit])
        inv = block_diag([sigma.eval(w.inverse()) for w in orbit])
        gens.append((f"x{i}", img, inv))
    gens.append(("t", t_img, t_inv))
    rep = Representation(
        ring, gens, spec=spec, group=group,
        params=dict(sigma.params, corner=corner_z),
    )
    relations = defining_relations(spec)
    report = verify_defining_relations(rep, relations)
    if not report.ok:
        raise VerificationError(
            f"defining relations fail for {group}: {report.failures()}"
        )
    return rep


def hnn_induced_rep(spec: HnnSpec, sigma: Representation, s) -> Representation:
    """Faithful representation of the extension of degree sigma.degree * n,
    with the infinite-order unit s in the companion corner."""
    s_val, s_inv = _unit_with_inverse(sigma.ring, s)
    m = sigma.degree
    z = RingMatrix.identity(sigma.ring, m).scalar_mul(s_val)
    z_inv = RingMatrix.identity(sigma.ring, m).scalar_mul(s_inv)
    rep = _induced_representation(
        spec, sigma, z, z_inv, group=f"F_phi(X), rank {spec.rank}"
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
    for name in sigma_z.gen_names:
        if det_bareiss(sigma_z.image(name)) != 1:
            raise ValueError(f"sigma image of {name} must have determinant 1")
    m = sigma_z.degree
    ident2 = RingMatrix.identity(INT, 2)
    ext_gens = []
    for name in sigma_z.gen_names:
        ext_gens.append((
            name,
            block_grid(INT, 1, m + 2, _embed_blocks(ident2, sigma_z.image(name))),
            block_grid(INT, 1, m + 2, _embed_blocks(ident2, sigma_z.inverse_image(name))),
        ))
    sigma_ext = Representation(
        INT, ext_gens, group=sigma_z.group, params=dict(sigma_z.params)
    )
    t_s = RingMatrix.from_ints(INT, ((1, s), (0, 1)))
    t_s_inv = RingMatrix.from_ints(INT, ((1, -s), (0, 1)))
    z = block_grid(INT, 1, m + 2, _embed_blocks(t_s, RingMatrix.identity(INT, m)))
    z_inv = block_grid(INT, 1, m + 2, _embed_blocks(t_s_inv, RingMatrix.identity(INT, m)))
    rep = _induced_representation(
        spec, sigma_ext, z, z_inv,
        group=f"F_phi(X), rank {spec.rank}, integer",
    )
    rep.params["s"] = s
    return rep


def _embed_blocks(top: RingMatrix, bottom: RingMatrix):
    """Scalar-degree block grid entries for diag(top, bottom)."""
    blocks = {}
    a = top.degree
    for i in range(a):
        for j in range(a):
            blocks[(i, j)] = RingMatrix(top.ring, ((top.rows[i][j],),))
    for i in range(bottom.degree):
        for j in range(bottom.degree):
            blocks[(a + i, a + j)] = RingMatrix(bottom.ring, ((bottom.rows[i][j],),))
    return blocks


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
    """Evaluate both sides of each relation; on failure report the first
    differing entry."""
    results = []
    for lhs, rhs in relations:
        left = rep.eval(lhs)
        right = rep.eval(rhs)
        if left == right:
            results.append(RelationResult(str(lhs), str(rhs), True))
            continue
        mismatch = None
        for i in range(rep.degree):
            for j in range(rep.degree):
                if left.rows[i][j] != right.rows[i][j]:
                    mismatch = (i, j, repr(left.rows[i][j]), repr(right.rows[i][j]))
                    break
            if mismatch:
                break
        results.append(RelationResult(str(lhs), str(rhs), False, mismatch))
    return RelationReport(tuple(results))


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
    u = block_diag([w**i for i in range(n)])
    u_inv = block_diag([v**i for i in range(n)])
    x_img = conjugate(tau.image("x0"), u, u_inv)
    x_inv = conjugate(tau.inverse_image("x0"), u, u_inv)
    y_img = conjugate(tau.image("t"), u, u_inv)
    y_inv = conjugate(tau.inverse_image("t"), u, u_inv)

    x0 = _mat2(ring, one, zero, lam, one)
    x0_inv = _mat2(ring, one, zero, -lam, one)
    if x_img != block_diag([x0] * n):
        raise VerificationError("x image does not match the block-scalar shape")
    corner = (x0_inv * (v * x0_inv) ** (n - 1)).scalar_mul(s)
    expected_y = block_companion([w] * (n - 1), corner)
    if y_img != expected_y:
        raise VerificationError("y image does not match the companion shape")

    rep = Representation(
        ring,
        [("x", x_img, x_inv), ("y", y_img, y_inv)],
        spec=spec,
        group=f"A({2 * n})",
        params=dict(sigma.params, s=s),
    )
    _verify_artin_relation(rep, 2 * n)
    return rep


def artin_odd(n: int, sigma: Representation = None, s=None) -> Representation:
    """Canonical generators x = t, y = x0 t of the odd Artin group of index
    2n+1 as matrices of degree 4(2n+1) (one 2x2 block per coset).

    The y image is checked against the displayed shape: superdiagonal blocks
    sigma(psi^-j(x0)) and corner s * sigma(Sigma^-1 psi(x0)).
    """
    spec = artin_odd_spec(n)
    if sigma is None:
        sigma = sigma_symbolic(2 * n, basis="rank2-mixed" if n == 1 else "conjugated")
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    x_img, x_inv = tau.image("t"), tau.inverse_image("t")
    y_img = tau.image("x0") * tau.image("t")
    y_inv = tau.inverse_image("t") * tau.inverse_image("x0")

    k = spec.n  # 4n + 2 cosets
    orbit = _phi_inverse_orbit(spec, Word.gen(0))
    for j in range(k - 1):
        if get_block(y_img, j, j + 1, 2) != sigma.eval(orbit[j]):
            raise VerificationError(f"y block ({j}, {j + 1}) is off")
    corner_word = spec.w0.inverse() * spec.phi.apply(Word.gen(0))
    if get_block(y_img, k - 1, 0, 2) != sigma.eval(corner_word).scalar_mul(s):
        raise VerificationError("y corner block is off")

    rep = Representation(
        sigma.ring,
        [("x", x_img, x_inv), ("y", y_img, y_inv)],
        spec=spec,
        group=f"A({2 * n + 1})",
        params=dict(sigma.params, s=s),
    )
    _verify_artin_relation(rep, 2 * n + 1)
    return rep


def canonical_relation(m: int):
    """The alternating relation w_m(x,y) = w_m(y,x) over letters x, y."""
    n, rem = divmod(m, 2)
    lhs = [("x", 1), ("y", 1)] * n + [("x", 1)] * rem
    rhs = [("y", 1), ("x", 1)] * n + [("y", 1)] * rem
    return lhs, rhs


def _verify_artin_relation(rep: Representation, m: int):
    lhs, rhs = canonical_relation(m)
    if rep.eval(lhs) != rep.eval(rhs):
        raise VerificationError(f"canonical relation fails for A({m})")


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
    """The braid-group pair X, Y: the induced generators of the index-3 case
    conjugated by diag(E2, E2, Sigma^-1, .., Sigma^-1).

    Returns 12x12 matrices verified against their block shapes (identity and
    Sigma^-1 blocks for X; x0, x1*Sigma^-1 and psi-power blocks for Y) and
    the braid relation X Y X = Y X Y.
    """
    spec = artin_odd_spec(1)
    symbolic = sigma is None
    if sigma is None:
        sigma = sigma_symbolic(2, basis="rank2-mixed")
    if s is None:
        s = LAURENT.s_power(1)
    tau = hnn_induced_rep(spec, sigma, s)
    t_img = tau.image("t")
    dt = tau.image("x0") * t_img
    sig_inv = sigma.eval(spec.w0.inverse())
    sig = sigma.eval(spec.w0)
    ident2 = RingMatrix.identity(sigma.ring, 2)
    u = block_diag([ident2, ident2, sig_inv, sig_inv, sig_inv, sig_inv])
    u_inv = block_diag([ident2, ident2, sig, sig, sig, sig])
    x_mat = conjugate(t_img, u, u_inv)
    y_mat = conjugate(dt, u, u_inv)

    psi = spec.phi
    x0w, x1w = Word.gen(0), Word.gen(1)
    expected_x = {(0, 1): None, (2, 3): None, (3, 4): None, (4, 5): None,
                  (1, 2): sig_inv,
                  (5, 0): ident2.scalar_mul(s)}
    expected_y = {(0, 1): sigma.eval(x0w),
                  (1, 2): sigma.eval(x1w) * sig_inv,
                  (2, 3): sigma.eval(psi.power(4).apply(x0w)),
                  (3, 4): sigma.eval(psi.power(3).apply(x0w)),
                  (4, 5): sigma.eval(psi.power(2).apply(x0w)),
                  (5, 0): sigma.eval(psi.apply(x0w)).scalar_mul(s)}
    for name, mat, exp in (("X", x_mat, expected_x), ("Y", y_mat, expected_y)):
        want = block_grid(sigma.ring, 2, 6, exp)
        if mat != want:
            raise VerificationError(f"{name} does not match its block shape")
    if symbolic:
        _, mismatches = golden_check()
        if mismatches:
            raise VerificationError(f"golden mismatch: {mismatches}")
    if x_mat * y_mat * x_mat != y_mat * x_mat * y_mat:
        raise VerificationError("braid relation X Y X = Y X Y fails")
    return x_mat, y_mat


# --- exhaustive faithfulness probe --------------------------------------------


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

    Non-reduced words evaluate and normalize identically to their reductions,
    so enumerating reduced words in length-lexicographic order covers all
    products.  The walk multiplies block-monomial images (a coset
    permutation and one m x m block per coset, see BlockMonomial): k =
    spec.n blocks when every generator image has that shape, as the induced
    construction guarantees, and otherwise k = 1, a single dense block.
    Over Q_p the blocks are scaled to integers with a tracked power of p, so
    the inner loop stays in plain integer arithmetic; on other rings the
    exponent stays 0.  A word evaluates to the identity exactly when its
    permutation is the identity and every block equals p^e * I.
    """
    spec = rep.spec
    if spec is None:
        raise ValueError("probe needs a representation with an attached spec")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    letters = []
    for i in range(spec.rank):
        letters.append((i, 1))
        letters.append((i, -1))
    letters.append((T_GEN, 1))
    letters.append((T_GEN, -1))

    images = {
        sym: rep.images["t" if sym[0] == T_GEN else f"x{sym[0]}"][sym[1] != 1]
        for sym in letters
    }
    try:
        blocks = {sym: BlockMonomial.from_matrix(img, spec.n)
                  for sym, img in images.items()}
    except ValueError:
        blocks = {sym: BlockMonomial.from_matrix(img, 1)
                  for sym, img in images.items()}
    # (letter, integer-scaled image, p-exponent, base word or None for t)
    steps = [
        (sym, *_integer_scaled(bm), None if sym[0] == T_GEN else Word.gen(*sym))
        for sym, bm in blocks.items()
    ]
    first = steps[0][1]
    ident = BlockMonomial.identity(first.ring, first.block_degree, len(first.perm))
    top = max_len * max(e for _, _, e, _ in steps)
    if rep.ring.kind == "qp":
        units = [rep.ring.p**e for e in range(top + 1)]
    else:
        units = [first.ring.one] * (top + 1)
    phi, phi_inv = spec.phi, spec.phi_inv

    report = ProbeReport(max_len=max_len)
    path = []

    def walk(depth, mat, e, l, f):
        last_inv = (path[-1][0], -path[-1][1]) if path else None
        for sym, gen_mat, gen_e, base in steps:
            if sym == last_inv:
                continue
            if base is None:
                nl = l + sym[1]
                nf = phi.apply(f) if sym[1] == 1 else phi_inv.apply(f)
            else:
                nl = l
                nf = f * base
            nmat = mat * gen_mat
            ne = e + gen_e
            trivial_nf = nl == 0 and not nf.syms
            is_id = nmat.is_scalar(units[ne])
            report.words_checked += 1
            if is_id:
                report.identity_count += 1
            path.append(sym)
            if trivial_nf != is_id:
                report.counterexamples.append(str(MixedWord(tuple(path))))
            if depth + 1 < max_len:
                walk(depth + 1, nmat, ne, nl, nf)
            path.pop()

    walk(0, ident, 0, 0, Word())
    return report


def _integer_scaled(bm: BlockMonomial):
    """(integer blocks, e) with image = blocks / p^e over Q_p; other rings
    keep their blocks with e = 0."""
    if bm.ring.kind != "qp":
        return bm, 0
    p = bm.ring.p
    e = max(x.k for blk in bm.blocks for r in blk for x in r)
    return bm.map_entries(INT, lambda x: x.num * p ** (e - x.k)), e
