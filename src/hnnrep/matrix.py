"""Dense square matrices over an exact scalar ring, block-monomial matrices,
block assembly, fraction-free determinants, the word walks that multiply
generator images (_trie_walk, and _integer_eval for one 2 x 2 block), and
the JSON writer.

There is deliberately no general matrix inversion.  A built representation
image is block-monomial with 2 x 2 blocks of unit determinant, and its
inverse is the block adjugate (BlockMonomial.inverse); every other inverse
is given with its matrix and checked.  A built block's adjugate takes no
products: its determinant is known by construction (BlockMonomial.dets).

_write_json makes the text of every JSON document the CLI prints or saves,
json.dumps(obj, indent=2, sort_keys=True), as fragments that the CLI
streams to their destination (cli._dump_json).  A BlockMonomial inside a document
is written as its dense matrix document, rendered from the blocks: each
distinct block's rows are encoded once per document, and the zeros around
them are runs built by string repetition.
"""

from __future__ import annotations

import json
from itertools import accumulate

from .ring import INT, LaurentPoly, _digit_width, ring_from_descriptor


class RingMatrix:
    """Immutable square matrix; entries live in one scalar ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            if len(r) != len(rows):
                raise ValueError("matrix must be square")
        self.ring = ring
        self.rows = rows

    @classmethod
    def identity(cls, ring, d: int) -> "RingMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, tuple(
            tuple(one if i == j else zero for j in range(d)) for i in range(d)
        ))

    @classmethod
    def from_ints(cls, ring, rows) -> "RingMatrix":
        return cls(ring, tuple(
            tuple(ring.from_int(v) for v in row) for row in rows
        ))

    @property
    def degree(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return RingMatrix(self.ring, _block_mul(self.rows, other.rows, self.ring.zero))

    def __pow__(self, k: int) -> "RingMatrix":
        if k < 0:
            raise ValueError("no generic inversion; use the inverse image")
        out = RingMatrix.identity(self.ring, self.degree)
        for _ in range(k):
            out = out * self
        return out

    def scalar_mul(self, c) -> "RingMatrix":
        return RingMatrix(self.ring, tuple(
            tuple(c * x for x in row) for row in self.rows
        ))

    def is_identity(self) -> bool:
        return self == RingMatrix.identity(self.ring, self.degree)

    def to_json(self):
        enc = self.ring.scalar_to_json
        return _matrix_json(self.ring, [[enc(x) for x in row] for row in self.rows])

    @classmethod
    def from_json(cls, doc) -> "RingMatrix":
        """Read a document written by to_json.  Every malformed document
        (wrong types, ragged or non-square rows, a degree that does not
        match, an unknown ring, a bad scalar) raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("matrix document must be an object")
        mat = cls.from_json_rows(ring_from_descriptor(doc.get("ring")), doc.get("rows"))
        degree = doc.get("degree")
        if type(degree) is not int or degree != mat.degree:
            raise ValueError("degree field does not match row count")
        return mat

    @classmethod
    def from_json_rows(cls, ring, rows) -> "RingMatrix":
        """The square matrix a JSON list of rows of ring scalars gives.  It
        reads the rows of matrix documents and of the splittable engine's
        generator documents; ValueError for any other rows, ragged or
        non-square rows, or a scalar ring.scalar_from_json refuses."""
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("matrix rows must be a list of lists")
        dec = ring.scalar_from_json
        return cls(ring, tuple(tuple(map(dec, row)) for row in rows))

    def __repr__(self):
        return "RingMatrix([\n" + "\n".join(
            "  [" + ", ".join(repr(x) for x in row) + "]" for row in self.rows
        ) + f"\n]) over {self.ring!r}"


def _matrix_json(ring, rows):
    """The matrix document RingMatrix.from_json reads, from encoded rows."""
    return {"degree": len(rows), "ring": ring.descriptor(), "rows": rows}


_ESCAPE = json.encoder.encode_basestring_ascii


def _write_json(obj, indent, out, memo):
    """Append to out the fragments of the text of json.dumps(obj, indent=2,
    sort_keys=True) at nesting prefix indent, for dicts with str keys,
    lists, str, int, bool and None, where a BlockMonomial stands for its
    dense document (to_matrix().to_json()); TypeError for anything else (a
    float, a tuple, a non-str key).  memo is the document's cache for
    BlockMonomial.write_json."""
    if isinstance(obj, str):
        out.append(_ESCAPE(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, BlockMonomial):
        obj.write_json(indent, out, memo)
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        lead, sep = "[\n" + inner, ",\n" + inner
        if all(type(x) is str for x in obj):
            # A row of strings, such as a matrix row, is one fragment, not
            # one per entry.
            out.append(lead + sep.join(map(_ESCAPE, obj)) + "\n" + indent + "]")
            return
        for item in obj:
            out.append(lead)
            lead = sep
            _write_json(item, inner, out, memo)
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        inner = indent + "  "
        lead, sep = "{\n" + inner, ",\n" + inner
        for key, value in sorted(obj.items()):
            out.append(lead + _ESCAPE(key) + ": ")
            lead = sep
            _write_json(value, inner, out, memo)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _zero_run(memo, piece, n):
    """piece repeated n times, built once per document."""
    run = memo.get((piece, n))
    if run is None:
        run = memo[piece, n] = piece * n
    return run


def _block_mul(a, b, zero):
    """Product of two square blocks given as tuples of row tuples."""
    if len(a) == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return (
            (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
        )
    # Zero entries are skipped: dense products of block-monomial images and
    # the splittable engine's kernel matrices are mostly zeros.
    out = []
    for row in a:
        acc = [zero] * len(b)
        for x, brow in zip(row, b):
            if not x:
                continue
            for j, y in enumerate(brow):
                if y:
                    acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


class BlockMonomial:
    """Matrix in GL_m(R) wr S_k: k x k blocks of degree m with exactly one
    nonzero block in each block row and block column.

    Block row i holds blocks[i] in block column perm[i].  Products compose
    the permutations and multiply k pairs of blocks, O(k m^3) ring
    operations instead of O((k m)^3) for the dense product.  Blocks are
    tuples of row tuples of ring scalars; the generic kernel starts each
    dot product from ring.zero, so plain ints work with INT.  Dense
    matrices enter through the checked from_matrix and leave through
    to_matrix; write_json writes the dense document's text from the blocks.
    A degree-m matrix is the one-block case k = 1.  Both factors
    of a product must have the same k and m.

    dets is None or the blocks' determinants, known by construction: the
    identity's are 1, and products, inverses, scalar_mul, from_blocks,
    diag and companion derive theirs from their factors', as det is
    multiplicative (det(A B) = det A det B, det(c A) = c^m det A).  Other
    blocks carry one only where their maker has established it, as
    sigma_free does; from_matrix gives None.  __eq__ ignores dets.
    """

    __slots__ = ("ring", "perm", "blocks", "dets")

    def __init__(self, ring, perm, blocks, dets=None):
        # Not checked: instances come from the checked constructors, and
        # products of those keep the shape.
        self.ring = ring
        self.perm = perm
        self.blocks = blocks
        self.dets = dets

    @classmethod
    def from_matrix(cls, mat: RingMatrix, k: int) -> "BlockMonomial":
        """Read mat as a k x k grid of blocks; raise ValueError unless every
        block row and every block column has exactly one nonzero block."""
        if k < 1 or mat.degree % k:
            raise ValueError(f"degree {mat.degree} is not a multiple of {k}")
        m = mat.degree // k
        perm = []
        blocks = []
        col_hits = [0] * k
        for bi in range(k):
            rows = mat.rows[bi * m:(bi + 1) * m]
            nonzero = [
                bj for bj in range(k)
                if any(x for r in rows for x in r[bj * m:(bj + 1) * m])
            ]
            if len(nonzero) != 1:
                raise ValueError(
                    f"block row {bi} has {len(nonzero)} nonzero blocks, not 1"
                )
            (bj,) = nonzero
            col_hits[bj] += 1
            perm.append(bj)
            blocks.append(tuple(r[bj * m:(bj + 1) * m] for r in rows))
        if col_hits != [1] * k:
            raise ValueError("a block column has no nonzero block or several")
        return cls(mat.ring, tuple(perm), tuple(blocks))

    @classmethod
    def from_blocks(cls, perm, blocks) -> "BlockMonomial":
        """Block row i holds the matrix blocks[i] in block column perm[i].

        A matrix of q blocks is flattened into q block rows of the result,
        and its block column into q block columns, so the result's blocks
        are those of the given matrices.  Raise ValueError unless perm is a
        permutation and the matrices share one ring and one block degree.
        """
        if not blocks:
            raise ValueError("empty block list")
        perm = tuple(perm)
        if sorted(perm) != list(range(len(blocks))):
            raise ValueError("block columns must be a permutation")
        ring = blocks[0].ring
        m = blocks[0].block_degree
        if any(b.ring != ring or b.block_degree != m for b in blocks):
            raise ValueError("blocks of mixed ring or degree")
        # Block column j is as wide as the matrix placed in it, and starts
        # at flattened block column start[j].
        width = dict(zip(perm, (len(b.perm) for b in blocks)))
        start = list(accumulate(map(width.__getitem__, range(len(blocks) - 1)), initial=0))
        perm = tuple(start[j] + c for j, b in zip(perm, blocks) for c in b.perm)
        dets = None
        if all(b.dets is not None for b in blocks):
            dets = tuple(d for b in blocks for d in b.dets)
        return cls(ring, perm, tuple(blk for b in blocks for blk in b.blocks), dets)

    @classmethod
    def diag(cls, blocks) -> "BlockMonomial":
        """Block diagonal of the given matrices."""
        return cls.from_blocks(range(len(blocks)), blocks)

    @classmethod
    def companion(cls, superdiag, corner) -> "BlockMonomial":
        """Blocks (i, i+1) from superdiag and corner at (k-1, 0), flattened
        as in from_blocks: the stable-letter shape."""
        k = len(superdiag) + 1
        return cls.from_blocks((*range(1, k), 0), [*superdiag, corner])

    @classmethod
    def identity(cls, ring, m: int, k: int) -> "BlockMonomial":
        one, zero = ring.one, ring.zero
        blk = tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))
        return cls(ring, tuple(range(k)), (blk,) * k, (one,) * k)

    @property
    def block_degree(self) -> int:
        return len(self.blocks[0])

    @property
    def degree(self) -> int:
        return len(self.perm) * len(self.blocks[0])

    def to_matrix(self) -> RingMatrix:
        """The dense matrix."""
        m, k = self.block_degree, len(self.perm)
        zero = self.ring.zero
        rows = []
        for j, blk in zip(self.perm, self.blocks):
            left, right = (zero,) * (j * m), (zero,) * ((k - 1 - j) * m)
            rows += [left + r + right for r in blk]
        return RingMatrix(self.ring, rows)

    def to_json(self):
        """The dense document, to_matrix().to_json()."""
        return self.to_matrix().to_json()

    def write_json(self, indent, out, memo):
        """Append the text of to_json() at nesting prefix indent to out,
        rendered from the blocks.  A dense row is its block row's text
        between runs of zeros built by string repetition, and each entry's
        text comes from its ring in one step (scalar_json_text).  memo is one
        document's cache: the encoded zero, the zero runs, and each block's
        row texts by id(block), so a block that several images share is
        encoded once (the blocks outlive the document)."""
        ring = self.ring
        m, k = self.block_degree, len(self.perm)
        inner = indent + "  "
        row = inner + "  "
        entry = row + "  "
        sep = ",\n" + entry
        encode = ring.scalar_json_text
        key = (id(ring), entry)
        zero = memo.get(key)
        if zero is None:
            zero = memo[key] = encode(ring.zero, entry)
        out.append(f'{{\n{inner}"degree": {m * k},\n{inner}"ring": ')
        _write_json(ring.descriptor(), inner, out, memo)
        lead = f',\n{inner}"rows": [\n{row}[\n{entry}'
        between = f"\n{row}],\n{row}[\n{entry}"
        for j, blk in zip(self.perm, self.blocks):
            texts = memo.get((id(blk), key))
            if texts is None:
                texts = memo[id(blk), key] = [
                    sep.join(encode(x, entry) if x else zero for x in r)
                    for r in blk
                ]
            left = _zero_run(memo, zero + sep, j * m)
            right = _zero_run(memo, sep + zero, (k - 1 - j) * m)
            for text in texts:
                out += (lead, left, text, right)
                lead = between
        out.append(f"\n{row}]\n{inner}]\n{indent}}}")

    def map_entries(self, ring, fn) -> "BlockMonomial":
        """Same shape with fn applied to every block entry, over ring."""
        return BlockMonomial(ring, self.perm, tuple(
            tuple(tuple(fn(x) for x in r) for r in blk) for blk in self.blocks
        ))

    def scalar_mul(self, c) -> "BlockMonomial":
        out = self.map_entries(self.ring, lambda x: c * x)
        if self.dets is not None:
            power = self.ring.one  # c^m for blocks of degree m
            for _ in self.blocks[0]:
                power = power * c
            out.dets = tuple(power * d for d in self.dets)
        return out

    def __mul__(self, other: "BlockMonomial") -> "BlockMonomial":
        # Block row i of self meets block row perm[i] of other.
        zero = self.ring.zero
        bp = other.perm
        bb = other.blocks
        out = BlockMonomial(
            self.ring,
            tuple([bp[j] for j in self.perm]),
            tuple([
                _block_mul(blk, bb[j], zero)
                for blk, j in zip(self.blocks, self.perm)
            ]),
        )
        if self.dets is not None and other.dets is not None:
            od = other.dets
            out.dets = tuple([d * od[j] for d, j in zip(self.dets, self.perm)])
        return out

    def __pow__(self, k: int) -> "BlockMonomial":
        if k < 0:
            raise ValueError("no generic inversion; use the inverse image")
        out = BlockMonomial.identity(self.ring, self.block_degree, len(self.perm))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, BlockMonomial)
            and self.ring == other.ring
            and self.perm == other.perm
            and self.blocks == other.blocks
        )

    def is_scalar(self, c) -> bool:
        """Exact test for c * identity: identity permutation and every
        block equal to c * I."""
        if self.perm != tuple(range(len(self.perm))):
            return False
        zero = self.ring.zero
        for blk in self.blocks:
            for i, row in enumerate(blk):
                for j, x in enumerate(row):
                    if x != (c if i == j else zero):
                        return False
        return True

    def is_identity(self) -> bool:
        return self.is_scalar(self.ring.one)

    def inverse(self, adjugates=None) -> "BlockMonomial":
        """The inverse of a matrix with 2 x 2 blocks of unit determinant:
        the inverse permutation, and u^-1 adj A for each block A, u = det A
        (see is_inverse_of).  Raise ValueError for blocks of another degree
        or a block whose determinant is not a unit.

        u is the known determinant when dets holds it, and then no
        a d - b c is taken: the inverse is +-adj A for u = +-1 and
        u^-1 adj A for another unit.  That is exact because det is
        multiplicative: a determinant derived from the factors' is the
        a d - b c of the block.  Blocks with no known determinant compute
        it.  The inverse knows its determinants (u^-1) when self does.

        Blocks that are one object, such as the images of equal orbit
        words, share one inverse block.  adjugates, a dict from id(block)
        to its inverse block and determinant, extends that sharing to
        several matrices whose blocks stay alive while it is in use."""
        if self.block_degree != 2:
            raise ValueError("the block inverse needs 2 x 2 blocks")
        # Block row j of the inverse is block row i of self with perm[i] = j.
        rows = tuple(sorted(range(len(self.perm)), key=self.perm.__getitem__))
        if adjugates is None:
            adjugates = {}
        for blk, det in zip(self.blocks, self.dets or (None,) * len(self.blocks)):
            if id(blk) not in adjugates:
                adjugates[id(blk)] = _adjugate_inverse(self.ring, blk, det)
        pairs = [adjugates[id(self.blocks[i])] for i in rows]
        if None in pairs:
            raise ValueError("a block determinant is not a unit")
        blocks, dets = zip(*pairs)
        return BlockMonomial(self.ring, rows, blocks,
                             None if self.dets is None else dets)

    def is_inverse_of(self, other: "BlockMonomial") -> bool:
        """Exact test for self * other = I; both must have the same shape.

        The permutations must compose to the identity, and each block A of
        self must meet its partner block B of other with A B = I.  A 2 x 2
        block is decided by an adjugate certificate instead of the product:
        u = det A must be a unit of the ring and B must equal
        u^-1 adj A = u^-1 [[d, -b], [-c, a]].  Over any commutative ring
        that is equivalent to A B = I.  If A B = I, then det A det B = 1,
        so det A is a unit and B = A^-1 = u^-1 adj A.  Conversely, if
        B = u^-1 adj A, then A B = u^-1 (A adj A) = u^-1 det A I = I.  u is
        A's known determinant if self has one (see inverse), else
        a d - b c.  The certificate then costs no products of block entries
        for u = +-1 and 4 cheap ones with another unit (a monomial +-s^c or
        +-p^e), plus 2 for a d - b c, instead of 8 (_adjugate_inverse).
        Blocks of any other degree, such as the one block of a dense matrix
        read from JSON, are multiplied out.
        """
        m = self.block_degree
        if len(other.perm) != len(self.perm) or other.block_degree != m:
            raise ValueError("shape mismatch")
        ring = self.ring
        ident = BlockMonomial.identity(ring, m, 1).blocks[0]
        dets = self.dets or (None,) * len(self.blocks)
        for i, (j, blk, det) in enumerate(zip(self.perm, self.blocks, dets)):
            if other.perm[j] != i:
                return False
            inv = other.blocks[j]
            if m == 2:
                adj = _adjugate_inverse(ring, blk, det)
                if adj is None or inv != adj[0]:
                    return False
            elif _block_mul(blk, inv, ring.zero) != ident:
                return False
        return True


def _adjugate_inverse(ring, blk, det=None):
    """(u^-1 adj A, u^-1) for the 2 x 2 block A, u = det A, or None if u is
    not a unit of the ring.  det is A's known determinant, or None to
    compute a d - b c."""
    (a, b), (c, d) = blk
    if det is None:
        det = a * d - b * c
    # Every sigma block and every integer block has det 1 or -1, units
    # where u^-1 adj A is adj A or -adj A with no products.
    one = ring.one
    if det == one:
        return ((d, -b), (-c, a)), det
    if det == -one:
        return ((-d, b), (c, -a)), det
    if not ring.is_unit(det):
        return None
    u = ring.unit_inverse(det)
    return ((u * d, -(u * b)), (-(u * c), u * a)), u


def _trie_walk(words, order, ident, images, mul):
    """The products of the words' images (images[name][0] for sign 1, [1]
    otherwise) under mul, visiting the words in the given sorted order so
    that shared prefixes are multiplied once."""
    stack = [ident]
    out = [None] * len(words)
    path = ()
    for idx in order:
        word = words[idx]
        common = 0
        while common < min(len(word), len(path)) and word[common] == path[common]:
            common += 1
        del stack[common + 1:]
        for name, sign in word[common:]:
            stack.append(mul(stack[-1], images[name][sign != 1]))
        out[idx] = stack[-1]
        path = word
    return out


def _integer_eval(ring, images, words, order):
    """block_eval_many of one 2 x 2 block over the integers, or None when
    the entries do not allow it.

    Q_p: when every entry has k = 0, the numerators are walked and read
    back with ring.from_int.

    Laurent: every image must be graded, entry (r, c) a sum of monomials
    lam^a mu^(a + c - r) s^0, as sigma's are: sigma(lam e^-1, mu e) is
    sigma conjugated by diag(1, e), and products keep the grading.  A
    graded entry is fixed by its lam-exponents, so it is evaluated at
    lam = 2^W, mu = 1 and read back from the balanced base-2^W digits
    (LaurentPoly.from_graded_int).  That is exact when every coefficient
    is below 2^(W - 2) in absolute value.  The sum of the absolute values
    of an entry's coefficients is sub-multiplicative, so the same words
    walked on those sums (the images at lam = mu = 1 of the entrywise
    1-norms) bound every coefficient by their largest entry N, and W is
    8 times the width ring._digit_width(N) in bytes: 2 N < 2^(W - 1).

    A word's determinant is the product of its letters', so the results
    know theirs, 1, when every letter's is known to be 1 (sigma_free's).
    """
    blocks = {name: (img.blocks[0], inv.blocks[0]) for name, (img, inv) in images.items()}
    one = ring.one
    dets = (one,) if all(m.dets == (one,) for pair in images.values() for m in pair) else None

    def walk(scalar):
        ints = {name: tuple(tuple(tuple(map(scalar, row)) for row in blk) for blk in pair)
                for name, pair in blocks.items()}
        return _trie_walk(words, order, ((1, 0), (0, 1)), ints,
                          lambda a, b: _block_mul(a, b, 0))

    def wrap(blk, decode):
        return BlockMonomial(ring, (0,), (tuple(
            tuple(decode(v, c - r) for c, v in enumerate(row))
            for r, row in enumerate(blk)),), dets)

    entries = [(x, c - r) for pair in blocks.values() for blk in pair
               for r, row in enumerate(blk) for c, x in enumerate(row)]
    if ring.kind == "qp":
        if any(x.k for x, _ in entries):
            return None
        return [wrap(blk, lambda v, d: ring.from_int(v))
                for blk in walk(lambda x: x.num)]
    if ring.kind != "laurent" or any(
            s or b != a + d for x, d in entries for a, b, s in x.terms):
        return None
    norms = walk(lambda x: sum(map(abs, x.terms.values())))
    bound = max((v for blk in norms for row in blk for v in row), default=0)
    width = _digit_width(bound)
    shift = 8 * width
    values = walk(lambda x: sum(k << shift * a for (a, _, _), k in x.terms.items()))
    return [wrap(blk, lambda v, d: LaurentPoly.from_graded_int(v, width, d))
            for blk in values]


def block_grid(ring, bdeg: int, k: int, blocks) -> "RingMatrix":
    """Assemble a k*k grid of bdeg-degree blocks; missing entries are zero.

    blocks maps (i, j) -> RingMatrix or None for an identity block.
    """
    d = bdeg * k
    zero = ring.zero
    rows = [[zero] * d for _ in range(d)]
    ident = RingMatrix.identity(ring, bdeg)
    for (bi, bj), blk in blocks.items():
        if blk is None:
            blk = ident
        if blk.degree != bdeg:
            raise ValueError("inhomogeneous block degree")
        if blk.ring != ring:
            raise ValueError("block over a different ring")
        for i in range(bdeg):
            row = blk.rows[i]
            out = rows[bi * bdeg + i]
            for j in range(bdeg):
                out[bj * bdeg + j] = row[j]
    return RingMatrix(ring, tuple(tuple(r) for r in rows))


def block_diag(blocks) -> "RingMatrix":
    if not blocks:
        raise ValueError("empty block list")
    bdeg = blocks[0].degree
    return block_grid(
        blocks[0].ring, bdeg, len(blocks),
        {(i, i): b for i, b in enumerate(blocks)},
    )


def block_companion(superdiag, corner) -> "RingMatrix":
    """Blocks (i, i+1) from superdiag (None means identity), corner at (k, 1).

    This is the stable-letter shape: identity blocks shifting the cosets and
    the subgroup image in the lower-left corner.
    """
    k = len(superdiag) + 1
    grid = {(i, i + 1): blk for i, blk in enumerate(superdiag)}
    grid[(k - 1, 0)] = corner
    return block_grid(corner.ring, corner.degree, k, grid)


def get_block(m: RingMatrix, i: int, j: int, bdeg: int) -> RingMatrix:
    rows = tuple(
        m.rows[i * bdeg + r][j * bdeg: (j + 1) * bdeg] for r in range(bdeg)
    )
    return RingMatrix(m.ring, rows)


def conjugate(m, u, u_inv=None):
    """Return u_inv * m * u for RingMatrix or BlockMonomial arguments.

    Without u_inv, u must be a BlockMonomial with 2 x 2 blocks, and u_inv
    is its block adjugate (BlockMonomial.inverse), exact by construction.
    A given u_inv is checked for u * u_inv = I (BlockMonomial.is_inverse_of
    for blocks, the product for dense matrices).  The one-sided check
    suffices: over a commutative ring, u * u_inv = I gives
    det(u) det(u_inv) = 1, so u is invertible and u_inv is its two-sided
    inverse.
    """
    if u_inv is None:
        u_inv = u.inverse()
    elif not (u.is_inverse_of(u_inv) if isinstance(u, BlockMonomial)
              else (u * u_inv).is_identity()):
        raise ValueError("u_inv is not an inverse of u")
    return u_inv * m * u


def det_bareiss(m: RingMatrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    if m.ring != INT:
        raise ValueError("Bareiss determinant is for integer matrices")
    n = m.degree
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]
