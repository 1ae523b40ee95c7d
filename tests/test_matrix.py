"""Dense exact matrices, block assembly, conjugation, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnrep.matrix import (
    BlockMonomial,
    RingMatrix,
    _adjugate_inverse,
    block_companion,
    block_diag,
    block_grid,
    conjugate,
    det_bareiss,
    get_block,
)
from hnnrep.reps import (
    hnn_induced_rep,
    integer_hnn,
    sigma_int,
    sigma_qp,
    sigma_symbolic,
)
from hnnrep.ring import INT, LAURENT, QQ, LaurentPoly, QpRing, QpScalar
from hnnrep.words import artin_even_spec

from helpers import specialize

LAM = LAURENT.lam()
MU = LAURENT.mu()
ONE = LAURENT.one
ZERO = LAURENT.zero

X0 = RingMatrix(LAURENT, ((ONE, ZERO), (LAM, ONE)))
X0_INV = RingMatrix(LAURENT, ((ONE, ZERO), (-LAM, ONE)))
X1 = RingMatrix(LAURENT, ((ONE, MU), (ZERO, ONE)))
X1_INV = RingMatrix(LAURENT, ((ONE, -MU), (ZERO, ONE)))


def det2(m):
    (a, b), (c, d) = m.rows
    return a * d - b * c


def random_int_matrix(rng, ring, d):
    return RingMatrix.from_ints(
        ring, [[rng.randrange(-4, 5) for _ in range(d)] for _ in range(d)]
    )


# Matrix entries with many zeros: the product skips zero entries.
_SMALL = st.one_of(st.just(0), st.integers(-9, 9))
ENTRIES = {
    "integer": _SMALL,
    "rational": st.builds(Fraction, _SMALL, st.integers(1, 6)),
    "laurent": st.one_of(st.just(ZERO), st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
        _SMALL, max_size=3,
    ).map(LaurentPoly)),
}


class TestRingMatrix:
    @pytest.mark.parametrize("ring", [INT, QQ, LAURENT], ids=lambda r: r.kind)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_product_is_the_entrywise_sum(self, ring, data):
        d = data.draw(st.integers(0, 5))
        square = st.lists(
            st.lists(ENTRIES[ring.kind], min_size=d, max_size=d),
            min_size=d, max_size=d,
        )
        a, b = (RingMatrix(ring, data.draw(square)) for _ in range(2))
        want = tuple(
            tuple(
                sum((a.rows[i][k] * b.rows[k][j] for k in range(d)), ring.zero)
                for j in range(d)
            )
            for i in range(d)
        )
        assert (a * b).rows == want

    def test_identity_neutral(self):
        m = RingMatrix.identity(LAURENT, 4)
        grid = block_diag([X0, X1])
        assert m * grid == grid and grid * m == grid

    def test_x0_times_x1_inverse(self):
        expected = RingMatrix(
            LAURENT, ((ONE, -MU), (LAM, ONE - LAM * MU))
        )
        assert X0 * X1_INV == expected

    def test_scalar_mul(self):
        s = LAURENT.s_power(1)
        m = RingMatrix.identity(LAURENT, 2).scalar_mul(s)
        assert m.rows == ((s, ZERO), (ZERO, s))

    def test_associativity_random(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b, c = (random_int_matrix(rng, INT, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            X0 * RingMatrix.identity(LAURENT, 3)

    def test_not_square_rejected(self):
        with pytest.raises(ValueError):
            RingMatrix(INT, ((1, 2), (3,)))

    def test_no_negative_powers(self):
        with pytest.raises(ValueError):
            X0 ** -1


class TestBlocks:
    def test_block_diag_single(self):
        assert block_diag([X0]) == X0

    def test_block_diag_identities(self):
        i2 = RingMatrix.identity(LAURENT, 2)
        assert block_diag([i2, i2]) == RingMatrix.identity(LAURENT, 4)

    def test_block_diag_square(self):
        assert block_diag([X0, X1]) ** 2 == block_diag([X0 ** 2, X1 ** 2])

    def test_companion_square_is_diag(self):
        c = X0 * X1_INV
        m = block_companion([None], c)
        assert m ** 2 == block_diag([c, c])

    def test_companion_cycle(self):
        i2 = RingMatrix.identity(LAURENT, 2)
        m = block_companion([None, None], i2)
        assert m ** 3 == RingMatrix.identity(LAURENT, 6)

    def test_companion_power_block_diagonal(self):
        # With identity superdiagonal the k-th power is diag(corner, .., corner),
        # generic symbolic corner.
        corner = RingMatrix(LAURENT, ((LAM, MU), (LAURENT.s_power(1), ONE)))
        for k in (2, 5, 8):
            m = block_companion([None] * (k - 1), corner)
            assert m ** k == block_diag([corner] * k)

    def test_inhomogeneous_blocks_rejected(self):
        with pytest.raises(ValueError):
            block_diag([X0, RingMatrix.identity(LAURENT, 3)])

    def test_get_block(self):
        m = block_grid(LAURENT, 2, 2, {(0, 1): X0, (1, 0): X1})
        assert get_block(m, 0, 1, 2) == X0
        assert get_block(m, 1, 0, 2) == X1
        zero = RingMatrix(LAURENT, ((ZERO, ZERO), (ZERO, ZERO)))
        assert get_block(m, 0, 0, 2) == zero


class TestConjugate:
    def test_identity_conjugation(self):
        i2 = RingMatrix.identity(LAURENT, 2)
        assert conjugate(X0, i2, i2) == X0

    def test_requires_two_sided_inverse(self):
        with pytest.raises(ValueError):
            conjugate(X0, X0, X1)

    def test_preserves_products(self):
        rng = random.Random(17)
        for _ in range(25):
            m = random_int_matrix(rng, INT, 3)
            n = random_int_matrix(rng, INT, 3)
            u = RingMatrix.from_ints(INT, ((1, 1, 0), (0, 1, 2), (0, 0, 1)))
            u_inv = RingMatrix.from_ints(INT, ((1, -1, 2), (0, 1, -2), (0, 0, 1)))
            left = conjugate(m * n, u, u_inv)
            right = conjugate(m, u, u_inv) * conjugate(n, u, u_inv)
            assert left == right


class TestDeterminants:
    def test_det2_generators(self):
        assert det2(X0) == ONE
        assert det2(X1) == ONE
        assert det2(X0 * X1_INV) == ONE

    def test_bareiss_matches_cofactor_small(self):
        def cofactor_det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j, top in enumerate(rows[0]):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * top * cofactor_det(minor)
            return total

        rng = random.Random(19)
        for d in (1, 2, 3, 4, 5):
            for _ in range(20):
                m = random_int_matrix(rng, INT, d)
                assert det_bareiss(m) == cofactor_det([list(r) for r in m.rows])

    def test_bareiss_singular(self):
        m = RingMatrix.from_ints(INT, ((1, 2, 3), (2, 4, 6), (1, 0, 1)))
        assert det_bareiss(m) == 0

    def test_bareiss_rejects_non_integer(self):
        with pytest.raises(ValueError):
            det_bareiss(X0)


class TestSpecializationLift:
    def test_matmul_commutes_with_specialize(self):
        rng = random.Random(23)
        qp = QpRing(5)

        def spec_matrix(m):
            return RingMatrix(qp, tuple(
                tuple(specialize(x, 2, 3, 5) for x in row) for row in m.rows
            ))

        for _ in range(30):
            def rand_laurent():
                return RingMatrix(LAURENT, tuple(
                    tuple(
                        LaurentPoly({
                            (rng.randrange(3), rng.randrange(3), rng.randrange(-2, 3)):
                            rng.randrange(-5, 6)
                        })
                        for _ in range(2)
                    )
                    for _ in range(2)
                ))

            a, b = rand_laurent(), rand_laurent()
            assert spec_matrix(a * b) == spec_matrix(a) * spec_matrix(b)


class TestMatrixJson:
    def test_round_trip_laurent(self):
        doc = (X0 * X1_INV).to_json()
        again = RingMatrix.from_json(doc)
        assert again == X0 * X1_INV
        assert again.to_json() == doc

    def test_round_trip_qp(self):
        qp = QpRing(5)
        m = RingMatrix(qp, tuple(
            tuple(qp.from_int(3) if i == j else qp.zero for j in range(2))
            for i in range(2)
        ))
        doc = m.to_json()
        assert RingMatrix.from_json(doc) == m

    def test_round_trip_int(self):
        m = RingMatrix.from_ints(INT, ((1, -7), (0, 3)))
        assert RingMatrix.from_json(m.to_json()) == m

    def test_degree_mismatch_rejected(self):
        doc = X0.to_json()
        doc["degree"] = 3
        with pytest.raises(ValueError):
            RingMatrix.from_json(doc)


class TestBlockMonomial:
    def _monomial(self, rng, ring, m, k):
        perm = list(range(k))
        rng.shuffle(perm)
        grid = {(i, j): random_int_matrix(rng, ring, m) for i, j in enumerate(perm)}
        return block_grid(ring, m, k, grid)

    @pytest.mark.parametrize("ring", [INT, LAURENT, QpRing(5)])
    @pytest.mark.parametrize("m,k", [(2, 3), (3, 2), (4, 1)])
    def test_product_matches_dense(self, ring, m, k):
        rng = random.Random(m * 10 + k)
        for _ in range(5):
            a = self._monomial(rng, ring, m, k)
            b = self._monomial(rng, ring, m, k)
            product = BlockMonomial.from_matrix(a, k) * BlockMonomial.from_matrix(b, k)
            assert product == BlockMonomial.from_matrix(a * b, k)

    def test_companion_shape(self):
        t = block_companion([None, X1], X0)
        bm = BlockMonomial.from_matrix(t, 3)
        assert bm.perm == (1, 2, 0)
        assert bm.blocks[2] == X0.rows

    def test_rejects_two_blocks_in_a_row(self):
        m = block_grid(LAURENT, 2, 2, {(0, 0): X0, (0, 1): X1, (1, 1): X0})
        with pytest.raises(ValueError):
            BlockMonomial.from_matrix(m, 2)

    def test_rejects_empty_block_row(self):
        m = block_grid(INT, 1, 2, {(0, 0): None})
        with pytest.raises(ValueError):
            BlockMonomial.from_matrix(m, 2)

    def test_rejects_repeated_block_column(self):
        m = block_grid(INT, 1, 2, {(0, 0): None, (1, 0): None})
        with pytest.raises(ValueError):
            BlockMonomial.from_matrix(m, 2)

    def test_rejects_indivisible_degree(self):
        with pytest.raises(ValueError):
            BlockMonomial.from_matrix(RingMatrix.identity(INT, 3), 2)

    def test_is_scalar_is_exact(self):
        two = RingMatrix.identity(INT, 4).scalar_mul(2)
        bm = BlockMonomial.from_matrix(two, 2)
        assert bm.is_scalar(2)
        assert not bm.is_scalar(1)
        swap = block_grid(INT, 2, 2, {(0, 1): None, (1, 0): None})
        assert not BlockMonomial.from_matrix(swap, 2).is_scalar(1)
        assert BlockMonomial.identity(LAURENT, 2, 3).is_scalar(ONE)
        off = BlockMonomial.from_matrix(block_diag([X0, X0]), 2)
        assert not off.is_scalar(ONE)


def _replace_block(bm, i, blk):
    blocks = list(bm.blocks)
    blocks[i] = blk
    return BlockMonomial(bm.ring, bm.perm, tuple(blocks))


def _one_block(ring, rows):
    return BlockMonomial(ring, (0,), (tuple(tuple(r) for r in rows),))


def _block_product(a, b, ring):
    return (BlockMonomial(ring, (0,), (a,)) * BlockMonomial(ring, (0,), (b,))).blocks[0]


class TestInverseCertificate:
    """BlockMonomial.is_inverse_of agrees with the product test A B = I."""

    @staticmethod
    def _agree(a, b):
        want = (a * b).is_identity()
        assert a.is_inverse_of(b) == want
        return want

    @pytest.mark.parametrize("mode", ["symbolic", "qp", "integer"])
    def test_generator_pairs_and_corruptions(self, mode):
        spec = artin_even_spec(2)
        if mode == "integer":
            # 2 x 2 blocks, two per coset: decided by the certificate.
            rep = integer_hnn(spec, sigma_int(2, 2, 3), 5)
        elif mode == "qp":
            rep = hnn_induced_rep(spec, sigma_qp(2, 2, 3, 5), QpRing(5).from_int(5))
        else:
            rep = hnn_induced_rep(spec, sigma_symbolic(2), LAURENT.s_power(1))
        one = rep.ring.one
        for image, inv in rep.images.values():
            assert self._agree(image, inv)
            assert self._agree(inv, image)
            for i, blk in enumerate(inv.blocks):
                # One entry of the inverse off by one.
                rows = [list(r) for r in blk]
                rows[0][-1] = rows[0][-1] + one
                assert not self._agree(image, _replace_block(inv, i, tuple(map(tuple, rows))))
            for i, blk in enumerate(image.blocks):
                # A block times an elementary matrix: det A is still a unit.
                m = len(blk)
                elem = tuple(
                    tuple(one if r == c or (r, c) == (0, 1) else rep.ring.zero
                          for c in range(m))
                    for r in range(m)
                )
                bad = _replace_block(image, i, _block_product(blk, elem, rep.ring))
                assert not self._agree(bad, inv)

    def test_determinant_must_be_a_unit(self):
        # det diag(2, 1) = 2 is a unit of Q_2, with inverse diag(1/2, 1),
        # but not of Q_5, where no block inverts it.
        q5, q2 = QpRing(5), QpRing(2)
        a5 = _one_block(q5, [[q5.from_int(2), q5.zero], [q5.zero, q5.one]])
        b5 = _one_block(q5, [[q5.from_int(3), q5.zero], [q5.zero, q5.one]])
        assert not self._agree(a5, b5)
        a2 = _one_block(q2, [[q2.from_int(2), q2.zero], [q2.zero, q2.one]])
        b2 = _one_block(q2, [[QpScalar(1, 1, 2), q2.zero], [q2.zero, q2.one]])
        assert self._agree(a2, b2)

    def test_singular_qp_block_is_rejected(self):
        q5 = QpRing(5)
        zero = _one_block(q5, [[q5.zero, q5.zero], [q5.zero, q5.zero]])
        assert not self._agree(zero, zero)

    def test_permutations_must_compose_to_identity(self):
        ident = RingMatrix.identity(INT, 2)
        cyc = BlockMonomial.from_matrix(block_companion([None, None], ident), 3)
        assert not self._agree(cyc, cyc)
        assert self._agree(cyc, cyc * cyc)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockMonomial.identity(INT, 2, 2).is_inverse_of(BlockMonomial.identity(INT, 4, 1))

    @pytest.mark.parametrize("ring,units", [
        (INT, [1, -1]),
        (QpRing(3), [QpScalar(e, 0, 3) for e in (1, -1, 3, -9)] + [QpScalar(1, 1, 3)]),
        (LAURENT, [LAURENT.s_power(c, e) for c in (-1, 0, 2) for e in (1, -1)]),
    ])
    def test_random_blocks(self, ring, units):
        rng = random.Random(41)
        inverses = 0
        for _ in range(300):
            a = random_int_matrix(rng, ring, 2)
            if rng.random() < 0.7:
                # Upper triangular with a unit diagonal times lower
                # unitriangular has a unit determinant; pair it with its
                # adjugate inverse, sometimes scaled by a unit.
                (_, q), (r, _) = a.rows
                u, t = rng.choice(units), rng.choice(units)
                a = RingMatrix(ring, ((u, q), (ring.zero, t))) * RingMatrix(
                    ring, ((ring.one, ring.zero), (r, ring.one))
                )
                (p, q), (r, s) = a.rows
                di = ring.unit_inverse(u * t)
                b = RingMatrix(ring, ((di * s, -(di * q)), (-(di * r), di * p)))
                if rng.random() < 0.3:
                    b = b.scalar_mul(rng.choice(units))
            else:
                b = random_int_matrix(rng, ring, 2)
            inverses += self._agree(
                BlockMonomial.from_matrix(a, 1), BlockMonomial.from_matrix(b, 1)
            )
        assert 50 < inverses < 300


def _unit_det_block(rng, ring, units):
    """A random 2 x 2 block with a unit determinant: upper triangular with
    a unit diagonal times lower unitriangular."""
    (_, q), (r, _) = random_int_matrix(rng, ring, 2).rows
    upper = RingMatrix(ring, ((rng.choice(units), q), (ring.zero, rng.choice(units))))
    lower = RingMatrix(ring, ((ring.one, ring.zero), (r, ring.one)))
    return (upper * lower).rows


class TestBlockInverse:
    """BlockMonomial.inverse: the inverse permutation and block adjugates."""

    @pytest.mark.parametrize("ring,units", [
        (INT, [1, -1]),
        (QpRing(3), [QpScalar(e, 0, 3) for e in (1, -1, 3, -9)] + [QpScalar(1, 1, 3)]),
        (LAURENT, [LAURENT.s_power(c, e) for c in (-1, 0, 2) for e in (1, -1)]),
    ])
    def test_inverse_is_two_sided(self, ring, units):
        rng = random.Random(7)
        for k in (1, 2, 3, 5):
            perm = list(range(k))
            rng.shuffle(perm)
            bm = BlockMonomial(ring, tuple(perm), tuple(
                _unit_det_block(rng, ring, units) for _ in range(k)))
            inv = bm.inverse()
            assert bm.is_inverse_of(inv) and inv.is_inverse_of(bm)
            ident = RingMatrix.identity(ring, 2 * k)
            assert bm.to_matrix() * inv.to_matrix() == ident
            assert inv.to_matrix() * bm.to_matrix() == ident

    def test_non_unit_determinant_raises(self):
        bm = BlockMonomial(INT, (1, 0), (((1, 0), (0, 1)), ((2, 0), (0, 1))))
        with pytest.raises(ValueError, match="not a unit"):
            bm.inverse()
        q5 = QpRing(5)
        zero = _one_block(q5, [[q5.zero, q5.zero], [q5.zero, q5.zero]])
        with pytest.raises(ValueError, match="not a unit"):
            zero.inverse()

    @pytest.mark.parametrize("m, k", [(1, 2), (3, 1), (4, 2)])
    def test_blocks_not_2x2_raise(self, m, k):
        with pytest.raises(ValueError, match="2 x 2 blocks"):
            BlockMonomial.identity(INT, m, k).inverse()


class TestAdjugateInverse:
    """_adjugate_inverse gives adj A or -adj A when det A = +-1 and
    u^-1 adj A for another unit u = det A, and None for a non-unit."""

    @pytest.mark.parametrize("ring,dets", [
        (INT, [1, -1]),
        (QpRing(5), [QpScalar(1, 0, 5), QpScalar(-1, 0, 5), QpScalar(25, 0, 5),
                     QpScalar(-1, 3, 5)]),
        (LAURENT, [ONE, -ONE, LAURENT.s_power(2), LAURENT.s_power(-3, -1)]),
    ])
    def test_equals_the_unit_inverse_times_the_adjugate(self, ring, dets):
        rng = random.Random(43)
        ident = ((ring.one, ring.zero), (ring.zero, ring.one))
        for det in dets:
            for _ in range(25):
                (_, q), (r, _) = random_int_matrix(rng, ring, 2).rows
                if ring is LAURENT:
                    q, r = q * LAM + MU, r * MU
                blk = (RingMatrix(ring, ((det, q), (ring.zero, ring.one)))
                       * RingMatrix(ring, ((ring.one, ring.zero), (r, ring.one)))).rows
                (a, b), (c, d) = blk
                assert a * d - b * c == det
                u = ring.unit_inverse(det)
                inv = _adjugate_inverse(ring, blk)
                assert inv == ((u * d, -(u * b)), (-(u * c), u * a))
                assert _block_product(blk, inv, ring) == ident

    def test_non_unit_determinant_gives_none(self):
        q5 = QpRing(5)
        S = LAURENT.s_power(1)
        for ring, blk in [
            (INT, ((2, 0), (0, 1))),
            (INT, ((1, 1), (1, 1))),
            (q5, ((q5.from_int(3), q5.zero), (q5.zero, q5.one))),
            (q5, ((q5.zero, q5.zero), (q5.zero, q5.zero))),
            (LAURENT, ((LAM, ZERO), (ZERO, ONE))),
            (LAURENT, ((S, ONE), (ONE, ONE))),
            (LAURENT, ((LAURENT.from_int(2), ZERO), (ZERO, ONE))),
        ]:
            assert _adjugate_inverse(ring, blk) is None


class TestFlattenedBlocks:
    """from_blocks, diag and companion of several-block matrices equal the
    dense assembly of their dense matrices."""

    @staticmethod
    def _dense(perm, parts):
        """The dense matrix with parts[i] in block row i, block column
        perm[i], block sizes read off the parts."""
        ring = parts[0].ring
        size = [0] * len(parts)
        for j, part in zip(perm, parts):
            size[j] = part.degree
        d = sum(size)
        rows = [[ring.zero] * d for _ in range(d)]
        top = 0
        for j, part in zip(perm, parts):
            left = sum(size[:j])
            for i, row in enumerate(part.to_matrix().rows):
                rows[top + i][left:left + part.degree] = row
            top += part.degree
        return RingMatrix(ring, rows)

    def test_mixed_block_counts(self):
        rng = random.Random(3)
        units = [1, -1]

        def part(k):
            perm = list(range(k))
            rng.shuffle(perm)
            return BlockMonomial(INT, tuple(perm), tuple(
                _unit_det_block(rng, INT, units) for _ in range(k)))

        for _ in range(20):
            parts = [part(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            perm = list(range(len(parts)))
            rng.shuffle(perm)
            flat = BlockMonomial.from_blocks(perm, parts)
            assert flat.block_degree == 2
            assert len(flat.perm) == sum(len(p.perm) for p in parts)
            assert flat.to_matrix() == self._dense(perm, parts)
            assert BlockMonomial.diag(parts).to_matrix() == self._dense(
                range(len(parts)), parts)

    def test_companion_of_two_block_matrices(self):
        ident = BlockMonomial.identity(INT, 2, 2)
        corner = BlockMonomial.diag([
            _one_block(INT, [[1, 5], [0, 1]]), _one_block(INT, [[1, 0], [2, 1]])])
        t = BlockMonomial.companion([ident, ident], corner)
        assert t.perm == (2, 3, 4, 5, 0, 1)
        assert t.to_matrix() == self._dense((1, 2, 0), [ident, ident, corner])
        assert t.to_matrix() == block_companion(
            [None, None], corner.to_matrix())

    def test_mixed_block_degree_rejected(self):
        with pytest.raises(ValueError, match="mixed ring or degree"):
            BlockMonomial.diag([BlockMonomial.identity(INT, 2, 1),
                                BlockMonomial.identity(INT, 4, 1)])
