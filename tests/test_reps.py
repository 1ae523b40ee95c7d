"""Representation builders: block shapes, relations, golden forms, probe."""

import pytest

from hnnrep.errors import VerificationError
from hnnrep.matrix import (
    BlockMonomial,
    RingMatrix,
    block_diag,
    conjugate,
    det2,
    det_bareiss,
    get_block,
)
from hnnrep.reps import (
    GOLDEN_PSI_X0,
    GOLDEN_SIGMA_INV,
    Representation,
    artin_even,
    artin_odd,
    b3_explicit,
    canonical_relation,
    defining_relations,
    golden_check,
    hnn_induced_rep,
    integer_hnn,
    parse_letters,
    probe_faithfulness,
    sigma_int,
    sigma_qp,
    sigma_symbolic,
    verify_defining_relations,
)
from hnnrep.ring import INT, LAURENT, QpRing
from hnnrep.words import (
    HnnSpec,
    MixedWord,
    T_GEN,
    Word,
    artin_even_spec,
    artin_odd_spec,
    center_generator,
    inner_endomorphism,
    normal_form,
    parse_word,
)

LAM = LAURENT.lam()
MU = LAURENT.mu()
ONE = LAURENT.one
ZERO = LAURENT.zero
S = LAURENT.s_power(1)


def lau(rows):
    return RingMatrix(LAURENT, tuple(tuple(r) for r in rows))


class TestSigmaFree:
    def test_x0_image(self):
        sigma = sigma_symbolic(3)
        assert sigma.image("x0") == lau([[ONE, ZERO], [LAM, ONE]])

    def test_conjugated_x1(self):
        sigma = sigma_symbolic(3)
        expected = lau([
            [ONE - LAM * MU, -(LAM * MU * MU)],
            [LAM, ONE + LAM * MU],
        ])
        assert sigma.image("x1") == expected

    def test_rank2_mixed_images(self):
        sigma = sigma_symbolic(2, basis="rank2-mixed")
        assert sigma.image("x1") == lau([[ONE, MU], [ZERO, ONE]])

    def test_rank2_mixed_needs_rank_two(self):
        with pytest.raises(ValueError):
            sigma_symbolic(3, basis="rank2-mixed")

    def test_eval_empty_and_cancellation(self):
        sigma = sigma_symbolic(2)
        ident = RingMatrix.identity(LAURENT, 2)
        assert sigma.eval("") == ident
        assert sigma.eval("x0 x0^-1") == ident

    def test_eval_psi_x0(self):
        sigma = sigma_symbolic(2, basis="rank2-mixed")
        expected = lau([[ONE, -MU], [LAM, ONE - LAM * MU]])
        assert sigma.eval("x0 x1^-1") == expected

    def test_unknown_generator(self):
        sigma = sigma_symbolic(2)
        with pytest.raises(ValueError):
            sigma.eval("x5")

    def test_generator_determinants(self):
        sigma = sigma_symbolic(4)
        for name in sigma.gen_names:
            assert det2(sigma.image(name)) == ONE


class TestHnnInducedRep:
    def test_even_degree_and_relations(self):
        spec = artin_even_spec(2)
        rep = hnn_induced_rep(spec, sigma_symbolic(2), S)
        assert rep.degree == 4
        report = verify_defining_relations(rep, defining_relations(spec))
        assert report.ok

    def test_first_diagonal_block_is_sigma_image(self):
        spec = artin_even_spec(2)
        sigma = sigma_symbolic(2)
        rep = hnn_induced_rep(spec, sigma, S)
        assert get_block(rep.image("x0"), 0, 0, 2) == sigma.image("x0")

    def test_central_element_is_scalar(self):
        for spec in (artin_even_spec(2), artin_even_spec(3), artin_odd_spec(1)):
            sigma = sigma_symbolic(spec.rank)
            rep = hnn_induced_rep(spec, sigma, S)
            z = MixedWord.t() ** spec.n * MixedWord.from_word(spec.w0)
            assert rep.eval(z) == RingMatrix.identity(LAURENT, rep.degree).scalar_mul(S)

    def test_center_image_commutes_with_generators(self):
        spec = artin_even_spec(2)
        rep = hnn_induced_rep(spec, sigma_symbolic(2), S)
        z_img = rep.eval(center_generator(spec))
        for name in rep.gen_names:
            assert z_img * rep.image(name) == rep.image(name) * z_img

    def test_requires_unit_with_infinite_order(self):
        spec = artin_even_spec(2)
        with pytest.raises(ValueError):
            hnn_induced_rep(spec, sigma_symbolic(2), ONE + LAM)
        with pytest.raises(ValueError):
            hnn_induced_rep(spec, sigma_symbolic(2), LAURENT.s_power(0))

    def test_qp_construction(self):
        spec = artin_even_spec(2)
        qp = QpRing(5)
        rep = hnn_induced_rep(spec, sigma_qp(2, 2, 2, 5), qp.from_int(5))
        assert rep.degree == 4
        assert rep.ring == qp


class TestSpecializationCommutes:
    def _specialized(self, qp, m):
        return RingMatrix(qp, tuple(
            tuple(x.specialize(2, 2, 5) for x in row) for row in m.rows
        ))

    def test_artin_even_entrywise(self):
        qp = QpRing(5)
        symbolic = artin_even(2)
        direct = artin_even(2, sigma_qp(2, 2, 2, 5), qp.from_int(5))
        for name in ("x", "y"):
            assert self._specialized(qp, symbolic.image(name)) == direct.image(name)

    def test_artin_odd_entrywise(self):
        qp = QpRing(5)
        symbolic = artin_odd(1)
        direct = artin_odd(
            1, sigma_qp(2, 2, 2, 5, basis="rank2-mixed"), qp.from_int(5)
        )
        for name in ("x", "y"):
            assert self._specialized(qp, symbolic.image(name)) == direct.image(name)


class TestArtinEven:
    def test_x_shape_n2(self):
        rep = artin_even(2)
        x0_block = lau([[ONE, ZERO], [LAM, ONE]])
        assert rep.image("x") == block_diag([x0_block, x0_block])

    def test_corner_b_n2(self):
        rep = artin_even(2)
        b = get_block(rep.image("y"), 1, 0, 2)
        expected = (
            lau([[ONE, ZERO], [-LAM, ONE]])
            * lau([[ONE - LAM * MU, MU], [-LAM, ONE]])
        ).scalar_mul(S)
        assert b == expected

    def test_relation_symbolic(self):
        rep = artin_even(2)
        lhs, rhs = canonical_relation(4)
        assert rep.eval(lhs) == rep.eval(rhs)

    def test_degrees(self):
        for n in (2, 3):
            assert artin_even(n).degree == 2 * n

    def test_superdiagonal_blocks_are_a(self):
        rep = artin_even(3)
        a = lau([[ONE, -MU], [ZERO, ONE]])
        for i in range(2):
            assert get_block(rep.image("y"), i, i + 1, 2) == a


class TestArtinOdd:
    def test_degree_n1(self):
        assert artin_odd(1).degree == 12

    def test_braid_relation_n1(self):
        rep = artin_odd(1)
        x, y = rep.image("x"), rep.image("y")
        assert x * y * x == y * x * y

    def test_relation_n2(self):
        rep = artin_odd(2)
        lhs, rhs = canonical_relation(5)
        assert rep.eval(lhs) == rep.eval(rhs)
        assert rep.degree == 20

    def test_x_is_companion_with_sigma_corner(self):
        rep = artin_odd(1)
        spec = rep.spec
        sigma = sigma_symbolic(2, basis="rank2-mixed")
        k = spec.n
        corner = get_block(rep.image("x"), k - 1, 0, 2)
        assert corner == sigma.eval(spec.w0.inverse()).scalar_mul(S)

    def test_odd_center_is_scalar(self):
        rep = artin_odd(1)
        # ((x y)^1 x)^2 is central with image s * identity
        word = parse_letters("x y x x y x")
        assert rep.eval(word) == RingMatrix.identity(LAURENT, 12).scalar_mul(S)


class TestGolden:
    def test_all_blocks_match(self):
        table, mismatches = golden_check()
        assert mismatches == []

    def test_sigma_inverse_display(self):
        lm = LAM * MU
        expected = lau([
            [ONE - lm + lm * lm, -(LAM * MU * MU)],
            [-(LAM * LAM * MU), ONE + lm],
        ])
        assert GOLDEN_SIGMA_INV == expected

    def test_psi_blocks_have_det_one(self):
        assert det2(GOLDEN_SIGMA_INV) == ONE
        for mat in GOLDEN_PSI_X0.values():
            assert det2(mat) == ONE


class TestB3Explicit:
    def test_block_shapes(self):
        x_mat, y_mat = b3_explicit()
        sigma = sigma_symbolic(2, basis="rank2-mixed")
        spec = artin_odd_spec(1)
        assert get_block(x_mat, 1, 2, 2) == sigma.eval(spec.w0.inverse())
        assert get_block(x_mat, 5, 0, 2) == RingMatrix.identity(LAURENT, 2).scalar_mul(S)
        psi1 = lau([[ONE, -MU], [LAM, ONE - LAM * MU]])
        assert get_block(y_mat, 5, 0, 2) == psi1.scalar_mul(S)

    def test_braid_relation(self):
        x_mat, y_mat = b3_explicit()
        assert x_mat * y_mat * x_mat == y_mat * x_mat * y_mat

    def test_degree(self):
        x_mat, _ = b3_explicit()
        assert x_mat.degree == 12


class TestIntegerHnn:
    def test_b3_integer_degree_24(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        assert rep.degree == 24
        assert rep.ring == INT

    def test_braid_relation_holds(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        x = rep.image("t")
        y = rep.image("x0") * rep.image("t")
        assert x * y * x == y * x * y

    def test_generator_determinants_one(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        for name in rep.gen_names:
            assert det_bareiss(rep.image(name)) == 1

    def test_central_element_unipotent_blocks(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 3)
        z = MixedWord.t() ** spec.n * MixedWord.from_word(spec.w0)
        img = rep.eval(z)
        t_s = RingMatrix.from_ints(INT, ((1, 3), (0, 1)))
        blocks = [get_block(img, i, i, 4) for i in range(spec.n)]
        expected = RingMatrix(INT, tuple(
            tuple(
                (t_s.rows[i][j] if i < 2 and j < 2 else (1 if i == j else 0))
                for j in range(4)
            )
            for i in range(4)
        ))
        assert all(b == expected for b in blocks)

    def test_rejects_s_zero(self):
        with pytest.raises(ValueError):
            integer_hnn(artin_odd_spec(1), sigma_int(2, 2, 2, basis="rank2-mixed"), 0)

    def test_even_family_also_integral(self):
        spec = artin_even_spec(2)
        rep = integer_hnn(spec, sigma_int(2, 2, 2), 1)
        assert rep.degree == 8
        for name in rep.gen_names:
            assert det_bareiss(rep.image(name)) == 1


class TestVerifyDefiningRelations:
    def test_pass(self):
        rep = artin_even(2)
        report = verify_defining_relations(rep, [canonical_relation(4)])
        assert report.ok

    def test_false_relation_reports_entry(self):
        rep = artin_even(2)
        report = verify_defining_relations(
            rep, [(parse_letters("x y"), parse_letters("y x"))]
        )
        assert not report.ok
        failure = report.failures()[0]
        assert failure.mismatch is not None

    def test_trivial_relation(self):
        rep = artin_even(2)
        w = parse_letters("x y^-1 x")
        assert verify_defining_relations(rep, [(w, w)]).ok


class TestProbe:
    def test_a4_short_probe_clean(self):
        spec = artin_even_spec(2)
        qp = QpRing(5)
        rep = hnn_induced_rep(spec, sigma_qp(2, 2, 2, 5), qp.from_int(5))
        report = probe_faithfulness(rep, 4)
        assert report.ok
        assert report.words_checked == 6 + 30 + 150 + 750

    def test_known_trivial_word_hits_identity(self):
        spec = artin_even_spec(2)
        qp = QpRing(5)
        rep = hnn_induced_rep(spec, sigma_qp(2, 2, 2, 5), qp.from_int(5))
        w = parse_word("t^-1 x0 t x0 x1^-1 x0^-1")
        assert normal_form(spec, w).trivial
        assert rep.eval(w) == RingMatrix.identity(qp, 4)

    def test_generator_not_identity(self):
        spec = artin_even_spec(2)
        qp = QpRing(5)
        rep = hnn_induced_rep(spec, sigma_qp(2, 2, 2, 5), qp.from_int(5))
        assert rep.eval("x0") != RingMatrix.identity(qp, 4)

    def test_probe_needs_spec(self):
        sigma = sigma_qp(2, 2, 2, 5)
        with pytest.raises(ValueError):
            probe_faithfulness(sigma, 2)


class TestSingleCosetSpec:
    """phi itself inner (n = 1): the companion degenerates to one block."""

    def _spec(self):
        return HnnSpec(
            rank=2, phi=inner_endomorphism(2, Word.gen(0)), n=1, w0=Word.gen(0)
        )

    def test_degree_and_relations(self):
        rep = hnn_induced_rep(self._spec(), sigma_symbolic(2), S)
        assert rep.degree == 2
        assert verify_defining_relations(
            rep, defining_relations(rep.spec)
        ).ok

    def test_symbolic_probe_path(self):
        # the probe over the Laurent ring, where the p-exponent stays 0
        rep = hnn_induced_rep(self._spec(), sigma_symbolic(2), S)
        report = probe_faithfulness(rep, 3)
        assert report.ok and report.words_checked == 6 + 30 + 150

    def test_qp_probe(self):
        qp = QpRing(5)
        rep = hnn_induced_rep(self._spec(), sigma_qp(2, 2, 2, 5), qp.from_int(5))
        report = probe_faithfulness(rep, 5)
        assert report.ok
        assert report.identity_count == 8

    def test_wrong_w0_rejected(self):
        with pytest.raises(ValueError):
            HnnSpec(rank=2, phi=inner_endomorphism(2, Word.gen(0)), n=1,
                    w0=Word.gen(1))


class TestLongWordCrossCheck:
    def test_equality_oracle_agrees_with_matrices(self):
        # Random mixed words well beyond the exhaustive probe length: the
        # word-problem answer and the matrix evaluation must agree.
        import random

        rng = random.Random(97)
        qp = QpRing(5)
        for spec, basis in (
            (artin_even_spec(2), "conjugated"),
            (artin_odd_spec(1), "rank2-mixed"),
        ):
            rep = hnn_induced_rep(
                spec, sigma_qp(2, 2, 2, 5, basis=basis), qp.from_int(5)
            )
            syms = [(g, s) for g in (0, 1, -1) for s in (1, -1)]
            for _ in range(60):
                u = MixedWord(tuple(rng.choice(syms) for _ in range(15)))
                v = MixedWord(tuple(rng.choice(syms) for _ in range(15)))
                from hnnrep.words import equal

                assert equal(spec, u, v) == (rep.eval(u) == rep.eval(v))


class TestB3Numeric:
    def test_qp_mode_blocks_and_relation(self):
        qp = QpRing(7)
        sigma = sigma_qp(2, 3, 2, 7, basis="rank2-mixed")
        x_mat, y_mat = b3_explicit(sigma, qp.from_int(7))
        assert x_mat.degree == 12
        assert x_mat * y_mat * x_mat == y_mat * x_mat * y_mat


class TestRepresentationJson:
    def test_round_trip(self):
        rep = artin_even(2)
        doc = rep.to_json()
        again = Representation.from_json(doc)
        assert again.to_json() == doc
        assert again.image("x") == rep.image("x")

    def test_integer_round_trip(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        doc = rep.to_json()
        assert Representation.from_json(doc).to_json() == doc

    def test_bad_inverse_rejected(self):
        ident = RingMatrix.identity(INT, 2)
        wrong = RingMatrix.from_ints(INT, ((1, 1), (0, 1)))
        with pytest.raises(VerificationError):
            Representation(INT, [("a", ident, wrong)])


def _brute_force_counts(rep, max_len):
    """(words checked, identity evaluations, disagreements) over every
    reduced mixed word of length 1..max_len, evaluated as dense matrices."""
    spec = rep.spec
    letters = [(g, s) for g in list(range(spec.rank)) + [T_GEN] for s in (1, -1)]
    words = checked = identities = disagreements = 0
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (sym,) for w in frontier for sym in letters
            if not w or sym != (w[-1][0], -w[-1][1])
        ]
        for syms in frontier:
            word = MixedWord(syms)
            is_id = rep.eval(word).is_identity()
            checked += 1
            identities += is_id
            disagreements += is_id != normal_form(spec, word).trivial
    return checked, identities, disagreements


def _q5_hnn(spec, basis="conjugated"):
    qp = QpRing(5)
    return hnn_induced_rep(spec, sigma_qp(spec.rank, 2, 2, 5, basis=basis),
                           qp.from_int(5))


def _conjugated_off_blocks(rep):
    """rep conjugated by the unipotent elementary matrix I + e_(0, d-1),
    which mixes the first and last cosets."""
    d = rep.degree
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    rows[0][d - 1] = 1
    u = RingMatrix.from_ints(rep.ring, rows)
    rows[0][d - 1] = -1
    u_inv = RingMatrix.from_ints(rep.ring, rows)
    gens = [
        (name, conjugate(rep.image(name), u, u_inv),
         conjugate(rep.inverse_image(name), u, u_inv))
        for name in rep.gen_names
    ]
    return Representation(rep.ring, gens, spec=rep.spec, group=rep.group)


class TestProbeDifferential:
    """The block-monomial probe against a dense brute-force loop."""

    def _assert_agrees(self, rep, max_len):
        report = probe_faithfulness(rep, max_len)
        checked, identities, disagreements = _brute_force_counts(rep, max_len)
        assert (report.words_checked, report.identity_count) == (checked, identities)
        assert len(report.counterexamples) == disagreements == 0

    def test_a3_q5(self):
        self._assert_agrees(_q5_hnn(artin_odd_spec(1), "rank2-mixed"), 4)

    def test_a4_q5(self):
        self._assert_agrees(_q5_hnn(artin_even_spec(2)), 4)

    def test_a3_integer_variant(self):
        spec = artin_odd_spec(1)
        rep = integer_hnn(spec, sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        assert rep.degree == 4 * spec.n  # 4 x 4 blocks, one per coset
        self._assert_agrees(rep, 4)

    def test_single_coset_symbolic(self):
        spec = HnnSpec(
            rank=2, phi=inner_endomorphism(2, Word.gen(0)), n=1, w0=Word.gen(0)
        )
        self._assert_agrees(hnn_induced_rep(spec, sigma_symbolic(2), S), 4)

    def test_dense_fallback_same_counts(self):
        rep = _q5_hnn(artin_even_spec(2))
        off = _conjugated_off_blocks(rep)
        for name in off.gen_names:
            BlockMonomial.from_matrix(rep.image(name), 2)
            with pytest.raises(ValueError):
                BlockMonomial.from_matrix(off.image(name), 2)
        expected = probe_faithfulness(rep, 5)
        report = probe_faithfulness(off, 5)
        assert (report.words_checked, report.identity_count) == (
            expected.words_checked, expected.identity_count)
        assert report.ok
        self._assert_agrees(off, 4)
