"""Representation builders: block shapes, relations, golden forms, probe."""

import functools
import hashlib
import random
import time

import pytest

from hnnrep import cli, reps
from hnnrep.errors import VerificationError
from hnnrep.matrix import (
    BlockMonomial,
    RingMatrix,
    block_diag,
    conjugate,
    det_bareiss,
    get_block,
)
from hnnrep.reps import (
    GOLDEN_PSI_X0,
    GOLDEN_SIGMA_INV,
    ProbeReport,
    Representation,
    artin_even,
    artin_odd,
    b3_explicit,
    canonical_relation,
    defining_relations,
    golden_check,
    hnn_induced_rep,
    integer_hnn,
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
    reduced_walk,
)

LAM = LAURENT.lam()
MU = LAURENT.mu()
ONE = LAURENT.one
ZERO = LAURENT.zero
S = LAURENT.s_power(1)


def lau(rows):
    return RingMatrix(LAURENT, tuple(tuple(r) for r in rows))


def det2(m):
    (a, b), (c, d) = m.rows
    return a * d - b * c


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

    @pytest.mark.parametrize("ring, sigma", [
        (LAURENT, lambda: sigma_symbolic(2)),
        (QpRing(5), lambda: sigma_qp(2, 2, 2, 5)),
    ], ids=["laurent", "qp"])
    def test_plus_minus_one_has_finite_order(self, ring, sigma):
        for s in (ring.one, -ring.one):
            with pytest.raises(ValueError, match="infinite order"):
                hnn_induced_rep(artin_even_spec(2), sigma(), s)

    @pytest.mark.parametrize("sigma, s", [
        (lambda: sigma_symbolic(2), LAURENT.s_power(-2)),
        (lambda: sigma_symbolic(2), LAURENT.s_power(3, -1)),
        (lambda: sigma_qp(2, 2, 2, 5), QpRing(5).from_int(-25)),
        (lambda: sigma_qp(2, 2, 2, 5), QpRing(5).unit_inverse(QpRing(5).from_int(5))),
    ], ids=["s^-2", "-s^3", "-25", "1/5"])
    def test_infinite_order_units_accepted(self, sigma, s):
        rep = hnn_induced_rep(artin_even_spec(2), sigma(), s)
        assert rep.params["s"] == s
        assert rep.eval(center_generator(rep.spec)) == RingMatrix.identity(
            rep.ring, rep.degree).scalar_mul(s)

    def test_no_units_over_the_integers(self):
        with pytest.raises(ValueError, match="no infinite-order units available"):
            hnn_induced_rep(artin_even_spec(2), sigma_int(2, 2, 2), 3)

    def test_qp_zero_is_not_a_unit(self):
        qp = QpRing(5)
        with pytest.raises(ValueError):
            hnn_induced_rep(artin_even_spec(2), sigma_qp(2, 2, 2, 5), qp.zero)

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
        word = [("x", 1), ("y", 1), ("x", 1), ("x", 1), ("y", 1), ("x", 1)]
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

    def test_rejects_determinant_other_than_one(self):
        swap = RingMatrix(INT, ((0, 1), (1, 0)))
        sigma = Representation(INT, [("x0", swap, swap), ("x1", swap, swap)])
        with pytest.raises(ValueError, match="x0 must have determinant 1"):
            integer_hnn(artin_even_spec(2), sigma, 1)

    def test_multi_block_sigma_reads_as_its_dense_matrices(self):
        # diag(sigma, sigma) given as two-block images builds what its dense
        # matrices, read as one block each, build.
        sigma = sigma_int(2, 2, 3)
        doubled = [
            (name, BlockMonomial.diag([img, img]), BlockMonomial.diag([inv, inv]))
            for name, (img, inv) in sigma.images.items()
        ]
        two_block = Representation(INT, doubled)
        dense = Representation(INT, [
            (name, img.to_matrix(), inv.to_matrix()) for name, img, inv in doubled
        ])
        assert len(two_block.images["x0"][0].perm) == 2
        assert len(dense.images["x0"][0].perm) == 1
        spec = artin_even_spec(2)
        rep = integer_hnn(spec, two_block, 5)
        assert rep.degree == 2 * 6
        assert rep.to_json() == integer_hnn(spec, dense, 5).to_json()


class TestVerifyDefiningRelations:
    def test_pass(self):
        rep = artin_even(2)
        report = verify_defining_relations(rep, [canonical_relation(4)])
        assert report.ok

    def test_false_relation_reports_entry(self):
        rep = artin_even(2)
        report = verify_defining_relations(
            rep, [([("x", 1), ("y", 1)], [("y", 1), ("x", 1)])]
        )
        assert not report.ok
        failure = report.failures()[0]
        assert failure.mismatch is not None

    def test_sides_recorded_as_words(self):
        rep = artin_even(2)
        (result,) = verify_defining_relations(rep, [canonical_relation(4)]).results
        assert (result.lhs, result.rhs) == ("x y x y", "y x y x")

    def test_builds_keep_their_reports(self):
        # Each build keeps the reports it verified: the defining relations,
        # then the canonical relation for an A(m) build.
        rep = artin_odd(1)
        defining, canonical = rep.relation_reports
        assert [(r.lhs, r.ok) for r in defining.results] == [
            ("t^-1 x0 t", True), ("t^-1 x1 t", True)]
        assert [(r.lhs, r.rhs, r.ok) for r in canonical.results] == [
            ("x y x", "y x y", True)]
        integer = integer_hnn(artin_odd_spec(1), sigma_int(2, 2, 2, basis="rank2-mixed"), 1)
        assert len(integer.relation_reports) == 1
        assert Representation.from_json(rep.to_json()).relation_reports == ()

    def test_trivial_relation(self):
        rep = artin_even(2)
        w = [("x", 1), ("y", -1), ("x", 1)]
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
        return _single_coset_spec()

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


def _walk_report(rep, max_len):
    """The probe word by word, as a reference: walk every reduced mixed
    word of length at most max_len depth first (see reduced_walk) on the
    probe's own block states, and list each word whose image is the
    identity while its normal form is not, or the reverse.  A word
    evaluates to the identity exactly when its permutation is the identity
    and every integer-scaled block equals p^e * I."""
    pairs, root, step, e_max = reps._probe_steps(rep, max_len)
    top = max_len * e_max
    if rep.ring.kind == "qp":
        units = [rep.ring.p**e for e in range(top + 1)]
    else:
        units = [root[0].ring.one] * (top + 1)
    report = ProbeReport(max_len=max_len)
    for word, (mat, e, l, f) in reduced_walk(pairs, max_len, root, step):
        is_id = mat.is_scalar(units[e])
        report.words_checked += 1
        report.identity_count += is_id
        if is_id != (l == 0 and not f.syms):
            report.counterexamples.append(str(MixedWord(word)))
    return report


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


def _single_coset_spec():
    return HnnSpec(
        rank=2, phi=inner_endomorphism(2, Word.gen(0)), n=1, w0=Word.gen(0)
    )


def _x1_as_x0(rep):
    """rep with x1 given the images of x0."""
    gens = [(name, rep.image(src), rep.inverse_image(src))
            for name, src in zip(rep.gen_names, ["x0", "x0", "t"])]
    return Representation(rep.ring, gens, spec=rep.spec)


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
        spec = _single_coset_spec()
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

    def test_counterexamples_in_walk_order(self):
        # x1 takes x0's images, so x0 x1^-1 and its relatives evaluate to
        # the identity; the lines come in depth-first word order.
        rep = _q5_hnn(artin_even_spec(2))
        gens = [(name, rep.image(src), rep.inverse_image(src))
                for name, src in zip(rep.gen_names, ["x0", "x0", "t"])]
        bad = Representation(rep.ring, gens, spec=rep.spec)
        report = probe_faithfulness(bad, 4)
        assert _brute_force_counts(bad, 4) == (
            report.words_checked, report.identity_count,
            len(report.counterexamples)) == (936, 40, 48)
        assert report.counterexamples[:12] == [
            "x0 x0 x1^-1 x0^-1", "x0 x0 x1^-1 x1^-1", "x0 x1 x0^-1 x0^-1",
            "x0 x1 x0^-1 x1^-1", "x0 x1^-1", "x0 x1^-1 x0 x1^-1",
            "x0 x1^-1 x0^-1 x1", "x0 x1^-1 x1^-1 x0", "x0 t^-1 x1^-1 t",
            "x0^-1 x0^-1 x1 x0", "x0^-1 x0^-1 x1 x1", "x0^-1 x1",
        ]

    def _assert_matches_walk(self, rep, max_len):
        report = probe_faithfulness(rep, max_len)
        assert report == _walk_report(rep, max_len)
        return report

    @pytest.mark.parametrize("max_len", [1, 2])
    @pytest.mark.parametrize("spec, basis", [
        (artin_odd_spec(1), "rank2-mixed"), (artin_even_spec(2), "conjugated"),
    ], ids=["a3", "a4"])
    def test_lengths_with_empty_half_word(self, spec, basis, max_len):
        # at length 1 the second half-word c is empty
        rep = _q5_hnn(spec, basis)
        self._assert_matches_walk(rep, max_len)
        self._assert_agrees(rep, max_len)

    def test_a3_odd_length(self):
        rep = _q5_hnn(artin_odd_spec(1), "rank2-mixed")
        self._assert_matches_walk(rep, 7)
        self._assert_agrees(rep, 5)

    def test_a4_even_length(self):
        rep = _q5_hnn(artin_even_spec(2))
        self._assert_matches_walk(rep, 6)
        self._assert_agrees(rep, 6)

    @pytest.mark.parametrize("max_len", [5, 6])
    @pytest.mark.parametrize("build", [
        lambda: integer_hnn(artin_odd_spec(1), sigma_int(2, 2, 2, basis="rank2-mixed"), 1),
        lambda: hnn_induced_rep(_single_coset_spec(), sigma_symbolic(2), S),
        lambda: _conjugated_off_blocks(_q5_hnn(artin_even_spec(2))),
    ], ids=["integer", "single-coset-symbolic", "dense-one-block"])
    def test_other_rings_and_shapes(self, build, max_len):
        self._assert_matches_walk(build(), max_len)

    def test_collision_beyond_probe_length(self):
        # x0 and x1 share an image, but the shortest word that shows it,
        # x0 x1^-1, has length 2: at length 1 the half-words collide while
        # every probed word is fine, and the walk's report stands.
        bad = _x1_as_x0(_q5_hnn(artin_even_spec(2)))
        report = self._assert_matches_walk(bad, 1)
        assert (report.words_checked, report.identity_count, report.ok) == (6, 0, True)
        assert self._assert_matches_walk(bad, 2).counterexamples == [
            "x0 x1^-1", "x0^-1 x1", "x1 x0^-1", "x1^-1 x0",
        ]

    @staticmethod
    def _free_basis_rep():
        # x0, x1, t sent to a free basis of a free group: distinct words
        # never share an image, but t^-1 x1 t and x0 are one element.
        free = sigma_qp(3, 2, 2, 5)
        gens = [(name, free.image(src), free.inverse_image(src))
                for name, src in zip(["x0", "x1", "t"], free.gen_names)]
        return Representation(free.ring, gens, spec=artin_even_spec(2))

    def test_broken_relation_falls_back(self):
        bad = self._free_basis_rep()
        report = self._assert_matches_walk(bad, 4)
        assert _brute_force_counts(bad, 4) == (
            report.words_checked, report.identity_count,
            len(report.counterexamples)) == (936, 0, 8)
        assert report.counterexamples[0] == "x0 t^-1 x1^-1 t"

    def test_failing_probe_at_length_10(self):
        # The counterexamples come from the colliding half-word pairs, not
        # from a walk of all 14.6 M words; the figures are the walk's.
        bad = self._free_basis_rep()
        start = time.perf_counter()
        report = probe_faithfulness(bad, 10)
        elapsed = time.perf_counter() - start
        assert (report.words_checked, report.identity_count,
                len(report.counterexamples)) == (14_648_436, 0, 12_480)
        assert report.counterexamples[0] == (
            "x0 x0 x0 x0 t^-1 x1^-1 x1^-1 x1^-1 x1^-1 t")
        digest = hashlib.sha256(
            "\n".join(report.counterexamples).encode()).hexdigest()
        assert digest == (
            "dfb7e17f087d200e44d97294a4379df74803a2a5f6433846c0db84a2a0562885")
        assert elapsed < 10.0, f"failing L = 10 probe took {elapsed:.1f}s"

    def test_certificate_needs_no_walk(self, monkeypatch):
        depths = []

        def walk(pairs, max_len, root, step):
            depths.append(max_len)
            return reduced_walk(pairs, max_len, root, step)

        monkeypatch.setattr(reps, "reduced_walk", walk)
        report = probe_faithfulness(_q5_hnn(artin_even_spec(2)), 7)
        assert (report.words_checked, report.identity_count, report.ok) == (
            117186, 100, True)
        assert depths and max(depths) <= 4  # ceil(7 / 2)


MODE_FLAGS = {
    "symbolic": [],
    "numeric": ["--lambda", "2", "--mu", "3", "--s", "5"],
    "integer": ["--integer", "--lambda", "2", "--mu", "3", "--s", "5"],
}


@functools.cache
def _built(m, mode):
    """The representation `build --m m` writes in the given mode."""
    args = cli.build_parser().parse_args(
        ["build", "--m", str(m), *MODE_FLAGS[mode], "--out", "-"]
    )
    return cli._build_artin(m, args)


def _dense_product(rep, letters):
    """Product of dense generator images, left to right."""
    out = RingMatrix.identity(rep.ring, rep.degree)
    for name, sign in letters:
        out = out * (rep.image(name) if sign == 1 else rep.inverse_image(name))
    return out


def _random_letters(rng, names, length):
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]


def _first_dense_mismatch(left, right):
    for i in range(left.degree):
        for j in range(left.degree):
            if left.rows[i][j] != right.rows[i][j]:
                return (i, j, repr(left.rows[i][j]), repr(right.rows[i][j]))
    return None


class TestBlockPathDifferential:
    """Block-monomial evaluation against dense products of image()s."""

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    @pytest.mark.parametrize("m", range(3, 9))
    def test_eval_matches_dense_product(self, m, mode):
        rep = _built(m, mode)
        k = len(rep.images[rep.gen_names[0]][0].perm)
        assert k == rep.spec.n  # stored as one block per coset
        rng = random.Random(f"{m}:{mode}")
        words = [_random_letters(rng, rep.gen_names, rng.randint(0, 7))
                 for _ in range(6)]
        for w in words:
            assert rep.eval(w) == _dense_product(rep, w)
        # the batch shares prefixes; each result is still its own product
        batch = rep.block_eval_many(words + [w[:3] for w in words])
        for w, img in zip(words + [w[:3] for w in words], batch):
            assert img.to_matrix() == _dense_product(rep, w)

    def test_single_block_fallback(self):
        off = _conjugated_off_blocks(_q5_hnn(artin_even_spec(2)))
        assert all(len(img.perm) == 1 for pair in off.images.values() for img in pair)
        rng = random.Random(5)
        for _ in range(10):
            w = _random_letters(rng, off.gen_names, rng.randint(0, 8))
            assert off.eval(w) == _dense_product(off, w)

    def test_json_input_is_read_as_one_block(self):
        rep = _built(5, "numeric")
        again = Representation.from_json(rep.to_json())
        assert all(len(img.perm) == 1 for pair in again.images.values() for img in pair)
        for name in rep.gen_names:
            assert again.image(name) == rep.image(name)


class TestWitnesses:
    @staticmethod
    def _nudge(bm, block, i, j):
        """bm with entry (i, j) of one block increased by one."""
        rows = [list(r) for r in bm.blocks[block]]
        rows[i][j] = rows[i][j] + bm.ring.one
        blocks = list(bm.blocks)
        blocks[block] = tuple(tuple(r) for r in rows)
        return BlockMonomial(bm.ring, bm.perm, tuple(blocks))

    @pytest.mark.parametrize("side", [0, 1])
    def test_one_entry_off_names_the_generator(self, side):
        rep = hnn_induced_rep(artin_even_spec(2), sigma_symbolic(2), S)
        for name in rep.gen_names:
            pair = rep.images[name]
            for block in range(len(pair[side].perm)):
                for i in range(2):
                    for j in range(2):
                        bad = list(pair)
                        bad[side] = self._nudge(pair[side], block, i, j)
                        gens = [(g, *(bad if g == name else rep.images[g]))
                                for g in rep.gen_names]
                        with pytest.raises(VerificationError,
                                           match=f"inverse image of {name} is"):
                            Representation(rep.ring, gens, spec=rep.spec)

    def test_dense_inverse_off_is_rejected(self):
        rep = _built(4, "integer")
        image = rep.image("t")
        inv_rows = [list(r) for r in rep.inverse_image("t").rows]
        inv_rows[-1][0] += 1
        with pytest.raises(VerificationError, match="inverse image of t is"):
            Representation(INT, [("t", image, RingMatrix(INT, inv_rows))])

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_corrupted_generator_mismatch_in_dense_coordinates(self, mode):
        spec = artin_odd_spec(1)
        if mode == "symbolic":
            sigma = sigma_symbolic(2, basis="rank2-mixed")
            rep = hnn_induced_rep(spec, sigma, S)
        else:
            rep = _q5_hnn(spec, "rank2-mixed")
        x0, x0_inv = rep.images["x0"]
        x1, x1_inv = rep.images["x1"]
        # x0 -> x0 x1 keeps the block shape and a correct inverse
        gens = [("x0", x0 * x1, x1_inv * x0_inv), ("x1", x1, x1_inv),
                ("t", *rep.images["t"])]
        bad = Representation(rep.ring, gens, spec=spec)
        relations = defining_relations(spec)
        report = verify_defining_relations(bad, relations)
        assert not report.ok
        for result, (lhs, rhs) in zip(report.results, relations):
            left = _dense_product(bad, bad.letters(lhs))
            right = _dense_product(bad, bad.letters(rhs))
            assert result.ok == (left == right)
            assert result.mismatch == _first_dense_mismatch(left, right)


class TestChecksStillRun:
    """Each construction check raises on a corrupted input."""

    def test_defining_relations(self, monkeypatch):
        def false_relations(spec):
            x0, t = MixedWord.gen(0), MixedWord.t()
            return [(x0 * t, t * x0)]

        monkeypatch.setattr(reps, "defining_relations", false_relations)
        with pytest.raises(VerificationError, match="defining relations fail"):
            hnn_induced_rep(artin_even_spec(2), sigma_symbolic(2), S)
        with pytest.raises(VerificationError, match="defining relations fail"):
            integer_hnn(artin_odd_spec(1), sigma_int(2, 2, 2, basis="rank2-mixed"), 1)

    def test_canonical_relation(self, monkeypatch):
        monkeypatch.setattr(
            reps, "canonical_relation", lambda m: ([("x", 1), ("y", 1)], [("y", 1), ("x", 1)])
        )
        # The message names the sides as words and the first differing
        # entry as (row, col, ...).
        witness = r"lhs='x y', rhs='y x', ok=False, mismatch=\(\d+, \d+, "
        with pytest.raises(VerificationError,
                           match=r"canonical relation fails for A\(4\): .*" + witness):
            artin_even(2)
        with pytest.raises(VerificationError,
                           match=r"canonical relation fails for A\(3\): .*" + witness):
            artin_odd(1)
        # The braid pair goes through the same checker.
        with pytest.raises(VerificationError,
                           match=r"canonical relation fails for A\(3\): .*" + witness):
            b3_explicit()

    def test_even_block_shape(self):
        qp = QpRing(5)
        sigma = sigma_qp(2, 2, 3, 5)
        sigma.params["lam"] = qp.from_int(3)  # the images were built with 2
        with pytest.raises(VerificationError, match="x image does not match"):
            artin_even(2, sigma, qp.from_int(5))

    def test_odd_and_b3_block_shapes(self, monkeypatch):
        real = reps.hnn_induced_rep
        # the companion corner built with s^2 while the shape expects s
        monkeypatch.setattr(reps, "hnn_induced_rep",
                            lambda spec, sigma, s: real(spec, sigma, s * s))
        with pytest.raises(VerificationError, match="y image does not match"):
            artin_odd(1)
        with pytest.raises(VerificationError, match="X image does not match"):
            b3_explicit()

    def test_golden_forms(self, monkeypatch):
        golden = dict(GOLDEN_PSI_X0)
        golden[2] = GOLDEN_PSI_X0[3]
        monkeypatch.setattr(reps, "GOLDEN_PSI_X0", golden)
        with pytest.raises(VerificationError, match="golden mismatch"):
            b3_explicit()
