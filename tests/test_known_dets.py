"""Determinants known by construction: every built block carries its
determinant (BlockMonomial.dets), its inverse comes from it with no
a d - b c, the odd y is evaluated from its skeleton, and sigma's letters
are written in closed form."""

import functools

import pytest

from hnnrep import cli, matrix, reps
from hnnrep.errors import VerificationError
from hnnrep.matrix import BlockMonomial
from hnnrep.reps import (
    b3_explicit,
    hnn_induced_rep,
    integer_hnn,
    sigma_free,
    sigma_qp,
    sigma_symbolic,
)
from hnnrep.ring import INT, LAURENT, QpRing
from hnnrep.words import MixedWord

MODE_FLAGS = {
    "symbolic": [],
    "numeric": ["--lambda", "2", "--mu", "3", "--s", "5"],
    "integer": ["--integer", "--lambda", "2", "--mu", "3", "--s", "5"],
}


def _args(m, mode):
    return cli.build_parser().parse_args(
        ["build", "--m", str(m), *MODE_FLAGS[mode], "--out", "-"])


@functools.cache
def _built(m, mode):
    """The representation `build --m m` writes in the given mode."""
    return cli._build_artin(m, _args(m, mode))


@functools.cache
def _induced(m, mode):
    """The induced representation on the x_i / t alphabet of A(m)."""
    build = integer_hnn if mode == "integer" else hnn_induced_rep
    return build(*cli._mode_inputs(m, _args(m, mode)))


def _b3_reps(monkeypatch, *args):
    """The representations b3_explicit builds: the induced tau and the
    canonical pair's, caught on their way through _canonical_rep."""
    made = []
    real = reps._canonical_rep

    def canonical(m, tau, x, y):
        rep = real(m, tau, x, y)
        made.extend((tau, rep))
        return rep

    monkeypatch.setattr(reps, "_canonical_rep", canonical)
    b3_explicit(*args)
    return made


def _assert_known_and_exact(rep):
    """Every image and inverse of rep knows its block determinants, each
    equal to a d - b c recomputed, and image * inverse = I by the
    product."""
    for name, (image, inverse) in rep.images.items():
        for mat in (image, inverse):
            assert mat.dets is not None, name
            assert len(mat.dets) == len(mat.blocks)
            for ((a, b), (c, d)), det in zip(mat.blocks, mat.dets):
                assert det == a * d - b * c, name
        assert (image * inverse).is_identity(), name
        assert (inverse * image).is_identity(), name


class TestKnownDeterminants:
    """Differential test of the known determinants against a d - b c."""

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    @pytest.mark.parametrize("m", range(3, 15))
    def test_build(self, m, mode):
        _assert_known_and_exact(_built(m, mode))

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    @pytest.mark.parametrize("m", range(3, 15))
    def test_induced(self, m, mode):
        # integer_artin's images are those of integer_hnn, which build
        # writes in integer mode (test_build).
        _assert_known_and_exact(_induced(m, mode))

    def test_b3_explicit_symbolic(self, monkeypatch):
        for rep in _b3_reps(monkeypatch):
            _assert_known_and_exact(rep)

    def test_b3_explicit_qp(self, monkeypatch):
        qp = QpRing(5)
        sigma = sigma_qp(2, 2, 3, 5, basis="rank2-mixed")
        for rep in _b3_reps(monkeypatch, sigma, qp.from_int(5)):
            _assert_known_and_exact(rep)

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_builds_compute_no_determinant(self, monkeypatch, m):
        # Each inverse and each certificate of a build takes its block
        # determinant as known: none computes a d - b c.
        computed = []
        real = matrix._adjugate_inverse

        def adjugate(ring, blk, det=None):
            if det is None:
                computed.append(blk)
            return real(ring, blk, det)

        monkeypatch.setattr(matrix, "_adjugate_inverse", adjugate)
        for mode in MODE_FLAGS:
            cli._build_artin(m, _args(m, mode))
        assert computed == []

    def test_unknown_blocks_compute_theirs(self):
        # A block from a dense matrix has no known determinant; its
        # inverse takes the computed one and raises on a non-unit.
        dense = _built(5, "symbolic").image("y")
        image = BlockMonomial.from_matrix(dense, 10)
        assert image.dets is None
        inverse = image.inverse()
        assert inverse.dets is None
        assert inverse == _built(5, "symbolic").images["y"][1]
        bad = BlockMonomial.from_matrix(
            BlockMonomial(INT, (0,), (((2, 0), (0, 1)),)).to_matrix(), 1)
        with pytest.raises(ValueError, match="not a unit"):
            bad.inverse()

    def test_derived_determinants(self):
        s = LAURENT.s_power(1)
        sigma = sigma_symbolic(3)
        x0, x1 = sigma.images["x0"][0], sigma.images["x1"][0]
        ident = BlockMonomial.identity(LAURENT, 2, 3)
        assert ident.dets == (LAURENT.one,) * 3
        diag = BlockMonomial.diag([x0, x1.scalar_mul(s), x0 * x1])
        assert diag.dets == (LAURENT.one, s * s, LAURENT.one)
        comp = BlockMonomial.companion([x0, x1], x0.scalar_mul(s))
        assert comp.dets == (LAURENT.one, LAURENT.one, s * s)
        inv = comp.inverse()
        assert inv.dets == (LAURENT.s_power(-2), LAURENT.one, LAURENT.one)
        for mat in (diag, comp, inv, comp * inv, diag * comp):
            for ((a, b), (c, d)), det in zip(mat.blocks, mat.dets):
                assert det == a * d - b * c


class TestOddY:
    """y = x0 t from its skeleton equals the product of the images."""

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    @pytest.mark.parametrize("m", range(3, 16, 2))
    def test_skeleton_y_is_the_product(self, monkeypatch, m, mode):
        tau = _induced(m, mode)
        assert tau.skeleton_image is not None
        want = tau.images["x0"][0] * tau.images["t"][0]
        # The skeleton path multiplies no images: only sigma's blocks and
        # the corner, never a matrix with one block per coset.
        shapes = []
        real = BlockMonomial.__mul__

        def mul(a, b):
            shapes.append(len(a.perm))
            return real(a, b)

        monkeypatch.setattr(BlockMonomial, "__mul__", mul)
        got = reps._odd_y(tau)
        monkeypatch.undo()
        assert got == want
        assert tau.spec.n not in shapes
        if mode != "integer":
            assert _built(m, mode).images["y"][0] == got

    def test_uncertified_y_is_the_product(self):
        tau = _induced(5, "symbolic")
        tau_plain = reps.Representation(
            tau.ring, [(name, img, inv) for name, (img, inv) in tau.images.items()],
            spec=tau.spec)
        assert tau_plain.skeleton_image is None
        assert reps._odd_y(tau_plain) == reps._odd_y(tau)

    def test_skeleton_image_matches_word_evaluation(self):
        tau = _induced(7, "numeric")
        t, x0, x1 = MixedWord.t(), MixedWord.gen(0), MixedWord.gen(1)
        for word in (t ** 3 * x1, x0 * t ** -2 * x1 ** -1, t ** tau.spec.n):
            (want,) = tau.block_eval_many([word])
            assert tau.skeleton_image(word) == want


def _recursive_letters(ring, lam, mu, rank):
    """x_i = v^-1 x_(i-1) v and the same for the inverses, by products."""
    one, zero = ring.one, ring.zero

    def mat(a, b, c, d):
        return BlockMonomial(ring, (0,), (((a, b), (c, d)),))

    v, v_inv = mat(one, mu, zero, one), mat(one, -mu, zero, one)
    img, inv = mat(one, zero, lam, one), mat(one, zero, -lam, one)
    out = [(img, inv)]
    for _ in range(1, rank):
        img, inv = v_inv * img * v, v_inv * inv * v
        out.append((img, inv))
    return out


class TestClosedFormSigma:
    @pytest.mark.parametrize("ring,lam,mu", [
        (LAURENT, LAURENT.lam(), LAURENT.mu()),
        (QpRing(5), QpRing(5).from_int(2), QpRing(5).from_int(3)),
        (QpRing(5), QpRing(5).from_int(10), QpRing(5).from_int(-7)),
        (INT, 2, 3),
        (INT, -3, 5),
    ])
    @pytest.mark.parametrize("rank", range(1, 13))
    def test_closed_form_is_the_recursion(self, ring, lam, mu, rank):
        sigma = sigma_free(rank, ring, lam, mu)
        want = _recursive_letters(ring, lam, mu, rank)
        for i, (img, inv) in enumerate(want):
            got_img, got_inv = sigma.images[f"x{i}"]
            assert got_img == img and got_inv == inv, i
            assert got_img.dets == got_inv.dets == (ring.one,)

    def test_letter_of_another_determinant_is_refused(self):
        # sigma_free requires each letter's computed determinant to be 1.
        with pytest.raises(VerificationError,
                           match="sigma image of x1 must have determinant 1"):
            sigma_free(2, _Skewed(), 2, 3)


class _Skewed:
    """INT with a from_int that doubles, so x_i's closed form has a
    determinant other than 1."""

    kind = "integer"
    zero, one = 0, 1

    def from_int(self, k):
        return 2 * k

    def __eq__(self, other):
        return isinstance(other, _Skewed)
