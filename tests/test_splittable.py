"""Splittable-coordinates engine: products, kernels, closure, verification."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnrep import splittable
from hnnrep.errors import OracleError, VerificationError
from hnnrep.matrix import RingMatrix
from hnnrep.ring import QQ
from hnnrep.splittable import (
    InnerTau,
    MatrixGroupGens,
    SplittableReport,
    TauOracle,
    TrivialTau,
    _fresh_sample_check,
    _random_reduced_word,
    _Span,
    build_rep,
    conjugation_matrix,
    coord_name,
    coordinate_value,
    eval_word,
    generator_element,
    h_eval,
    int_g_rep,
    letter_name,
    semidirect_identity,
    semidirect_mul,
    validate_tau,
    verify_rep,
    word_str,
)
from hnnrep.words import reduced_walk

G_RANK2 = MatrixGroupGens.from_int_rows(2, [
    (((1, 0), (2, 1)), ((1, 0), (-2, 1))),
    (((1, 2), (0, 1)), ((1, -2), (0, 1))),
])
G_CYCLIC = MatrixGroupGens.from_int_rows(2, [
    (((1, 1), (0, 1)), ((1, -1), (0, 1))),
])
TRIVIAL_PHI = MatrixGroupGens.trivial()
# G_RANK2 conjugated by [[1, 1/2], [0, 1]]: the same group with entries in
# (1/2)Z, and Fraction entries of denominator 1 where they are integral.
_C = RingMatrix(QQ, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1))))
_C_INV = RingMatrix(QQ, ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(1))))
G_RATIONAL = MatrixGroupGens(2, tuple(
    (_C * m * _C_INV, _C * i * _C_INV) for m, i in G_RANK2.pairs
))


def trivial_setup():
    return TRIVIAL_PHI, G_RANK2, TrivialTau(2)


class ReversedTau(TauOracle):
    """Corrupted oracle: evaluates Phi-words in reversed letter order, so it
    is right on single letters but incoherent on longer words."""

    def __init__(self, g_gens):
        self.inner = InnerTau(g_gens)

    def tau_pair(self, phi_word):
        return self.inner.tau_pair(tuple(reversed(tuple(phi_word))))


class TestSemidirectMul:
    def test_trivial_phi_components_multiply(self):
        phi, g, tau = trivial_setup()
        a = generator_element(("g", 0, 1), phi, g)
        b = generator_element(("g", 1, 1), phi, g)
        prod = semidirect_mul(a, b, tau)
        assert prod.g_mat == a.g_mat * b.g_mat
        assert prod.phi_word == ()

    def test_phi_times_phi_inverse_is_identity(self):
        rep_gens = G_RANK2
        tau = InnerTau(rep_gens)
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in rep_gens.pairs
        ))
        a = generator_element(("phi", 0, 1), phi_gens, rep_gens)
        b = generator_element(("phi", 0, -1), phi_gens, rep_gens)
        prod = semidirect_mul(a, b, tau)
        assert prod.phi_mat.is_identity()
        assert prod.g_mat.is_identity()

    def test_associativity_random(self):
        rng = random.Random(31)
        tau = InnerTau(G_RANK2)
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        letters = [(k, i, s) for k in ("phi", "g") for i in (0, 1) for s in (1, -1)]

        def random_elem():
            word = [rng.choice(letters) for _ in range(rng.randrange(1, 4))]
            return eval_word(word, phi_gens, G_RANK2, tau)

        for _ in range(100):
            a, b, c = random_elem(), random_elem(), random_elem()
            left = semidirect_mul(semidirect_mul(a, b, tau), c, tau)
            right = semidirect_mul(a, semidirect_mul(b, c, tau), tau)
            assert left.phi_mat == right.phi_mat
            assert left.g_mat == right.g_mat


class TestHEval:
    def test_trivial_phi_reduces_to_entry_product(self):
        phi, g_gens, tau = trivial_setup()
        el = generator_element(("g", 0, 1), phi, g_gens)
        g = el.g_mat
        for p in range(2):
            for k1 in range(2):
                for k2 in range(2):
                    for q in range(2):
                        expected = (Fraction(1) if p == k1 else Fraction(0)) * g.rows[k2][q]
                        assert h_eval(p, k1, k2, q, el, tau) == expected

    def test_identity_element_gives_delta(self):
        phi, g_gens, tau = trivial_setup()
        e = semidirect_identity(0, 2)
        for p in range(2):
            for q in range(2):
                total = sum(h_eval(p, k, k, q, e, tau) for k in range(2))
                assert total == (1 if p == q else 0)

    def test_specific_entry(self):
        phi, g_gens, tau = trivial_setup()
        el = generator_element(("g", 0, 1), phi, g_gens)  # [[1,0],[2,1]]
        assert h_eval(0, 0, 1, 0, el, tau) == 2

    def test_trace_identity_random(self):
        # Sum over k of H_{p k k q} is the plain G-coordinate T_{pq}.
        rng = random.Random(37)
        tau = InnerTau(G_RANK2)
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        letters = [(k, i, s) for k in ("phi", "g") for i in (0, 1) for s in (1, -1)]
        for _ in range(50):
            word = [rng.choice(letters) for _ in range(rng.randrange(4))]
            el = eval_word(word, phi_gens, G_RANK2, tau)
            for p in range(2):
                for q in range(2):
                    total = sum(h_eval(p, k, k, q, el, tau) for k in range(2))
                    assert total == coordinate_value(("g", p, q), el)


class TestValidateTau:
    def test_inner_tau_passes(self):
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        validate_tau(phi_gens, G_RANK2, InnerTau(G_RANK2))

    def test_reversed_tau_fails(self):
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        with pytest.raises(OracleError):
            validate_tau(phi_gens, G_RANK2, ReversedTau(G_RANK2))

    def test_wrong_inverse_on_one_word_fails(self):
        # tau(w)^-1 is wrong on one length-2 Phi-word only; the one-sided
        # inverse check names that word.
        bad = ((0, 1), (1, 1))

        class WrongInverse(TauOracle):
            def __init__(self, g_gens):
                self.inner = InnerTau(g_gens)

            def tau_pair(self, phi_word):
                val, inv = self.inner.tau_pair(phi_word)
                return (val, val) if tuple(phi_word) == bad else (val, inv)

        with pytest.raises(OracleError, match=re.escape(f"tau inverse wrong on {bad}")):
            validate_tau(INNER_PHI, G_RANK2, WrongInverse(G_RANK2), word_len=2)

    def test_returns_the_checked_kernel(self):
        kernel = validate_tau(INNER_PHI, G_RANK2, InnerTau(G_RANK2), word_len=2)
        for w in [(), ((0, 1),), ((1, -1), (0, 1))]:
            val, inv = InnerTau(G_RANK2).tau_pair(w)
            assert kernel.tau_pair(w) == (
                tuple(map(tuple, val.rows)), tuple(map(tuple, inv.rows)))

    def test_build_asks_tau_once_per_phi_word(self):
        # build_rep works on the kernel validate_tau checked, so no tau pair
        # is fetched and converted twice.
        tau = CountingTau(InnerTau(G_RANK2))
        rep = build_rep(INNER_PHI, G_RANK2, tau, sample_len=3)
        assert verify_rep(rep, max_len=2, pairs=20).ok
        assert tau.calls and max(tau.calls.values()) == 1


INNER_PHI = MatrixGroupGens(4, tuple(
    (conjugation_matrix(m, i), conjugation_matrix(i, m)) for m, i in G_RANK2.pairs
))


class CountingTau(TauOracle):
    """Passes tau_pair through and counts the calls per Phi-word."""

    def __init__(self, tau):
        self.tau = tau
        self.calls = Counter()

    def tau_pair(self, phi_word):
        self.calls[tuple(phi_word)] += 1
        return self.tau.tau_pair(phi_word)


class TestBuildRepTrivialPhi:
    def test_dimension_four(self):
        rep = build_rep(*trivial_setup())
        assert rep.dimension == 4
        assert rep.m_degree == 0 and rep.n_degree == 2
        assert [b.coord for b in rep.basis] == [
            ("g", 0, 0), ("g", 0, 1), ("g", 1, 0), ("g", 1, 1)
        ]

    def test_action_is_left_multiplication_per_column(self):
        rep = build_rep(*trivial_setup())
        for idx in range(2):
            for sign in (1, -1):
                gen = G_RANK2.pairs[idx][sign != 1]
                action = rep.actions[letter_name(("g", idx, sign))]
                for q in range(2):
                    cols = [rep.basis.index(b) for b in rep.basis
                            if b.coord[2] == q]
                    sub = RingMatrix(QQ, tuple(
                        tuple(action.rows[i][j] for j in cols) for i in cols
                    ))
                    assert sub == gen

    def test_trivial_group_dimension_one(self):
        empty_g = MatrixGroupGens(2, ())
        rep = build_rep(TRIVIAL_PHI, empty_g, TrivialTau(2), sample_len=4)
        assert rep.dimension == 1
        assert rep.actions == {}

    def test_verify_to_length_four(self):
        rep = build_rep(*trivial_setup())
        report = verify_rep(rep, max_len=4)
        assert report.ok
        assert report.words_checked == 1 + 4 + 12 + 36 + 108

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_verify_needs_a_positive_length(self, max_len):
        rep = build_rep(*trivial_setup())
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            verify_rep(rep, max_len=max_len)


class TestIntGRep:
    def test_rank2_dimension_bound(self):
        rep = int_g_rep(G_RANK2, sample_len=3)
        assert rep.m_degree == 4 and rep.n_degree == 2
        assert rep.dimension <= 32

    def test_rank2_verify(self):
        rep = int_g_rep(G_RANK2, sample_len=3)
        report = verify_rep(rep, max_len=2, pairs=20)
        assert report.ok

    def test_recovers_mixed_element(self):
        rep = int_g_rep(G_RANK2, sample_len=3)
        word = [("phi", 0, 1), ("g", 0, -1)]
        element = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        action = rep.action_of_word(word)
        phi, g = rep.recover(action)
        assert phi == element.phi_mat
        assert g == element.g_mat

    def test_cyclic_group(self):
        rep = int_g_rep(G_CYCLIC, sample_len=4)
        assert rep.dimension <= 32
        report = verify_rep(rep, max_len=3, pairs=20)
        assert report.ok

    @pytest.mark.parametrize("sample_len", [-1, -2])
    def test_negative_sample_len_rejected(self, sample_len):
        # At -2 the fresh words would all be empty: the gate would check
        # nothing and pass a dimension-1 rep that fails verify_rep.
        with pytest.raises(ValueError, match="sample_len must be at least 0"):
            int_g_rep(G_RANK2, sample_len=sample_len)
        with pytest.raises(ValueError, match="sample_len must be at least 0"):
            build_rep(*trivial_setup(), sample_len=sample_len)

    def test_corrupted_tau_detected(self):
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        with pytest.raises(VerificationError):
            build_rep(phi_gens, G_RANK2, ReversedTau(G_RANK2), sample_len=2)

    def test_deeply_corrupted_tau_detected(self):
        # Coherent on short words, reversed beyond: the contract is sampled
        # to the depth the engine actually consults.
        class DeepCorrupt(TauOracle):
            def __init__(self, g_gens):
                self.inner = InnerTau(g_gens)

            def tau_pair(self, phi_word):
                w = tuple(phi_word)
                if len(w) >= 4:
                    w = tuple(reversed(w))
                return self.inner.tau_pair(w)

        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m))
            for m, i in G_RANK2.pairs
        ))
        with pytest.raises(OracleError):
            build_rep(phi_gens, G_RANK2, DeepCorrupt(G_RANK2), sample_len=3)


class TestExplicitPhiPairing:
    def test_g_acting_on_itself(self):
        # Phi given explicitly as the G matrices, paired one-to-one and acting
        # by conjugation through the word-transfer oracle: G x| G.
        rep = build_rep(G_RANK2, G_RANK2, InnerTau(G_RANK2), sample_len=3)
        assert rep.m_degree == 2 and rep.n_degree == 2
        assert rep.dimension <= 2 * 2 + 2**4 == 20
        report = verify_rep(rep, max_len=2, pairs=20)
        assert report.ok


class TestExport:
    def test_json_shape(self):
        rep = build_rep(*trivial_setup())
        doc = rep.to_json()
        assert doc["mDegree"] == 0 and doc["nDegree"] == 2
        assert doc["dimension"] == 4
        assert doc["basis"][0] == {"coordId": "G(1,1)", "shiftWord": "ε"}
        assert set(doc["actions"]) == {"g0", "g0^-1", "g1", "g1^-1"}
        mat = RingMatrix.from_json(doc["actions"]["g0"])
        assert mat.degree == 4

    def test_gens_round_trip(self):
        doc = G_RANK2.to_json()
        assert MatrixGroupGens.from_json(doc).to_json() == doc


class TestMatrixGroupGens:
    def test_bad_inverse_rejected(self):
        with pytest.raises(ValueError):
            MatrixGroupGens.from_int_rows(2, [
                (((1, 1), (0, 1)), ((1, 1), (0, 1))),
            ])

    @pytest.mark.parametrize("side", [0, 1], ids=["matrix", "inverse"])
    @pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_entry_corruption_rejected(self, side, row, col):
        # The pair is checked one-sided, A B = I; a corrupted A or B fails it.
        pair = [[list(r) for r in m] for m in (((1, 0), (2, 1)), ((1, 0), (-2, 1)))]
        pair[side][row][col] += 1
        with pytest.raises(ValueError, match="does not multiply to identity"):
            MatrixGroupGens.from_int_rows(2, [tuple(
                tuple(map(tuple, m)) for m in pair)])


class TestRationalGenerators:
    def test_inner_tau(self):
        rep = int_g_rep(G_RATIONAL, sample_len=3)
        assert rep.dimension == 26
        assert verify_rep(rep, max_len=2, pairs=20).ok
        word = [("phi", 1, -1), ("g", 0, 1), ("g", 1, 1)]
        element = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        assert rep.recover(rep.action_of_word(word)) == (
            element.phi_mat, element.g_mat
        )

    def test_trivial_tau(self):
        rep = build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2), sample_len=4)
        assert rep.dimension == 4
        assert verify_rep(rep, max_len=3).ok
        assert rep.actions["g0"].ring == QQ
        assert all(isinstance(x, Fraction)
                   for row in rep.actions["g0"].rows for x in row)


def reference_expansion(basis, vec):
    """Coefficients x with sum_k x[k] * basis[k] == vec, by Gauss-Jordan
    elimination over Fractions; None when vec is outside the span."""
    d = len(basis)
    rows = [
        [Fraction(b[i]) for b in basis] + [Fraction(vec[i])]
        for i in range(len(vec))
    ]
    pivots = []
    for col in range(d):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    if any(rows[i][d] for i in range(len(pivots), len(rows))):
        return None
    x = [Fraction(0)] * d
    for i, col in enumerate(pivots):
        x[col] = rows[i][d]
    return x


_ENTRIES = {
    "integer": st.integers(-4, 4),
    "rational": st.fractions(-3, 3, max_denominator=4),
    "fraction-denominator-1": st.integers(-4, 4).map(Fraction),
}


@st.composite
def vector_sequences(draw, kind):
    """Vectors of one length; some are combinations of earlier ones, so
    both in-span and out-of-span vectors occur."""
    entry = _ENTRIES[kind]
    length = draw(st.integers(1, 6))
    out = []
    for _ in range(draw(st.integers(1, 9))):
        if out and draw(st.booleans()):
            coeffs = [draw(entry) for _ in out]
            vec = [sum(c * v[i] for c, v in zip(coeffs, out)) for i in range(length)]
        else:
            vec = [draw(entry) for _ in range(length)]
        out.append(vec)
    return out


class TestFractionFreeSpan:
    @pytest.mark.parametrize("kind", sorted(_ENTRIES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, kind, data):
        vectors = data.draw(vector_sequences(kind))
        span = _Span()
        basis = []
        for vec in vectors:
            residual, combo, scale = span.reduce(vec)
            assert scale > 0
            for i, f in enumerate(vec):
                expected = scale * f - sum(c * basis[k][i] for k, c in combo.items())
                assert residual[i] == expected
            reference = reference_expansion(basis, vec)
            if reference is None:
                assert any(residual)
                span.add(residual, combo, scale, len(basis))
                basis.append(vec)
            else:
                assert not any(residual)
                expansion = [Fraction(combo.get(k, 0), scale)
                             for k in range(len(basis))]
                assert expansion == reference


class TestWitness:
    def test_corrupted_action_names_the_fresh_word(self):
        rep = build_rep(*trivial_setup())
        by_name = {letter_name(l): l for l in rep.letters}
        row = rep.action_rows["g0"][0]
        row[0] = row.get(0, 0) + 1
        with pytest.raises(VerificationError) as info:
            _fresh_sample_check(rep)
        message = str(info.value)
        match = re.search(
            r"basis 0 under g0 at fresh word ([^:]+): "
            r"direct value (\S+), combination (\S+)$", message,
        )
        assert match, message
        word = [by_name[name] for name in match.group(1).split()]
        assert len(word) in (rep.sample_len + 1, rep.sample_len + 2)
        # The named value is the shifted basis function at that word.
        y = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        basis = rep.basis[0]
        shifted = semidirect_mul(
            basis.shift,
            generator_element(("g", 0, 1), rep.phi_gens, rep.g_gens),
            rep.tau,
        )
        direct = coordinate_value(basis.coord, semidirect_mul(shifted, y, rep.tau))
        assert Fraction(match.group(2)) == direct
        assert Fraction(match.group(3)) != direct

        report = verify_rep(rep, max_len=2)
        assert not report.ok and report.homomorphism_failures
        assert re.match(r"recovery failure at word g0: G\(\d,\d\) reads \S+, "
                        r"the element has \S+$", report.witness)

    def test_homomorphism_failure_names_the_words(self):
        rep = int_g_rep(G_RANK2, sample_len=3)
        by_name = {letter_name(l): l for l in rep.letters}
        # The last basis function is a shift that no coordinate expansion
        # reads, so words of length 1 still recover correctly.
        last = rep.dimension - 1
        row = rep.action_rows["phi0"][last]
        row[0] = row.get(0, 0) + 1
        report = verify_rep(rep, max_len=1, pairs=20)
        assert report.recovery_failures == 0 and report.homomorphism_failures
        match = re.match(
            r"homomorphism failure for u = (.+), v = (.+): basis (\d+) at "
            r"fresh word (.+): direct value (\S+), combination (\S+)$",
            report.witness,
        )
        assert match, report.witness
        u, v, fresh = (
            [by_name[name] for name in match.group(k).split()] for k in (1, 2, 4)
        )
        assert ("phi", 0, 1) in u + v
        basis = rep.basis[int(match.group(3))]
        element = eval_word(u + v, rep.phi_gens, rep.g_gens, rep.tau)
        y = eval_word(fresh, rep.phi_gens, rep.g_gens, rep.tau)
        shifted = semidirect_mul(basis.shift, element, rep.tau)
        direct = coordinate_value(basis.coord, semidirect_mul(shifted, y, rep.tau))
        assert Fraction(match.group(5)) == direct
        assert Fraction(match.group(6)) != direct


# --- Row-basis build and integer verification ------------------------------


def sl2_pair(a, b):
    return MatrixGroupGens.from_int_rows(2, [
        (((1, 0), (a, 1)), ((1, 0), (-a, 1))),
        (((1, b), (0, 1)), ((1, -b), (0, 1))),
    ])


def _e(i, j, k):
    """The 3 x 3 elementary matrix I + k * E_ij."""
    return tuple(
        tuple(int(r == c) + (k if (r, c) == (i, j) else 0) for c in range(3))
        for r in range(3)
    )


# <e21(2), e12(2), e23(3)> <= SL_3(Z)
G_DEGREE3 = MatrixGroupGens.from_int_rows(3, [
    (_e(1, 0, 2), _e(1, 0, -2)), (_e(0, 1, 2), _e(0, 1, -2)),
    (_e(1, 2, 3), _e(1, 2, -3)),
])

BUILDS = {
    **{f"inner-{a}{b}": (lambda a=a, b=b: int_g_rep(sl2_pair(a, b), sample_len=3))
       for a in (2, 3) for b in (2, 3)},
    **{f"trivial-{a}{b}": (lambda a=a, b=b: build_rep(
        TRIVIAL_PHI, sl2_pair(a, b), TrivialTau(2), sample_len=4))
       for a in (2, 3) for b in (2, 3)},
    "inner-rational": lambda: int_g_rep(G_RATIONAL, sample_len=3),
    "trivial-rational": lambda: build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2),
                                          sample_len=4),
    "inner-cyclic": lambda: int_g_rep(G_CYCLIC, sample_len=4),
    "trivial-group": lambda: build_rep(TRIVIAL_PHI, MatrixGroupGens(2, ()),
                                       TrivialTau(2), sample_len=4),
}


def rep_data(rep):
    return ([(b.coord, b.shift.word) for b in rep.basis], rep.expansions,
            rep.action_rows)


def greedy_row_basis(rows):
    """Reference: the indices of the rows outside the span of the rows
    picked before them, by Fraction Gauss-Jordan elimination."""
    picked = []
    for idx, row in enumerate(rows):
        if reference_expansion([rows[i] for i in picked], row) is None:
            picked.append(idx)
    return picked


class TestRowBasis:
    @pytest.mark.parametrize("kind", sorted(_ENTRIES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, kind, data):
        rows = data.draw(vector_sequences(kind))
        assert splittable._row_basis(rows) == greedy_row_basis(rows)

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_same_rep_as_the_full_sample(self, monkeypatch, name):
        rep = BUILDS[name]()
        monkeypatch.setattr(splittable, "_row_basis", lambda rows: range(len(rows)))
        full = BUILDS[name]()
        assert rep_data(rep) == rep_data(full)
        assert rep.to_json() == full.to_json()

    def test_same_failure_as_the_full_sample(self, monkeypatch):
        # sample_len = 2 is too short for the degree-3 group: the fresh
        # sample rejects the closure, with the same witness either way.
        with pytest.raises(VerificationError) as pruned:
            int_g_rep(G_DEGREE3, sample_len=2)
        monkeypatch.setattr(splittable, "_row_basis", lambda rows: range(len(rows)))
        with pytest.raises(VerificationError) as full:
            int_g_rep(G_DEGREE3, sample_len=2)
        assert str(pruned.value) == str(full.value)
        assert str(pruned.value).startswith(
            "fresh-sample check failed for coordinate Phi(1,8) at fresh word "
            "phi0^-1 phi1 phi0 phi2^-1: direct value -48, combination 0")

    @pytest.mark.parametrize("name, points, fresh, rank", [
        ("inner-22", 457, 80, 26), ("trivial-22", 161, 78, 4),
    ])
    def test_samples_pruned_to_row_bases(
            self, monkeypatch, name, points, fresh, rank):
        # (points, points kept) of each _Sample: the build sample, then the
        # fresh points of the build's fresh-sample check.
        sizes = []
        row_basis = splittable._row_basis

        def recording_row_basis(rows):
            kept = row_basis(rows)
            sizes.append((len(rows), len(kept)))
            return kept

        monkeypatch.setattr(splittable, "_row_basis", recording_row_basis)
        BUILDS[name]()
        assert sizes == [(points, rank), (fresh, rank)]


def _dense(rows, d):
    return RingMatrix(QQ, tuple(
        tuple(Fraction(row.get(j, 0)) for j in range(d)) for row in rows
    ))


def reference_verify(rep, max_len, pairs=100, seed=0):
    """verify_rep on Fraction action matrices read from action_rows, with
    elements, coordinates and shifts from the Fraction reference API."""
    d, tau = rep.dimension, rep.tau
    letters = rep.letters
    actions = {l: _dense(rep.action_rows[letter_name(l)], d) for l in letters}
    ident = RingMatrix.identity(QQ, d)

    def action(word):
        out = ident
        for letter in word:
            out = out * actions[letter]
        return out

    def element(word):
        return eval_word(word, rep.phi_gens, rep.g_gens, tau)

    idv = [coordinate_value(b.coord, b.shift) for b in rep.basis]
    m, n = rep.m_degree, rep.n_degree
    coords = [("phi", i, j) for i in range(m) for j in range(m)]
    coords += [("g", p, q) for p in range(n) for q in range(n)]
    report = SplittableReport(max_len=max_len)

    def note(message):
        if report.witness is None:
            report.witness = message

    pairs_of_letters = list(zip(letters[::2], letters[1::2]))
    words = [()] + [w for w, _ in reduced_walk(pairs_of_letters, max_len, None,
                                               lambda s, l: None)]
    identity = element(())
    for word in words:
        el, a = element(word), action(word)
        report.words_checked += 1
        y = [sum(a.rows[i][j] * idv[j] for j in range(d)) for i in range(d)]
        for coord in coords:
            read = sum(c * y[i] for i, c in rep.expansions[coord].items())
            if read != coordinate_value(coord, el):
                report.recovery_failures += 1
                note(f"recovery failure at word {word_str(word)}: "
                     f"{coord_name(coord)} reads {read}, the element has "
                     f"{coordinate_value(coord, el)}")
                break
        if a == ident:
            report.identity_actions += 1
            if (el.phi_mat, el.g_mat) != (identity.phi_mat, identity.g_mat):
                report.injectivity_failures += 1
                note(f"identity action at word {word_str(word)}")

    rng = random.Random(seed)
    fresh = [_random_reduced_word(rng, letters, max_len + 2) for _ in range(20)]
    fresh_el = [element(w) for w in fresh]
    basis_vals = [[coordinate_value(b.coord, semidirect_mul(b.shift, y, tau))
                   for y in fresh_el] for b in rep.basis]
    for _ in range(pairs):
        u = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        v = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        el, a = element(u + v), action(u) * action(v)
        report.pairs_checked += 1
        for i, b in enumerate(rep.basis):
            shifted = semidirect_mul(b.shift, el, tau)
            bad = [
                (w, direct, comb) for w, y, vals in zip(fresh, fresh_el, zip(*basis_vals))
                if (direct := coordinate_value(b.coord, semidirect_mul(shifted, y, tau)))
                != (comb := sum(x * val for x, val in zip(a.rows[i], vals)))
            ]
            if bad:
                w, direct, comb = bad[0]
                report.homomorphism_failures += 1
                note(f"homomorphism failure for u = {word_str(u)}, "
                     f"v = {word_str(v)}: basis {i} at fresh word "
                     f"{word_str(w)}: direct value {direct}, combination {comb}")
                break
    return report


def _bump(rep, name, row, col, by):
    target = rep.action_rows[name][row]
    target[col] = target.get(col, 0) + by


class TestIntegerVerify:
    """verify_rep runs on integer action rows with a denominator; its
    report must be the one that Fraction action matrices give."""

    def test_corrupted_trivial_action(self):
        rep = build_rep(*trivial_setup())
        _bump(rep, "g0", 0, 0, 1)
        assert verify_rep(rep, max_len=2) == reference_verify(rep, max_len=2)

    def test_corrupted_unread_basis_function(self):
        rep = int_g_rep(G_RANK2, sample_len=3)
        _bump(rep, "phi0", rep.dimension - 1, 0, 1)
        report = verify_rep(rep, max_len=1, pairs=20)
        assert not report.ok
        assert report == reference_verify(rep, max_len=1, pairs=20)

    def test_corrupted_denominator_two_coefficient(self):
        # g1 has integral coefficients, so its denominator is the bump's 2.
        rep = build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2), sample_len=4)
        assert all(isinstance(x, int) for row in rep.action_rows["g1"]
                   for x in row.values())
        _bump(rep, "g1", 1, 0, Fraction(1, 2))
        report = verify_rep(rep, max_len=2, pairs=30)
        assert not report.ok
        assert report == reference_verify(rep, max_len=2, pairs=30)

    def test_identity_action_with_denominators(self):
        # g1 acting as g0^-1 makes g0 g1 act as the identity, as den * I
        # with den the product of the two letters' denominators.
        rep = build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2), sample_len=4)
        rep.action_rows["g1"] = rep.action_rows["g0^-1"]
        report = verify_rep(rep, max_len=2, pairs=30)
        assert report.identity_actions == 3  # ε, g0 g1 and g1^-1 g0^-1
        assert report.injectivity_failures == 2
        assert report == reference_verify(rep, max_len=2, pairs=30)

    @pytest.mark.parametrize("name", ["inner-rational", "trivial-rational",
                                      "inner-23"])
    def test_sound_reps(self, name):
        rep = BUILDS[name]()
        report = verify_rep(rep, max_len=2, pairs=8)
        assert report.ok
        assert report == reference_verify(rep, max_len=2, pairs=8)

    def test_public_views_read_the_action_rows(self):
        rep = build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2), sample_len=4)
        word = [("g", 0, 1), ("g", 1, -1), ("g", 0, 1)]
        action = rep.action_of_word(word)
        dense = {name: _dense(rows, 4) for name, rows in rep.action_rows.items()}
        assert action == dense["g0"] * dense["g1^-1"] * dense["g0"]
        element = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        assert rep.recover(action) == (element.phi_mat, element.g_mat)
