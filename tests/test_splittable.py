"""Splittable-coordinates engine: products, kernels, closure, verification."""

import hashlib
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnrep import packed, splittable
from hnnrep.errors import OracleError, VerificationError
from hnnrep.matrix import RingMatrix
from hnnrep.ring import MAX_DECIMAL_EXPONENT, QQ, _balanced_digits, _digit_width, _pack_digits
from hnnrep.splittable import (
    InnerTau,
    MatrixGroupGens,
    SplittableReport,
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

from helpers import DEGREE3_JSON_SHA256, letter_record

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


def action_of_word(rep, letters) -> RingMatrix:
    """The product of the letters' action matrices over QQ, read from
    action_rows at the time of the call."""
    d = rep.dimension
    return reduce(mul, (splittable._qq_matrix(splittable._dense_rows(
        rep.action_rows[letter_name(l)], d)) for l in letters),
        RingMatrix.identity(QQ, d))


def trivial_setup():
    return TRIVIAL_PHI, G_RANK2, TrivialTau(2)


class ReversedTau:
    """Corrupted black-box oracle: evaluates Phi-words in reversed letter order, so it
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
        with pytest.raises(OracleError, match=REVERSED.format("")):
            validate_tau(phi_gens, G_RANK2,
                         letter_record(phi_gens, G_RANK2, ReversedTau(G_RANK2), word_len=3))

    def test_wrong_inverse_on_one_word_fails(self):
        # tau(w)^-1 is wrong on one length-2 Phi-word only; the one-sided
        # inverse check names that word with its letter names.
        bad = ((0, 1), (1, 1))

        class WrongInverse:
            def __init__(self, g_gens):
                self.inner = InnerTau(g_gens)

            def tau_pair(self, phi_word):
                val, inv = self.inner.tau_pair(phi_word)
                return (val, val) if tuple(phi_word) == bad else (val, inv)

        with pytest.raises(OracleError, match="^tau inverse wrong on phi0 phi1$"):
            validate_tau(INNER_PHI, G_RANK2,
                         letter_record(INNER_PHI, G_RANK2, WrongInverse(G_RANK2), word_len=2))

    @pytest.mark.parametrize("gens", ["rank2", "rational"])
    def test_carried_pairs_are_the_word_pairs(self, gens):
        # Each element carries its Phi-word's pair as the product of its
        # letters' pairs: the pair InnerTau gives the whole Phi-word.
        g_gens = {"rank2": G_RANK2, "rational": G_RATIONAL}[gens]
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m)) for m, i in g_gens.pairs
        ))
        kernel = validate_tau(phi_gens, g_gens, InnerTau(g_gens))
        reference = InnerTau(g_gens)
        pairs = splittable._letter_pairs(phi_gens, g_gens)
        walked = chain([((), kernel.identity)],
                       reduced_walk(pairs, 4, kernel.identity, kernel.step))
        for n, (word, el) in enumerate(walked, 1):
            phi_word = tuple((i, s) for kind, i, s in word if kind == "phi")
            assert el.tau == tuple(map(splittable._kernel_matrix,
                                       reference.tau_pair(phi_word)))
        assert n == 1 + 8 + 56 + 392 + 2744

    @pytest.mark.parametrize("gens", ["rank2", "rational"])
    def test_sheared_empty_word_is_rejected(self, gens):
        # tau of the empty word is a shear: a record builds tau(w) from its
        # letters and so needs tau(empty) = (I, I), and the adapter says
        # so, at the depth validate_tau and build_rep walked.
        g_gens = {"rank2": G_RANK2, "rational": G_RATIONAL}[gens]
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m)) for m, i in g_gens.pairs
        ))
        empty = "^tau of the empty word ε is not the identity pair$"
        with pytest.raises(OracleError, match=empty):
            validate_tau(phi_gens, g_gens,
                         letter_record(phi_gens, g_gens, ShearedTau(g_gens), word_len=3))
        with pytest.raises(OracleError, match=empty):
            build_rep(phi_gens, g_gens,
                      letter_record(phi_gens, g_gens, ShearedTau(g_gens), word_len=1 + 2),
                      sample_len=1)

    @pytest.mark.parametrize("tau", ["inner", "trivial"])
    def test_letterwise_tau_is_checked_per_letter(self, tau):
        # A record is its letters' pairs: the check reads them and asks
        # tau_pair for no word at all.  A black-box oracle is walked by the
        # adapter, once per word to its depth.
        class Counting(InnerTau if tau == "inner" else TrivialTau):
            calls = Counter()

            def tau_pair(self, phi_word):
                self.calls[tuple(phi_word)] += 1
                return super().tau_pair(phi_word)

        oracle = Counting(G_RANK2 if tau == "inner" else 2)
        phi_gens = INNER_PHI if tau == "inner" else TRIVIAL_PHI
        kernel = validate_tau(phi_gens, G_RANK2, oracle)
        assert not oracle.calls
        assert len(kernel.tau_letters) == 2 * len(phi_gens.pairs)
        black_box = CountingTau(InnerTau(G_RANK2))
        record = letter_record(INNER_PHI, G_RANK2, black_box, word_len=3)
        assert len(black_box.calls) == 1 + 4 + 12 + 36
        assert max(black_box.calls.values()) == 1
        assert record.pairs == G_RANK2.pairs

    def test_trivial_tau_rejects_a_phi_letter(self):
        # TrivialTau has no pairs, and INNER_PHI has two generators.
        with pytest.raises(OracleError, match=f"^{RECORD_SHAPE}$"):
            validate_tau(INNER_PHI, G_RANK2, TrivialTau(2))

    def test_build_asks_tau_once_per_phi_word(self):
        # The adapter asks a black box once per word to the depth
        # sample_len + 2; build_rep and verify_rep, on the record it
        # returns, ask for no word.
        tau = CountingTau(InnerTau(G_RANK2))
        record = letter_record(INNER_PHI, G_RANK2, tau, word_len=3 + 2)
        asked = Counter(tau.calls)
        rep = build_rep(INNER_PHI, G_RANK2, record, sample_len=3)
        assert verify_rep(rep, max_len=2, pairs=20).ok
        assert tau.calls == asked and max(asked.values()) == 1

    def test_letterwise_builds_ask_words_of_length_at_most_one(self, monkeypatch):
        # The engine reads InnerTau's and TrivialTau's pairs and multiplies
        # them for every word, so it asks tau_pair for no word: in
        # int_g_rep, in verify_rep and in the trivial-tau build.
        asked = set()
        for cls in (InnerTau, TrivialTau):
            def counting(self, phi_word, _tau_pair=cls.tau_pair):
                asked.add(tuple(phi_word))
                return _tau_pair(self, phi_word)
            monkeypatch.setattr(cls, "tau_pair", counting)
        rep = int_g_rep(G_RANK2, sample_len=3)
        assert verify_rep(rep, max_len=3).ok
        assert asked == set()
        rep = build_rep(*trivial_setup(), sample_len=3)
        assert verify_rep(rep, max_len=3).ok
        assert asked == set()


INNER_PHI = MatrixGroupGens(4, tuple(
    (conjugation_matrix(m, i), conjugation_matrix(i, m)) for m, i in G_RANK2.pairs
))
# The adapter's message for ReversedTau: tau(phi0^k phi1) = g1 g0^k
# conjugates G unlike g0^k g1, and the depth-first walk meets the longest
# such word first.
REVERSED = r"^tau\(phi0 phi0{} phi1\) does not realize the letterwise action$"
DEEP = r"^tau\(phi0 phi0 phi0 phi0 phi1\) does not realize the letterwise action$"
# validate_tau's message for anything but a record of G_RANK2 with two pairs.
RECORD_SHAPE = ("tau must be a conjugator record of degree 2 with 2 pairs, "
                "one per Phi generator")


_SHEAR = RingMatrix.from_ints(QQ, ((1, 1), (0, 1)))
_SHEAR_INV = RingMatrix.from_ints(QQ, ((1, -1), (0, 1)))


class ShearedTau:
    """Black-box oracle: InnerTau times a shear on the right.  tau of the
    empty word is the shear, which is not the identity, so the adapter
    rejects it."""

    def __init__(self, g_gens):
        self.inner = InnerTau(g_gens)

    def tau_pair(self, phi_word):
        val, inv = self.inner.tau_pair(phi_word)
        return val * _SHEAR, _SHEAR_INV * inv


class TestKernelStep:
    @pytest.mark.parametrize("tau", [InnerTau])
    @pytest.mark.parametrize("gens", ["rank2", "rational"])
    def test_steps_match_the_reference_product(self, tau, gens):
        # The kernel's letter steps are the product's definition.
        g_gens = {"rank2": G_RANK2, "rational": G_RATIONAL}[gens]
        phi_gens = MatrixGroupGens(4, tuple(
            (conjugation_matrix(m, i), conjugation_matrix(i, m)) for m, i in g_gens.pairs
        ))
        tau = tau(g_gens)
        kernel = splittable._Kernel(phi_gens, g_gens, tau)
        letters = [l for pair in splittable._letter_pairs(phi_gens, g_gens) for l in pair]
        rng = random.Random(3)
        for length in (0, 1, 2, 5):
            word = _random_reduced_word(rng, letters, length)
            el = kernel.eval_word(word)
            assert el.word == word
            assert kernel.public(el) == eval_word(word, phi_gens, g_gens, tau)


class CountingTau:
    """Passes tau_pair through and counts the calls per Phi-word."""

    def __init__(self, tau):
        self.tau = tau
        self.calls = Counter()

    def tau_pair(self, phi_word):
        self.calls[tuple(phi_word)] += 1
        return self.tau.tau_pair(phi_word)


class TestTauRecord:
    """A conjugator record: `degree` G's degree and `pairs` one (tau(l),
    tau(l)^-1) per Phi generator."""

    @pytest.mark.parametrize("record", [
        MatrixGroupGens(3, ()),
        MatrixGroupGens(2, G_RANK2.pairs[:1]),
        InnerTau(MatrixGroupGens(2, G_RANK2.pairs[:1] * 3)),
        TrivialTau(3),
        SimpleNamespace(degree=2),
        SimpleNamespace(pairs=G_RANK2.pairs),
        CountingTau(InnerTau(G_RANK2)),
    ], ids=["degree 3", "one pair", "three pairs", "trivial of degree 3",
            "no pairs", "no degree", "black box"])
    def test_anything_but_a_record_of_the_right_shape_is_refused(self, record):
        # INNER_PHI has two generators and G_RANK2 degree 2.
        with pytest.raises(OracleError, match=f"^{RECORD_SHAPE}$"):
            validate_tau(INNER_PHI, G_RANK2, record)
        with pytest.raises(OracleError, match=f"^{RECORD_SHAPE}$"):
            build_rep(INNER_PHI, G_RANK2, record, sample_len=1)
        assert not getattr(record, "calls", None)

    def test_pair_that_is_not_inverse_names_its_generator(self):
        (a, a_inv), (b, b_inv) = G_RANK2.pairs
        for bad, name in (((a, a), (b, b_inv)), "phi0"), (((a, a_inv), (b, a_inv)), "phi1"):
            record = SimpleNamespace(degree=2, pairs=bad)
            with pytest.raises(OracleError, match=f"^tau inverse wrong on {name}$"):
                validate_tau(INNER_PHI, G_RANK2, record)

    def test_generators_are_their_own_record(self):
        # Int(G).G's tau is G's pairs: G itself as the record builds the
        # document InnerTau builds.
        by_gens = build_rep(INNER_PHI, G_RANK2, G_RANK2, 3)
        by_inner = int_g_rep(G_RANK2, 3)
        assert (json.dumps(by_gens.to_json(), sort_keys=True)
                == json.dumps(by_inner.to_json(), sort_keys=True))
        assert verify_rep(by_gens, max_len=2, pairs=20).ok

    def test_builds_never_ask_the_word_level_view(self, monkeypatch):
        # tau_pair serves the Fraction reference API only: with it raising,
        # the trivial, Int(G).G and explicit-Phi builds still build and
        # verify.
        def refuse(self, phi_word):
            raise AssertionError(f"tau_pair asked for {phi_word}")

        for cls in (InnerTau, TrivialTau):
            monkeypatch.setattr(cls, "tau_pair", refuse)
        for rep in (build_rep(*trivial_setup(), sample_len=3),
                    int_g_rep(G_RANK2, sample_len=3),
                    build_rep(G_RANK2, G_RANK2, InnerTau(G_RANK2), sample_len=3)):
            assert verify_rep(rep, max_len=2, pairs=20).ok


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
        action = action_of_word(rep, word)
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
        with pytest.raises(VerificationError, match=REVERSED.format(" phi0")):
            build_rep(phi_gens, G_RANK2,
                      letter_record(phi_gens, G_RANK2, ReversedTau(G_RANK2), word_len=2 + 2),
                      sample_len=2)

    def test_deeply_corrupted_tau_detected(self):
        # Coherent on short words, reversed beyond: the adapter samples the
        # black box to sample_len + 2, the length of the longest fresh word.
        class DeepCorrupt:
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
        with pytest.raises(OracleError, match=DEEP):
            build_rep(phi_gens, G_RANK2,
                      letter_record(phi_gens, G_RANK2, DeepCorrupt(G_RANK2), word_len=3 + 2),
                      sample_len=3)


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

    @pytest.mark.parametrize("name", ["inner-rational", "trivial-rational",
                                      "inner-23", "trivial-group"])
    def test_written_from_the_engine_data(self, name):
        # to_json reads the action rows and the kernel shifts; its document
        # is the one the Fraction views give, and it builds neither view.
        rep = BUILDS[name]()
        verify_rep(rep, max_len=1, pairs=2)
        doc = rep.to_json()
        assert "actions" not in vars(rep) and "basis" not in vars(rep)
        assert doc["actions"] == {
            name: mat.to_json() for name, mat in rep.actions.items()
        }
        assert doc["basis"] == [
            {"coordId": coord_name(b.coord), "shiftWord": b.shift.word_str()}
            for b in rep.basis
        ]


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


def one_by_one_gens(matrix, inverse):
    """The text of a --g document with one 1 x 1 generator pair."""
    return ('{"degree": 1, "generators": [{"matrix": [[%s]], "inverse": [[%s]]}]}'
            % (matrix, inverse))


def read_pair(document, matrix, inverse):
    """The entries a 1 x 1 pair's JSON texts read to, through a --g
    document ("gens") or through two rational matrix documents ("matrix").
    A JSON number is read as its text (json.loads with parse_float=str),
    as the CLI reads it."""
    if document == "gens":
        doc = json.loads(one_by_one_gens(matrix, inverse), parse_float=str)
        return tuple(m.rows[0][0] for m in MatrixGroupGens.from_json(doc).pairs[0])
    return tuple(RingMatrix.from_json(json.loads(
        '{"degree": 1, "ring": {"kind": "rational"}, "rows": [[%s]]}' % entry,
        parse_float=str)).rows[0][0] for entry in (matrix, inverse))


class TestExactEntries:
    """--g entries and rational matrix documents share one reader,
    QQ.scalar_from_json: JSON ints, and integer, fraction and decimal text."""

    @pytest.mark.parametrize("document", ["gens", "matrix"])
    @pytest.mark.parametrize("entry, inverse, value", [
        ("3", '"1/3"', Fraction(3)),
        ('"-3"', '"-1/3"', Fraction(-3)),
        ('"1/2"', "2", Fraction(1, 2)),
        ('"0.25"', "4", Fraction(1, 4)),
        ('"2.5e0"', '"0.4"', Fraction(5, 2)),
        ('"1E+10_000"', '"1e-10000"', Fraction(10**10000)),
        ('"1e-10000"', '"1E+10_000"', Fraction(1, 10**10000)),
    ], ids=["int", "int-text", "fraction", "decimal", "exponent", "exponent-bound",
            "negative-exponent-bound"])
    def test_valid_entries_read_to_their_exact_values(self, document, entry, inverse,
                                                      value):
        mat, inv = read_pair(document, entry, inverse)
        assert type(mat) is Fraction and type(inv) is Fraction
        assert (mat.numerator, mat.denominator) == (value.numerator, value.denominator)
        assert mat * inv == 1

    @pytest.mark.parametrize("entry", [0.5, Fraction(1, 2), True, None, [1]],
                             ids=["float", "Fraction", "bool", "null", "list"])
    def test_only_json_ints_and_strings_are_entries(self, entry):
        # The readers take JSON values: a Python float or Fraction is refused
        # like any other type (the CLI reads a JSON decimal as its text).
        with pytest.raises(ValueError, match="rational entry must be an integer"):
            MatrixGroupGens.from_json(
                {"degree": 1, "generators": [{"matrix": [[entry]], "inverse": [[2]]}]})
        with pytest.raises(ValueError, match="rational entry must be an integer"):
            RingMatrix.from_json(
                {"degree": 1, "ring": {"kind": "rational"}, "rows": [[entry]]})


class TestDecimalExponents:
    """Entries are read as exact rationals, so a decimal exponent past
    MAX_DECIMAL_EXPONENT is refused before its value is built.  The CLI
    reads a JSON number as its text (json.load with parse_float=str), so
    both forms reach the reader as text.  The entries are read through a
    --g document here, and through rational matrix documents in the
    subclass below."""

    document = "gens"

    @pytest.mark.parametrize("entry", ["1e2000000", '"1e2000000"', '"1E+2_000_000"',
                                       '"-1e-2000000"', "1e10001", '"1e00010001"'],
                             ids=["number", "string", "underscores", "negative",
                                  "number-past-bound", "string-past-bound"])
    def test_exponent_past_the_bound_rejected(self, entry):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="has a decimal exponent past 10000$"):
            read_pair(self.document, entry, 1)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("matrix, inverse", [
        ("1e10000", "1e-10000"), ('"1E+10_000"', '"1e-0010000"'), ("2.5e0", '"0.4"'),
    ])
    def test_exponent_at_the_bound_read_exactly(self, matrix, inverse):
        mat, inv = read_pair(self.document, matrix, inverse)
        assert mat * inv == 1
        assert mat in (10**10000, Fraction(5, 2))
        assert MAX_DECIMAL_EXPONENT == 10_000


class TestDecimalExponentsInMatrixDocuments(TestDecimalExponents):
    document = "matrix"


class TestRationalGenerators:
    def test_inner_tau(self):
        rep = int_g_rep(G_RATIONAL, sample_len=3)
        assert rep.dimension == 26
        assert verify_rep(rep, max_len=2, pairs=20).ok
        word = [("phi", 1, -1), ("g", 0, 1), ("g", 1, 1)]
        element = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        assert rep.recover(action_of_word(rep, word)) == (
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
                span.add(residual, combo, scale)
                basis.append(vec)
            else:
                assert not any(residual)
                expansion = [Fraction(combo.get(k, 0), scale)
                             for k in range(len(basis))]
                assert expansion == reference


def span_sequence(vectors, check=None):
    """Reduce the vectors in order into one _Span, adding those outside the
    span, with TestFractionFreeSpan's assertions; check(span) runs after
    every add."""
    span, basis = _Span(), []
    for vec in vectors:
        residual, combo, scale = span.reduce(vec)
        assert scale > 0
        for i, f in enumerate(vec):
            assert residual[i] == scale * f - sum(c * basis[k][i] for k, c in combo.items())
        reference = reference_expansion(basis, vec)
        if reference is None:
            assert any(residual)
            span.add(residual, combo, scale)
            basis.append(vec)
            if check:
                check(span)
        else:
            assert not any(residual)
            assert [Fraction(combo.get(k, 0), scale) for k in range(len(basis))] == reference
    return span


def gauss_jordan_form(span):
    for i, (row, piv) in enumerate(zip(span.rows, span.pivots)):
        assert row[piv] > 0
        assert all(not row[p] for j, p in enumerate(span.pivots) if j != i)
        assert span._packs[i] == _pack_digits(row, span.width)


_BIG = 2**200


class TestPackedSpan:
    """The packed Gauss-Jordan form of _Span, on fixed vectors, so that a
    broken digit bound fails at once."""

    def test_gauss_jordan_after_every_add(self):
        rng = random.Random(7)
        for length in (1, 3, 6):
            vectors = []
            for _ in range(10):
                if vectors and rng.random() < 0.4:
                    coeffs = [rng.randint(-3, 3) for _ in vectors]
                    vectors.append([sum(c * v[i] for c, v in zip(coeffs, vectors))
                                    for i in range(length)])
                else:
                    vectors.append([rng.choice([0, 0, 1, -2, 5, Fraction(3, 4)])
                                    for _ in range(length)])
            span_sequence(vectors, gauss_jordan_form)

    @pytest.mark.parametrize("vectors", [
        # The vector's own entry past the rows': L |v| bounds the residual.
        [[1, 0], [1, _BIG], [3, 2 * _BIG]],
        # A row's entry past the vector's: the rows' norms bound it.
        [[1, _BIG], [1, 0], [2, _BIG]],
        # A row's combination past its values: a Fraction input makes the
        # scale 2^200, and the row norm must count the combination.
        [[Fraction(1, _BIG), 0], [1, 0], [0, 1], [5, 7]],
        # The same at the edge of a one-byte digit.
        [[1, 0], [1, 128], [Fraction(1, 128), 1], [1, 1]],
        # Entries growing past each width in turn.
        [[1, 0, 0], [0, 1, 2], [1, 1, 2], [3, _BIG, 2 * _BIG],
         [Fraction(1, 3), _BIG**2, 1], [1, 2, 3]],
    ])
    def test_wide_entries_repack(self, monkeypatch, vectors):
        widths = []
        repack = _Span._repack

        def recording_repack(span, width):
            widths.append(width)
            repack(span, width)

        monkeypatch.setattr(_Span, "_repack", recording_repack)
        span_sequence(vectors, gauss_jordan_form)
        assert widths and widths == sorted(widths)
        largest = max(abs(Fraction(x).numerator) for vec in vectors for x in vec)
        assert widths[-1] >= _digit_width(largest)


class TestSeededSpan:
    """A _Span whose first rows were inserted with no basis index (the
    walk's path) decides later vectors modulo them; those rows carry no
    basis index."""

    RELATIONS = [[2, 1, 0, 1, 0], [1, 0, 1, 0, 3], [3, 1, 1, 1, 3]]  # r2 = r0 + r1
    VECTORS = [
        [1, 0, 0, 0, 0],  # nonzero at relation row 0's pivot
        [0, 1, 0, 0, 0],
        [Fraction(1, 2), 3, 0, 3, 0],  # 3 r0 - 11/2 b0
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],  # r1 - b0 - 3 b2
        [7, -1, 2, 5, 6],
    ]

    def test_relations_reduce_and_leave_no_index(self):
        span = _Span()
        assert [span.insert(r) for r in self.RELATIONS] == [True, True, False]
        gauss_jordan_form(span)
        assert len(span.rows) == 2 and span.adds == 0
        relations = self.RELATIONS[:2]
        assert self.VECTORS[0][span.pivots[0]]
        basis, in_span = [], []
        for vec in self.VECTORS:
            residual, combo, scale = span.reduce(vec)
            assert scale > 0 and set(combo) <= set(range(len(basis)))
            assert not any(residual[p] for p in span.pivots)
            rest = [scale * f - sum(c * basis[k][i] for k, c in combo.items()) - residual[i]
                    for i, f in enumerate(vec)]
            assert reference_expansion(relations, rest) is not None
            reference = reference_expansion(basis + relations, vec)
            if reference is None:
                assert any(residual)
                span.add(residual, combo, scale)
                basis.append(vec)
                gauss_jordan_form(span)
            else:
                assert not any(residual)
                in_span.append(len(basis))
                assert [Fraction(combo.get(k, 0), scale)
                        for k in range(len(basis))] == reference[:len(basis)]
        assert span.adds == len(basis) == 3
        assert len(span.rows) == 2 + len(basis) and in_span == [2, 3, 3]

    @pytest.mark.parametrize("name", ["inner-22", "trivial-22"])
    def test_build_reads_basis_indices_only(self, name):
        rep = BUILDS[name]()
        d = rep.dimension
        rows = [*rep.expansions.values(), *chain(*rep.action_rows.values())]
        assert rows and all(set(row) <= set(range(d)) for row in rows)


class TestIntegerMap:
    """ring-format packs go through maps compiled by packed._integer_map;
    they must give the generic comprehension's values."""

    @staticmethod
    def generic(rows, v):
        return [sum(map(mul, row.values(), map(v.__getitem__, row))) for row in rows]

    def test_matches_the_comprehension(self):
        rng = random.Random(11)
        big = [2**200, 10**12 + 7, 3 * 2**64 + 1]
        for width in (1, 7, 40):
            rows = [{} for _ in range(3)]  # empty rows
            for _ in range(30):
                rows.append({j: rng.choice([1, -1, 1, *big, *(-c for c in big)])
                             for j in rng.sample(range(width), rng.randint(1, width))})
            rng.shuffle(rows)
            v = [rng.choice([0, 1, -1, rng.getrandbits(300) - 2**299]) for _ in range(width)]
            assert packed._integer_map(rows)(v) == self.generic(rows, v)
            source, namespace = packed._map_source(rows)
            assert set(namespace.values()) <= set(big)
            for c in big:
                assert str(c) not in source

    def test_long_row(self):
        # One + chain of 5,000 terms would exceed CPython's compiler
        # recursion; the map groups its terms.
        rng = random.Random(12)
        rows = [{j: rng.choice([1, -1, 2**200, -(10**12)]) for j in range(5000)}, {}]
        v = [rng.getrandbits(64) - 2**63 for _ in range(5000)]
        assert packed._integer_map(rows)(v) == self.generic(rows, v)
        assert "1000000000000" not in packed._map_source(rows)[0]


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


class TestRandomWords:
    def test_draws_are_pinned(self, monkeypatch):
        # Every random word the fresh-sample check and verify_rep draw for
        # Int(G).G of G_RANK2, in order, recorded from the draws made with
        # letters[rng.randrange(len(letters))]: rng.choice(letters) draws
        # the same _randbelow(len(letters)).
        draws = []
        real = splittable._random_reduced_word

        def recording(rng, letters, length):
            word = real(rng, letters, length)
            draws.append(word_str(word))
            return word

        monkeypatch.setattr(splittable, "_random_reduced_word", recording)
        rep = int_g_rep(G_RANK2, sample_len=3)
        assert len(draws) == 80
        assert draws[:2] == ["phi1 phi0^-1 g1 phi0", "phi1 phi0 phi1 phi0"]
        verify_rep(rep, max_len=3)
        assert len(draws) == 80 + 20 + 200
        assert draws[80:82] == ["g1 g1 phi0 g0 g1^-1", "g1 g0 g1^-1 g0^-1 phi1^-1"]
        assert hashlib.sha256("\n".join(draws).encode()).hexdigest() == (
            "4230953abf01d5efca33dbb5b6f12af087a7fc15b4738adcc883d98524b21bb2")


class TestWellDefinedness:
    def test_identity_pair_with_a_non_identity_action(self):
        # Phi trivial as two 1 x 1 identities, but InnerTau conjugating by
        # the G generators: the word phi0 is the identity pair and does not
        # act as the identity, so the action is no function of the pair.
        phi_gens = MatrixGroupGens.from_int_rows(1, [(((1,),), ((1,),))] * 2)
        rep = build_rep(phi_gens, G_RANK2, InnerTau(G_RANK2), sample_len=3)
        report = verify_rep(rep, max_len=2, pairs=20)
        assert not report.ok
        assert report.well_definedness_failures == 4 + 12  # the Phi-words
        assert not (report.injectivity_failures or report.recovery_failures
                    or report.homomorphism_failures)
        assert report.witness == "identity pair at word phi0 acts as a non-identity matrix"
        assert report == reference_verify(rep, max_len=2, pairs=20)
        assert verify_rep(rep, max_len=3).well_definedness_failures == 60


# --- Null-basis build and integer verification ------------------------------


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


def fraction_rank(rows):
    """Reference: the rank of the rows, by Fraction Gauss-Jordan
    elimination."""
    picked = []
    for row in rows:
        if reference_expansion(picked, row) is None:
            picked.append(row)
    return len(picked)


def sample_walk(sample_len):
    """A stand-in for _krylov_walk that returns the kernel rows of every
    reduced word of length at most sample_len, the sample the build read
    before the walk, as K's rows, and their number: the build then decides
    spans on the candidates' values over the whole sample."""

    def walk(kernel, letters, width):
        pairs = list(zip(letters[::2], letters[1::2]))
        words = reduced_walk(pairs, sample_len, kernel.identity, kernel.step)
        rows = [splittable._kernel_row(kernel, el)
                for el in chain([kernel.identity], (el for _, el in words))]
        return rows, len(rows)

    return walk


def whole_sample(monkeypatch, sample_len):
    """Make build_rep decide its spans on value vectors over the whole
    sample of words of length at most sample_len."""
    monkeypatch.setattr(splittable, "_krylov_walk", sample_walk(sample_len))


def recorded_walks(monkeypatch):
    """A list that gets (K's rows, rows read) of every _krylov_walk call."""
    walks = []
    real = splittable._krylov_walk

    def recording(kernel, letters, width):
        walks.append(real(kernel, letters, width))
        return walks[-1]

    monkeypatch.setattr(splittable, "_krylov_walk", recording)
    return walks


def walk_span(rows):
    """A _Span of the rows, each of which must be new: K's rows are
    independent."""
    span = _Span()
    assert all(span.insert(row) for row in rows)
    return span


class TestRowBasis:
    """The kernel rows reach the build only through the Gauss-Jordan rows
    of K, the least letter-stable span of the rows, which the Krylov walk
    finds row by row in one _Span (its no-index path); the build decides
    each candidate by its values on those rows."""

    @pytest.mark.parametrize("kind", sorted(_ENTRIES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, kind, data):
        # Row by row: insert says whether the row is new, the kept rows
        # have the rank of the rows so far, and every row so far reduces
        # to zero modulo them.
        rows = data.draw(vector_sequences(kind))
        span = _Span()
        for k, row in enumerate(rows):
            new = span.insert(row)
            assert new == (reference_expansion(rows[:k], row) is None)
            assert all(all(isinstance(x, int) for x in r) for r in span.rows)
            assert fraction_rank(span.rows) == len(span.rows) == fraction_rank(rows[:k + 1])
            assert all(not any(span.reduce(r)[0]) for r in rows[:k + 1])

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_same_rep_as_the_full_sample(self, monkeypatch, name):
        # The walk's exact relations give the representation that value
        # vectors over every word to the build's sample length give.
        rep = BUILDS[name]()
        whole_sample(monkeypatch, rep.sample_len)
        full = BUILDS[name]()
        assert rep_data(rep) == rep_data(full)
        assert rep.to_json() == full.to_json()

    def test_degree3_needs_no_sample_length(self, monkeypatch):
        # Value vectors over the words to length 2 merge functions that
        # differ, and the fresh sample rejects that closure; the walk's
        # relations are exact at any sample length, so sample_len = 2
        # builds the document that the whole sample of 1,597 words to
        # length 3 gives (DEGREE3_JSON_SHA256).  The walk reads 1 + 12 + 75
        # * 11 rows over the 12 letters.
        walks = recorded_walks(monkeypatch)
        short = int_g_rep(G_DEGREE3, sample_len=2)
        assert short.dimension == 58 and (short.walk_rank, short.walk_rows) == (76, 838)
        assert [len(rows) for rows, _ in walks] == [76]
        assert json.dumps(short.to_json()) == json.dumps(
            int_g_rep(G_DEGREE3, sample_len=3).to_json())
        assert hashlib.sha256(json.dumps(short.to_json(), sort_keys=True).encode()
                              ).hexdigest() == DEGREE3_JSON_SHA256
        assert verify_rep(short, max_len=2, pairs=20).ok
        whole_sample(monkeypatch, 2)
        with pytest.raises(VerificationError) as full:
            int_g_rep(G_DEGREE3, sample_len=2)
        assert str(full.value) == (
            "fresh-sample check failed for coordinate Phi(1,8) at fresh word "
            "phi0^-1 phi1 phi0 phi2^-1: direct value -48, combination 0")

    @pytest.mark.parametrize("name, rank, rows, fresh, nullity", [
        ("inner-22", 26, 184, 80, 6), ("trivial-22", 4, 14, 78, 12),
    ])
    def test_walk_null_spaces(self, monkeypatch, name, rank, rows, fresh, nullity):
        # The walk's (rank, rows read), its rank K rows and the null space
        # K^perp they leave: 1 + 8 + 25 * 7 rows for Int(G).G over 8
        # letters, 1 + 4 + 3 * 3 for trivial tau over 4; the fresh-sample
        # check packs every fresh point.
        walks, packed = recorded_walks(monkeypatch), []

        class RecordingPoints(splittable._PackedPoints):
            def __init__(self, words, rows, m, shifts):
                packed.append((len(words), len(rows)))
                super().__init__(words, rows, m, shifts)

        monkeypatch.setattr(splittable, "_PackedPoints", RecordingPoints)
        rep = BUILDS[name]()
        assert (rep.walk_rank, rep.walk_rows) == (rank, rows)
        ((k_rows, walked),) = walks
        assert walked == rows and len(k_rows) == rank
        assert rank + nullity == rep.m_degree**2 + rep.n_degree**4
        assert packed == [(fresh, fresh)]

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_dimension_bound_holds_by_construction(self, monkeypatch, name):
        # The basis functions' values on K's rows are independent in
        # Q^(rank K), so build_rep's DimensionBoundError check cannot fire.
        walks = recorded_walks(monkeypatch)
        rep = BUILDS[name]()
        ((k_rows, _),) = walks
        width = rep.m_degree**2 + rep.n_degree**4
        assert len(k_rows) == rep.walk_rank
        assert all(len(row) == width for row in k_rows)
        assert rep.dimension <= rep.walk_rank <= width

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_build_reduces_vectors_of_width_rank_k(self, monkeypatch, name):
        # The walk's span reduces kernel rows, m^2 + n^4 wide; the build's
        # span, made after it, reduces each candidate's values on K's rows.
        spans = []

        class RecordingSpan(_Span):
            def __init__(self):
                super().__init__()
                self.widths = []
                spans.append(self)

            def reduce(self, vec):
                self.widths.append(len(vec))
                return super().reduce(vec)

        monkeypatch.setattr(splittable, "_Span", RecordingSpan)
        rep = BUILDS[name]()
        build = spans[-1]
        assert build.widths and set(build.widths) == {rep.walk_rank}
        assert len(spans) == 2
        width = rep.m_degree**2 + rep.n_degree**4
        assert set(spans[0].widths) == {width}

    @pytest.mark.parametrize("name", ["inner-23", "trivial-32", "inner-rational",
                                      "inner-cyclic"])
    def test_walk_spans_the_rows_of_every_word(self, monkeypatch, name):
        # K is letter-stable: every kernel row of the words to length 4
        # reduces to zero modulo the walk's rows.
        walks = recorded_walks(monkeypatch)
        rep = BUILDS[name]()
        ((k_rows, _),) = walks
        span = walk_span(k_rows)
        kernel = rep._kernel
        pairs = list(zip(rep.letters[::2], rep.letters[1::2]))
        for _, el in reduced_walk(pairs, 4, kernel.identity, kernel.step):
            residual, _, _ = span.reduce(splittable._kernel_row(kernel, el))
            assert not any(residual)


def _dense(rows, d):
    return RingMatrix(QQ, tuple(
        tuple(Fraction(row.get(j, 0)) for j in range(d)) for row in rows
    ))


def fresh_point(y, tau):
    """The point y with the factors of the G coordinates of s y
    (coordinate_at): tau(y)^-1 and tau(y) y.g."""
    t_val, t_inv = tau.tau_pair(y.phi_word)
    return y, t_inv, t_val * y.g_mat


def coordinate_at(coord, s, point):
    """coordinate_value(coord, semidirect_mul(s, y, tau)) from the product's
    definition, for point = fresh_point(y, tau): a Phi coordinate (i, j) is
    row i of s.phi against column j of y.phi, and a G coordinate (p, q) is
    row p of tau(y)^-1 s.g against column q of tau(y) y.g."""
    kind, i, j = coord
    y, t_inv, right = point
    if kind == "phi":
        return sum(x * row[j] for x, row in zip(s.phi_mat.rows[i], y.phi_mat.rows))
    left = [sum(map(mul, t_inv.rows[i], col)) for col in zip(*s.g_mat.rows)]
    return sum(x * row[j] for x, row in zip(left, right.rows))


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
    walk = reduced_walk(pairs_of_letters, max_len, ident, lambda a, l: a * actions[l])
    identity = element(())
    for word, a in chain([((), ident)], walk):
        el = element(word)
        report.words_checked += 1
        y = [sum(x * v for x, v in zip(row, idv) if x) for row in a.rows]
        for coord in coords:
            read = sum(c * y[i] for i, c in rep.expansions[coord].items())
            if read != coordinate_value(coord, el):
                report.recovery_failures += 1
                note(f"recovery failure at word {word_str(word)}: "
                     f"{coord_name(coord)} reads {read}, the element has "
                     f"{coordinate_value(coord, el)}")
                break
        identity_pair = (el.phi_mat, el.g_mat) == (identity.phi_mat, identity.g_mat)
        if a == ident:
            report.identity_actions += 1
            if not identity_pair:
                report.injectivity_failures += 1
                note(f"identity action at word {word_str(word)}")
        elif identity_pair:
            report.well_definedness_failures += 1
            note(f"identity pair at word {word_str(word)} acts as a non-identity matrix")

    rng = random.Random(seed)
    fresh = [_random_reduced_word(rng, letters, max_len + 2) for _ in range(20)]
    points = [fresh_point(element(w), tau) for w in fresh]
    # The basis functions' values at each point.
    point_vals = [[coordinate_at(b.coord, b.shift, y) for b in rep.basis]
                  for y in points]
    for _ in range(pairs):
        u = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        v = _random_reduced_word(rng, letters, rng.randrange(1, max_len + 1))
        el, a = element(u + v), action(u) * action(v)
        report.pairs_checked += 1
        for i, b in enumerate(rep.basis):
            shifted = semidirect_mul(b.shift, el, tau)
            row = [(j, x) for j, x in enumerate(a.rows[i]) if x]
            bad = [
                (w, direct, comb) for w, y, vals in zip(fresh, points, point_vals)
                if (direct := coordinate_at(b.coord, shifted, y))
                != (comb := sum((x * vals[j] for j, x in row), Fraction(0)))
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

    @pytest.mark.parametrize("bumped", [False, True])
    def test_rational_inner(self, bumped):
        # Kernel rows, shifts and basis values with denominators: the packed
        # check scales each to integers and the witness divides back.  With
        # seed 3 the first failing fresh point's kernel row has denominator
        # 2, and the combination there is not an integer.
        rep = int_g_rep(G_RATIONAL, sample_len=3)
        if bumped:
            _bump(rep, "phi0", rep.dimension - 1, 0, 1)
        report = verify_rep(rep, max_len=1, pairs=20, seed=3)
        assert report.ok is not bumped
        if bumped:
            assert re.match(r"homomorphism failure .* combination -?\d+/2$",
                            report.witness), report.witness
        assert report == reference_verify(rep, max_len=1, pairs=20, seed=3)

    @pytest.mark.parametrize("bumped", [False, True])
    def test_large_entries(self, monkeypatch, bumped):
        # Entries of about 2^80 grow past the slot width of the first
        # check, so a later call's bound repacks wider.
        widths = []
        repack = splittable._PackedPoints._repack

        def recording_repack(points, width):
            widths.append(width)
            repack(points, width)

        monkeypatch.setattr(splittable._PackedPoints, "_repack", recording_repack)
        rep = int_g_rep(sl2_pair(2**80, 3), sample_len=3)
        if bumped:
            _bump(rep, "g1", rep.dimension - 1, 0, 1)
        widths.clear()
        report = verify_rep(rep, max_len=1, pairs=20)
        assert len(widths) > 1 and widths == sorted(widths)
        assert report.ok is not bumped
        if bumped:
            assert report.witness.startswith("homomorphism failure")
        assert report == reference_verify(rep, max_len=1, pairs=20)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_packed_slots(self, data):
        # Two signed vectors with a common prefix, packed as ring.py's
        # balanced digits at the width of their bound: the packs compare as
        # the vectors do, the lowest nonzero digit of the difference is the
        # first differing index, and every digit reads back its entry.
        entry = st.one_of(st.integers(-3, 3), st.integers(-2**100, 2**100))
        a = data.draw(st.lists(entry, min_size=1, max_size=12))
        k = data.draw(st.integers(0, len(a)))
        b = a[:k] + data.draw(st.lists(entry, min_size=len(a) - k,
                                       max_size=len(a) - k))
        width = _digit_width(max(abs(x) for x in a + b))
        pa, pb = _pack_digits(a, width), _pack_digits(b, width)
        assert _balanced_digits(pa, width, len(a)) == a
        assert _balanced_digits(pb, width, len(b)) == b
        assert (pa == pb) == (a == b)
        if a != b:
            first = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            diff = _balanced_digits(pa - pb, width, len(a))
            assert next(i for i, x in enumerate(diff) if x) == first
            assert diff == [x - y for x, y in zip(a, b)]

    def test_public_views_read_the_action_rows(self):
        rep = build_rep(TRIVIAL_PHI, G_RATIONAL, TrivialTau(2), sample_len=4)
        word = [("g", 0, 1), ("g", 1, -1), ("g", 0, 1)]
        action = action_of_word(rep, word)
        dense = {name: _dense(rows, 4) for name, rows in rep.action_rows.items()}
        assert action == dense["g0"] * dense["g1^-1"] * dense["g0"]
        element = eval_word(word, rep.phi_gens, rep.g_gens, rep.tau)
        assert rep.recover(action) == (element.phi_mat, element.g_mat)


class TestPackedVerify:
    """The column-pack walk and the packed homomorphism pairs of verify_rep
    give the report of Fraction action matrices (reference_verify)."""

    @pytest.mark.parametrize("name, max_len, pairs", [
        *((f"inner-{a}{b}", 3, 100) for a in (2, 3) for b in (2, 3)),
        *((f"trivial-{a}{b}", 4, 100) for a in (2, 3) for b in (2, 3)),
    ])
    def test_benchmark_pairs(self, name, max_len, pairs):
        rep = BUILDS[name]()
        report = verify_rep(rep, max_len=max_len, pairs=pairs)
        assert report.ok and report.identity_actions == 1
        assert report == reference_verify(rep, max_len=max_len, pairs=pairs)

    @pytest.mark.parametrize("gens", ["rank2", "rational"])
    @pytest.mark.parametrize("kind", ["phi", "g"])
    def test_corrupted_basis_row(self, gens, kind):
        # Row i of g1's action, for the last basis function of a Phi or a G
        # coordinate: the pairs transform that function's column block.
        rep = int_g_rep({"rank2": G_RANK2, "rational": G_RATIONAL}[gens],
                        sample_len=3)
        i = max(i for i, b in enumerate(rep.basis) if b.coord[0] == kind)
        _bump(rep, "g1", i, 0, 1)
        report = verify_rep(rep, max_len=1, pairs=20)
        assert report.homomorphism_failures
        assert report == reference_verify(rep, max_len=1, pairs=20)

    def test_large_entries_to_length_three(self):
        rep = int_g_rep(sl2_pair(2**80, 3), sample_len=3)
        report = verify_rep(rep, max_len=3)
        assert report.ok and report.words_checked == 457
        assert report == reference_verify(rep, max_len=3)

    @pytest.mark.parametrize("name", ["inner-23", "inner-rational", "trivial-32"])
    def test_entrywise_coordinates(self, name):
        # reference_verify's pairs read coord(s y) through coordinate_at;
        # it must agree with the Fraction product semidirect_mul.
        rep = BUILDS[name]()
        m, n = rep.m_degree, rep.n_degree
        coords = [("phi", i, j) for i in range(m) for j in range(m)]
        coords += [("g", p, q) for p in range(n) for q in range(n)]
        rng = random.Random(5)
        for _ in range(4):
            s, y = (eval_word(_random_reduced_word(rng, rep.letters, 4),
                              rep.phi_gens, rep.g_gens, rep.tau) for _ in range(2))
            product = semidirect_mul(s, y, rep.tau)
            for coord in coords:
                assert coordinate_at(coord, s, fresh_point(y, rep.tau)) == \
                    coordinate_value(coord, product)

    def test_walk_digits_at_the_bound(self):
        # g0 acting as c I with c = 2^80 makes den * A(g0 g0 g0) = c^3 I, so
        # recovery digits of c^3 = 2^240 against the walk's bound
        # c^3 * |idv|_1 = 2^241: a width one byte narrower than the bound's
        # cannot hold them.
        rep = build_rep(*trivial_setup())
        assert splittable._Recovery(rep).identity_values == [1, 0, 0, 1]
        rep.action_rows["g0"] = tuple({i: 2**80} for i in range(rep.dimension))
        report = verify_rep(rep, max_len=3, pairs=20)
        assert report.recovery_failures
        assert report == reference_verify(rep, max_len=3, pairs=20)


# --- Packed fresh points against the per-point reference --------------------


def reference_fresh_points(rep, words):
    """_fresh_points(rep, words) as a per-point loop over the Fraction
    reference API: check(coord, shift, combo, den), for a public shift
    element, names the first word where coord(shift * y) differs from
    sum_j combo[j] / den * b_j(y)."""
    tau = rep.tau
    points = [(w, eval_word(w, rep.phi_gens, rep.g_gens, tau)) for w in words]
    values = {}

    def basis_value(j, k):
        if (j, k) not in values:
            b = rep.basis[j]
            values[j, k] = coordinate_value(
                b.coord, semidirect_mul(b.shift, points[k][1], tau))
        return values[j, k]

    def check(coord, shift, combo, den):
        for k, (w, y) in enumerate(points):
            el = semidirect_mul(shift, y, tau) if shift.word else y
            direct = coordinate_value(coord, el)
            comb = sum((Fraction(c, den) * basis_value(j, k)
                        for j, c in combo.items()), Fraction(0))
            if direct != comb:
                return (f"at fresh word {word_str(w)}: direct value {direct}, "
                        f"combination {comb}")
        return None

    return check


def fresh_checks(rep):
    """The identities of the fresh-sample check, in its order, as (what,
    coord, kernel shift, public shift, integer combo, den)."""
    kernel = rep._kernel
    identity = semidirect_identity(rep.m_degree, rep.n_degree)
    for coord, combo in rep.expansions.items():
        den, (combo,) = splittable._integer_rows((combo,))
        yield (f"coordinate {coord_name(coord)}", coord, kernel.identity, identity,
               combo, den)
    for letter, (den, rows) in rep._integer_actions().items():
        gen = generator_element(letter, rep.phi_gens, rep.g_gens)
        for i, (coord, shift) in enumerate(rep._shifts):
            yield (f"basis {i} under {letter_name(letter)}", coord,
                   kernel.step(shift, letter),
                   semidirect_mul(rep.basis[i].shift, gen, rep.tau), rows[i], den)


def build_fresh_inputs(monkeypatch, build):
    """(rep, fresh words) that build's fresh-sample check hands to
    _fresh_points, and the VerificationError it raised, or None."""
    seen = []
    real = splittable._fresh_points

    def recording(rep, words):
        seen.append((rep, list(words)))
        return real(rep, words)

    monkeypatch.setattr(splittable, "_fresh_points", recording)
    try:
        build()
        error = None
    except VerificationError as err:
        error = err
    ((rep, words),) = seen
    return rep, words, error


class TestFreshPoints:
    @pytest.mark.parametrize("name", ["inner-23", "trivial-32", "inner-rational",
                                      "trivial-rational"])
    def test_matches_the_per_point_reference(self, monkeypatch, name):
        rep, words, error = build_fresh_inputs(monkeypatch, BUILDS[name])
        assert error is None and len(words) > 1
        packed = splittable._fresh_points(rep, words)
        reference = reference_fresh_points(rep, words)
        for _, coord, shift, public, combo, den in fresh_checks(rep):
            assert packed(coord, shift, combo, den) is None
            assert reference(coord, public, combo, den) is None

    @pytest.mark.parametrize("name", ["inner-23", "trivial-32", "inner-rational",
                                      "trivial-rational"])
    def test_perturbed_expansion_names_the_same_word(self, monkeypatch, name):
        # One coefficient of an expansion moves by 1/den.  Perturbing a basis
        # function that vanishes at the first fresh word puts the first
        # failure at a later word; the inner builds have such functions.
        rep, words, _ = build_fresh_inputs(monkeypatch, BUILDS[name])
        packed = splittable._fresh_points(rep, words)
        reference = reference_fresh_points(rep, words)
        at_first = f"at fresh word {word_str(words[0])}:"
        # b_j against 2 b_j fails where b_j is nonzero.
        late = [j for j, b in enumerate(rep.basis)
                if not (reference(b.coord, b.shift, {j: 2}, 1) or at_first)
                .startswith(at_first)]
        later = 0
        for _, coord, shift, public, combo, den in fresh_checks(rep):
            for j in {0, rep.dimension - 1, *late[:2]}:
                bumped = {**combo, j: combo.get(j, 0) + 1}
                want = reference(coord, public, bumped, den)
                assert packed(coord, shift, bumped, den) == want
                later += want is not None and not want.startswith(at_first)
        assert bool(late) == bool(later) == name.startswith("inner")

    def test_degree3_failure(self, monkeypatch):
        # The gate forced to fail: relations read off the words to length 2
        # in place of the walk's are too many for the degree-3 group.  The
        # packed check and the reference fail at the same identity, word and
        # values, and the first failing word is not the first fresh word.
        monkeypatch.setattr(splittable, "_krylov_walk", sample_walk(2))
        rep, words, error = build_fresh_inputs(
            monkeypatch, lambda: int_g_rep(G_DEGREE3, sample_len=2))
        packed = splittable._fresh_points(rep, words)
        reference = reference_fresh_points(rep, words)
        for what, coord, shift, public, combo, den in fresh_checks(rep):
            want = reference(coord, public, combo, den)
            assert packed(coord, shift, combo, den) == want
            if want is not None:
                break
        assert str(error) == f"fresh-sample check failed for {what} {want}"
        assert want == ("at fresh word phi0^-1 phi1 phi0 phi2^-1: direct value "
                        "-48, combination 0")
        assert not want.startswith(f"at fresh word {word_str(words[0])}:")
