"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality (the constructions are symbolic or integer);
the stated time budgets are generous on desk hardware.  Each test prints one
pass/fail line (run with -s to see them).
"""

import hashlib
import json
import random
import time

import pytest

from hnnrep.errors import VerificationError
from hnnrep.matrix import RingMatrix, det_bareiss
from hnnrep.reps import (
    artin_even,
    artin_odd,
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
from hnnrep.ring import LAURENT, QpRing, QpScalar
from hnnrep.splittable import (
    InnerTau,
    MatrixGroupGens,
    TauOracle,
    TrivialTau,
    build_rep,
    conjugation_matrix,
    int_g_rep,
    verify_rep,
)
from hnnrep.words import (
    MixedWord,
    Word,
    artin_canonical,
    artin_even_spec,
    artin_odd_spec,
    holomorph_conjugation_check,
    normal_form,
)

from helpers import DEGREE3_JSON_SHA256, specialize

S = LAURENT.s_power(1)


def report(num, name, started, budget):
    elapsed = time.time() - started
    print(f"\n[criterion {num}] {name}: PASS ({elapsed:.2f}s, budget {budget})")
    assert elapsed < _seconds(budget)


def _seconds(budget):
    value, unit = budget.split()
    scale = {"s": 1, "min": 60}[unit]
    return float(value) * scale


def hnn_symbolic(spec, basis="conjugated"):
    return hnn_induced_rep(spec, sigma_symbolic(spec.rank, basis=basis), S)


def test_criterion_1_golden_matrices():
    t0 = time.time()
    _, mismatches = golden_check()
    assert mismatches == []
    report(1, "golden braid-case matrices match the closed forms", t0, "1 s")


def test_criterion_2_defining_relations():
    t0 = time.time()
    for n in range(2, 6):
        rep = artin_even(n)
        lhs, rhs = canonical_relation(2 * n)
        assert rep.eval(lhs) == rep.eval(rhs), f"A({2 * n})"
    for n in range(1, 4):
        rep = artin_odd(n)
        lhs, rhs = canonical_relation(2 * n + 1)
        assert rep.eval(lhs) == rep.eval(rhs), f"A({2 * n + 1})"
    for spec in [artin_even_spec(n) for n in range(2, 6)]:
        rep = hnn_symbolic(spec)
        assert verify_defining_relations(rep, defining_relations(spec)).ok
    for n in range(1, 4):
        spec = artin_odd_spec(n)
        rep = hnn_symbolic(spec, basis="rank2-mixed" if n == 1 else "conjugated")
        assert verify_defining_relations(rep, defining_relations(spec)).ok
    report(2, "Artin relations and HNN defining relations, symbolic", t0, "30 s")


def test_criterion_3_degrees():
    t0 = time.time()
    for n in range(2, 6):
        assert artin_even(n).degree == 2 * n
    for n in range(1, 4):
        assert artin_odd(n).degree == 4 * (2 * n + 1)
    assert artin_odd(1).degree == 12
    b3 = integer_hnn(
        artin_odd_spec(1), sigma_int(2, 2, 2, basis="rank2-mixed"), 1
    )
    assert b3.degree == 24
    for name in b3.gen_names:
        img = b3.image(name)
        assert all(isinstance(x, int) for row in img.rows for x in row)
        assert det_bareiss(img) == 1
    report(3, "degrees 2n / 4(2n+1) / 24, integer entries, det 1", t0, "5 s")


def test_criterion_4_central_element():
    t0 = time.time()
    reps = [(artin_even_spec(n), "conjugated") for n in range(2, 6)]
    reps += [
        (artin_odd_spec(n), "rank2-mixed" if n == 1 else "conjugated")
        for n in range(1, 4)
    ]
    for spec, basis in reps:
        rep = hnn_symbolic(spec, basis)
        z = MixedWord.t() ** spec.n * MixedWord.from_word(spec.w0)
        expected = RingMatrix.identity(rep.ring, rep.degree).scalar_mul(S)
        assert rep.eval(z) == expected, f"rank {spec.rank}"
    for n in (2, 3):
        rep = artin_even(n)
        center = [("x", 1), ("y", 1)] * n
        z_img = rep.eval(center)
        for g in ("x", "y"):
            assert z_img * rep.image(g) == rep.image(g) * z_img
    for n in (1, 2):
        rep = artin_odd(n)
        center = ([("x", 1), ("y", 1)] * n + [("x", 1)]) * 2
        z_img = rep.eval(center)
        for g in ("x", "y"):
            assert z_img * rep.image(g) == rep.image(g) * z_img
    report(4, "t^n w0 maps to s*identity; center words commute", t0, "60 s")


def test_criterion_5_faithfulness_probe():
    t0 = time.time()
    qp = QpRing(5)
    s5 = qp.from_int(5)
    a3 = hnn_induced_rep(
        artin_odd_spec(1), sigma_qp(2, 2, 2, 5, basis="rank2-mixed"), s5
    )
    a4 = hnn_induced_rep(artin_even_spec(2), sigma_qp(2, 2, 2, 5), s5)
    for rep, label in ((a3, "A(3)"), (a4, "A(4)")):
        probe = probe_faithfulness(rep, 6)
        assert probe.ok, f"{label}: {probe.counterexamples[:3]}"
        assert probe.words_checked == 6 + 30 + 150 + 750 + 3750 + 18750
        assert probe.identity_count > 0  # relations do produce identities
    report(5, "probe to length 6 at lam=mu=2, s=5: zero counterexamples",
           t0, "2 min")


def test_criterion_6_normal_form_oracle():
    t0 = time.time()
    rng = random.Random(42)
    for spec in (artin_even_spec(2), artin_odd_spec(1)):
        syms = [(g, s) for g in range(spec.rank) for s in (1, -1)]
        syms += [(-1, 1), (-1, -1)]
        for _ in range(10_000):
            u = MixedWord(tuple(
                rng.choice(syms) for _ in range(rng.randrange(13))
            ))
            v = MixedWord(tuple(
                rng.choice(syms) for _ in range(rng.randrange(13))
            ))
            nu, nv = normal_form(spec, u), normal_form(spec, v)
            direct = normal_form(spec, u * v)
            assert direct.l == nu.l + nv.l
            assert direct.f == spec.phi.power(nv.l).apply(nu.f) * nv.f
    for m in range(3, 11):
        x, y, (lhs, rhs) = artin_canonical(m)
        spec = artin_even_spec(m // 2) if m % 2 == 0 else artin_odd_spec((m - 1) // 2)
        assert normal_form(spec, lhs) == normal_form(spec, rhs)
    report(6, "normal-form multiplicativity (2 x 10^4 pairs) and canonical "
              "relation sweep m=3..10", t0, "10 s")


G_RANK2 = MatrixGroupGens.from_int_rows(2, [
    (((1, 0), (2, 1)), ((1, 0), (-2, 1))),
    (((1, 2), (0, 1)), ((1, -2), (0, 1))),
])


class _ReversedTau(TauOracle):
    def __init__(self, g_gens):
        self.inner = InnerTau(g_gens)

    def tau_pair(self, phi_word):
        return self.inner.tau_pair(tuple(reversed(tuple(phi_word))))


def test_criterion_7_splittable_engine():
    t0 = time.time()
    trivial = build_rep(MatrixGroupGens.trivial(), G_RANK2, TrivialTau(2),
                        sample_len=4)
    assert trivial.dimension == 4
    trivial_report = verify_rep(trivial, max_len=4, pairs=100)
    assert trivial_report.ok
    assert trivial_report.words_checked == 1 + 4 + 12 + 36 + 108

    inner = int_g_rep(G_RANK2, sample_len=3)
    assert inner.dimension <= inner.m_degree**2 + inner.n_degree**4 == 32
    inner_report = verify_rep(inner, max_len=3, pairs=100)
    assert inner_report.ok
    assert inner_report.pairs_checked == 100

    phi_gens = MatrixGroupGens(4, tuple(
        (conjugation_matrix(m, i), conjugation_matrix(i, m))
        for m, i in G_RANK2.pairs
    ))
    with pytest.raises(VerificationError):
        build_rep(phi_gens, G_RANK2, _ReversedTau(G_RANK2), sample_len=2)
    report(7, f"splittable: trivial dim 4, Int(G)G dim {inner.dimension} <= 32, "
              "corrupted oracle rejected", t0, "5 min")


def test_criterion_8_ring_suite():
    t0 = time.time()
    rng = random.Random(1)

    def rand_poly():
        from hnnrep.ring import LaurentPoly
        terms = {}
        for _ in range(rng.randrange(9)):
            mono = (rng.randrange(6), rng.randrange(6), rng.randrange(-5, 6))
            terms[mono] = rng.randrange(-9, 10)
        return LaurentPoly(terms)

    one, zero = LAURENT.one, LAURENT.zero
    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a and a + zero == a
        sa, sb = specialize(a, 2, 2, 5), specialize(b, 2, 2, 5)
        assert specialize(a * b, 2, 2, 5) == sa * sb
        assert specialize(a + b, 2, 2, 5) == sa + sb
    for _ in range(1000):
        x = QpScalar(rng.randrange(-500, 501), rng.randrange(4), 5)
        y = QpScalar(rng.randrange(-500, 501), rng.randrange(4), 5)
        assert (x + y).to_fraction() == x.to_fraction() + y.to_fraction()
        assert (x * y).to_fraction() == x.to_fraction() * y.to_fraction()
    report(8, "ring axioms, specialization homomorphism, Q_p vs fractions "
              "(10^3 cases each)", t0, "5 s")


def test_criterion_9_holomorph_identity():
    t0 = time.time()
    psi = artin_odd_spec(1).phi
    check = holomorph_conjugation_check(psi, Word.gen(0))
    assert check and check.convention == "ltr"
    rng = random.Random(2)
    pool = [artin_even_spec(2).phi, artin_even_spec(2).phi.inverse(),
            psi, psi.inverse()]
    conventions = set()
    for _ in range(20):
        phi = rng.choice(pool)
        for _ in range(rng.randrange(4)):
            phi = phi.compose(rng.choice(pool))
        g = Word.make(
            (rng.randrange(2), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 8))
        )
        result = holomorph_conjugation_check(phi, g)
        assert result
        conventions.add(result.convention)
    assert conventions == {"ltr"}
    report(9, "holomorph conjugation identity, consistent convention "
              "(apply phi^-1 first)", t0, "5 s")


def test_criterion_10_faithfulness_to_length_10():
    t0 = time.time()
    qp = QpRing(5)
    s5 = qp.from_int(5)
    a3 = hnn_induced_rep(
        artin_odd_spec(1), sigma_qp(2, 2, 2, 5, basis="rank2-mixed"), s5
    )
    a4 = hnn_induced_rep(artin_even_spec(2), sigma_qp(2, 2, 2, 5), s5)
    for rep, label in ((a3, "A(3)"), (a4, "A(4)")):
        probe = probe_faithfulness(rep, 10)
        assert probe.ok, f"{label}: {probe.counterexamples[:3]}"
        assert probe.words_checked == 14_648_436  # sum of 6 * 5^(l-1), l <= 10
    report(10, "probe to length 10 at lam=mu=2, s=5: zero counterexamples "
               "(half-word certificate)", t0, "10 s")


def _e3(i, j, k):
    """The 3 x 3 elementary matrix I + k * E_ij."""
    return tuple(
        tuple(int(r == c) + (k if (r, c) == (i, j) else 0) for c in range(3))
        for r in range(3)
    )


def test_criterion_11_degree3_int_g_rep():
    t0 = time.time()
    g_gens = MatrixGroupGens.from_int_rows(3, [
        (_e3(1, 0, 2), _e3(1, 0, -2)), (_e3(0, 1, 2), _e3(0, 1, -2)),
        (_e3(1, 2, 3), _e3(1, 2, -3)),
    ])
    rep = int_g_rep(g_gens, sample_len=3)
    assert rep.dimension == 58
    assert rep.m_degree**2 + rep.n_degree**4 == 162
    assert verify_rep(rep, max_len=2).ok
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEGREE3_JSON_SHA256
    report(11, "splittable: Int(G)G for <e21(2), e12(2), e23(3)> <= SL_3(Z), "
               "dim 58 <= 162, verified to length 2", t0, "30 s")


def test_criterion_12_wide_trivial_closure():
    # G trivial of degree 8: kernel rows 4,096 wide, and K is the identity's
    # row alone, so the closure costs rank K = 1, not the 4,095 relations.
    t0 = time.time()
    rep = build_rep(MatrixGroupGens.trivial(), MatrixGroupGens(8, ()), TrivialTau(8),
                    sample_len=4)
    assert rep.dimension == 1
    assert (rep.walk_rank, rep.walk_rows) == (1, 1)
    assert rep.m_degree**2 + rep.n_degree**4 == 4096
    assert verify_rep(rep, max_len=1).ok
    report(12, "splittable: trivial closure of the degree-8 trivial group, "
               "dim 1 <= 4096, walk (1, 1)", t0, "5 s")
