"""Word arithmetic, automorphisms, normal forms, centers."""

import itertools
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnrep import words
from hnnrep.words import (
    MAX_WORD_LETTERS,
    T_GEN,
    Endomorphism,
    MixedWord,
    Skeleton,
    Word,
    artin_canonical,
    artin_even_spec,
    artin_odd_spec,
    center_generator,
    equal,
    holomorph_conjugation_check,
    inner_endomorphism,
    normal_form,
    parse_word,
    reduced_walk,
)

x0 = Word.gen(0)
x1 = Word.gen(1)


def parse_base_word(text: str) -> Word:
    w = parse_word(text)
    if any(g == T_GEN for g, _ in w.syms):
        raise ValueError("base word cannot contain the stable letter t")
    return Word.make(w.syms)


def psi_inverse_power_x0(n: int, i: int) -> Word:
    """Closed form of psi^-i(x0) for the odd spec: x_i while the shift lasts
    (i <= 2n-1), then Sigma^-1 psi^{4n+2-i}(x0) Sigma."""
    if not 1 <= i <= 4 * n + 1:
        raise ValueError(f"i must lie in [1, {4 * n + 1}]")
    if i <= 2 * n - 1:
        return Word.gen(i)
    spec = artin_odd_spec(n)
    w = spec.phi.power(4 * n + 2 - i).apply(Word.gen(0))
    return spec.w0.inverse() * w * spec.w0


def skeleton_identity(k: int) -> Skeleton:
    return Skeleton(tuple(range(k)), ((0, Word()),) * k)


def skeleton_mul(a: Skeleton, b: Skeleton) -> Skeleton:
    """The product a * b of two skeletons, one factor at a time: the
    reference that HnnSpec.skeleton_of's row walk is checked against."""
    # Block row i of a meets block row perm[i] of b, as in
    # BlockMonomial.__mul__.
    return Skeleton(
        tuple(b.perm[j] for j in a.perm),
        tuple((e + b.cells[j][0], w * b.cells[j][1])
              for (e, w), j in zip(a.cells, a.perm)),
    )


def W(text):
    return parse_base_word(text)


def MW(text):
    return parse_word(text)


class TestWordArithmetic:
    def test_reduce_cancellation(self):
        assert Word.make([(0, 1), (1, 1), (1, -1)]) == x0

    def test_invert_antihomomorphism(self):
        assert (x0 * x1).inverse() == W("x1^-1 x0^-1")

    def test_concat_reduces(self):
        assert W("x0 x1 x0^-1") * x0 == W("x0 x1")

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(ValueError):
            Word(((0, 1), (0, -1)))

    def test_stable_letter_rejected_in_base_word(self):
        with pytest.raises(ValueError):
            parse_base_word("x0 t")

    def test_parse_exponents_and_render(self):
        w = MW("x0 t^-1 x1^2 t")
        assert w.syms == ((0, 1), (-1, -1), (1, 1), (1, 1), (-1, 1))
        assert str(w) == "x0 t^-1 x1 x1 t"
        assert str(MW("")) == "ε"

    def test_reduction_confluence_random(self):
        # Reducing by deleting random cancellable pairs agrees with the
        # single-pass stack reduction.
        rng = random.Random(7)
        for _ in range(10_000):
            syms = [
                (rng.randrange(3), rng.choice((1, -1)))
                for _ in range(rng.randrange(31))
            ]
            work = list(syms)
            while True:
                spots = [
                    i
                    for i in range(len(work) - 1)
                    if work[i][0] == work[i + 1][0]
                    and work[i][1] == -work[i + 1][1]
                ]
                if not spots:
                    break
                i = rng.choice(spots)
                del work[i: i + 2]
            assert tuple(work) == Word.make(syms).syms


class TestEndomorphism:
    def test_apply_fixes_delta(self):
        spec = artin_even_spec(2)
        assert spec.phi.apply(x0 * x1) == x0 * x1

    def test_apply_identity(self):
        e = Endomorphism.identity(3)
        w = W("x0 x2^-1 x1")
        assert e.apply(w) == w

    def test_psi_shifts(self):
        spec = artin_odd_spec(1)
        assert spec.phi.apply(x1) == x0

    def test_rank_mismatch(self):
        e = Endomorphism.identity(2)
        with pytest.raises(ValueError):
            e.apply(Word.gen(5))

    def test_power_two_even(self):
        spec = artin_even_spec(2)
        assert spec.phi.power(2).apply(x1) == W("x0 x1 x0^-1")

    def test_power_negative_psi(self):
        spec = artin_odd_spec(1)
        assert spec.phi.power(-1).apply(x0) == x1

    def test_power_zero(self):
        spec = artin_odd_spec(1)
        e = spec.phi.power(0)
        for i in range(2):
            assert e.apply(Word.gen(i)) == Word.gen(i)

    def test_power_additivity(self):
        for spec in (artin_even_spec(2), artin_odd_spec(1)):
            powers = {k: spec.phi.power(k) for k in range(-6, 7)}
            for a in range(-6, 7):
                for b in range(-6, 7):
                    if -6 <= a + b <= 6:
                        comp = powers[a].compose(powers[b])
                        assert comp.images == powers[a + b].images

    def test_bad_inverse_rejected(self):
        with pytest.raises(ValueError):
            Endomorphism(2, (x0 * x1, x1), (x1, x0))


class TestArtinSpecs:
    def test_even_n2_images(self):
        spec = artin_even_spec(2)
        assert spec.phi.apply(x0) == W("x0 x1 x0^-1")
        assert spec.phi.apply(x1) == x0
        assert spec.w0 == x0 * x1
        assert spec.n == 2

    def test_even_n2_inner_power(self):
        spec = artin_even_spec(2)
        both = W("x0 x1 x0 x1^-1 x0^-1")
        assert spec.phi.power(2).apply(x0) == both
        assert spec.w0 * x0 * spec.w0.inverse() == both

    def test_even_n3_fixes_delta(self):
        spec = artin_even_spec(3)
        assert spec.phi.apply(spec.w0) == spec.w0

    def test_even_rejects_small(self):
        with pytest.raises(ValueError):
            artin_even_spec(1)

    def test_odd_n1_images(self):
        spec = artin_odd_spec(1)
        assert spec.phi.apply(x0) == W("x0 x1^-1")
        assert spec.phi.apply(x1) == x0
        assert spec.w0 == W("x0 x1^-1 x0^-1 x1")
        assert spec.n == 6

    def test_odd_n1_inverse_images(self):
        spec = artin_odd_spec(1)
        inv = spec.phi.inverse()
        assert inv.apply(x0) == x1
        assert inv.apply(x1) == W("x0^-1 x1")

    def test_odd_n1_inner_power(self):
        spec = artin_odd_spec(1)
        lhs = spec.phi.power(6).apply(x0)
        assert lhs == spec.w0 * x0 * spec.w0.inverse()

    def test_odd_rejects_small(self):
        with pytest.raises(ValueError):
            artin_odd_spec(0)

    def test_w0_fixed_by_phi(self):
        for spec in (artin_even_spec(2), artin_even_spec(3),
                     artin_odd_spec(1), artin_odd_spec(2)):
            assert spec.phi.apply(spec.w0) == spec.w0

    def test_f_is_w0_inverse(self):
        spec = artin_even_spec(2)
        assert spec.f == spec.w0.inverse()


class TestPsiInversePower:
    def test_shift_branch(self):
        assert psi_inverse_power_x0(1, 1) == x1
        assert psi_inverse_power_x0(2, 3) == Word.gen(3)

    def test_sigma_branch_matches_iteration(self):
        for n in (1, 2):
            spec = artin_odd_spec(n)
            for i in range(1, 4 * n + 2):
                closed = psi_inverse_power_x0(n, i)
                iterated = spec.phi.power(-i).apply(x0)
                assert closed == iterated, (n, i)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            psi_inverse_power_x0(1, 6)
        with pytest.raises(ValueError):
            psi_inverse_power_x0(1, 0)


class TestNormalForm:
    def test_empty(self):
        spec = artin_even_spec(2)
        nf = normal_form(spec, MW(""))
        assert nf.l == 0 and nf.f == Word() and nf.trivial

    def test_defining_relation(self):
        spec = artin_even_spec(2)
        nf = normal_form(spec, MW("t^-1 x0 t"))
        assert nf.l == 0
        assert nf.f == W("x0 x1 x0^-1")

    def test_x0t_squared(self):
        spec = artin_even_spec(2)
        nf = normal_form(spec, MW("x0 t x0 t"))
        assert (nf.l, nf.f) == (2, x0 * x1)

    def test_multiplicative_random(self):
        rng = random.Random(11)
        for spec in (artin_even_spec(2), artin_odd_spec(1)):
            syms = [(g, s) for g in (0, 1, -1) for s in (1, -1)]
            for _ in range(500):
                u = MixedWord(tuple(rng.choice(syms) for _ in range(rng.randrange(11))))
                v = MixedWord(tuple(rng.choice(syms) for _ in range(rng.randrange(11))))
                nu, nv = normal_form(spec, u), normal_form(spec, v)
                direct = normal_form(spec, u * v)
                assert direct.l == nu.l + nv.l
                assert direct.f == spec.phi.power(nv.l).apply(nu.f) * nv.f

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_word_product_fold(self, data):
        spec = data.draw(st.sampled_from(FOLD_SPECS))
        letters = [(g, s) for g in (*range(spec.rank), T_GEN) for s in (1, -1)]
        syms = data.draw(st.lists(st.sampled_from(letters), max_size=60))
        nf = normal_form(spec, syms)
        assert (nf.l, nf.f) == fold_normal_form(spec, syms)

    def test_long_base_runs_take_linear_time(self, monkeypatch):
        # Count the symbols normal_form copies into substitutions and Words:
        # a scan that rebuilt f per base letter would copy O(n^2) of them,
        # and fails here as soon as it has copied more than n.
        spec = artin_even_spec(2)
        w = MW("x0^80000 x1^-40000 x1^40000 x0^-40000 t")
        assert len(w) == 200_001
        copied = [0]

        def counting(copy):
            def wrapper(*args):
                copied[0] += len(args[-1])
                assert copied[0] <= len(w), copied[0]
                return copy(*args)
            return wrapper

        monkeypatch.setattr(words, "_substitute", counting(words._substitute))
        monkeypatch.setattr(Word, "_reduced", staticmethod(counting(Word._reduced)))
        nf = normal_form(spec, w)
        monkeypatch.undo()
        assert (nf.l, nf.f) == (1, spec.phi.apply(Word.make(((0, 1),) * 40000)))


FOLD_SPECS = (artin_even_spec(2), artin_even_spec(3), artin_odd_spec(1),
              artin_odd_spec(2))


def fold_normal_form(spec, syms):
    """(l, f) as a fold of Word products, one letter at a time: the
    reference for normal_form's symbol stack."""
    l, f = 0, Word()
    for g, s in syms:
        if g == T_GEN:
            l += s
            f = spec.phi.apply(f) if s == 1 else spec.phi_inv.apply(f)
        else:
            f = f * Word.gen(g, s)
    return l, f


class TestParseBound:
    def test_bound_is_inclusive(self):
        assert len(MW(f"x0^{MAX_WORD_LETTERS - 1} t^-1")) == MAX_WORD_LETTERS

    @pytest.mark.parametrize("text", [
        f"x0^{MAX_WORD_LETTERS + 1}",
        f"x0^-{MAX_WORD_LETTERS} t",
        "t x1^99999999999999999999999999",
    ])
    def test_longer_words_are_refused(self, text):
        with pytest.raises(ValueError, match="more than"):
            MW(text)


class TestEqual:
    def test_central_shift(self):
        spec = artin_even_spec(2)
        assert equal(spec, MW("x0 t x0 t"), MW("t t x0 x1"))

    def test_reflexive(self):
        spec = artin_even_spec(2)
        w = MW("t x0 t^-1 x1")
        assert equal(spec, w, w)

    def test_t_does_not_commute(self):
        spec = artin_even_spec(2)
        assert not equal(spec, MW("t x0"), MW("x0 t"))


class TestCenter:
    def test_even_center(self):
        spec = artin_even_spec(2)
        z = center_generator(spec)
        assert z == MW("t t x0 x1")

    def test_odd_center(self):
        spec = artin_odd_spec(1)
        z = center_generator(spec)
        assert z == MW("t^6") * MixedWord.from_word(spec.w0)

    def test_commutator_trivial(self):
        spec = artin_even_spec(2)
        z = center_generator(spec)
        g = MW("x0")
        comm = z * g * z.inverse() * g.inverse()
        assert normal_form(spec, comm).trivial

    def test_no_smaller_power_is_central(self):
        # For 0 < k < n, no t^k * f with |f| <= 4 commutes with everything.
        for spec in (artin_even_spec(2), artin_odd_spec(1)):
            gens = spec.generators
            pairs = [((g, 1), (g, -1)) for g in range(spec.rank)]
            walk = reduced_walk(pairs, 4, Word(), lambda f, l: f * Word.gen(*l))
            words = [Word()] + [f for _, f in walk]
            for k in range(1, spec.n):
                tk = MixedWord.t() ** k
                for f in words:
                    cand = tk * MixedWord.from_word(f)
                    assert any(
                        not equal(spec, cand * g, g * cand) for g in gens
                    ), (k, str(f))


class TestSkeleton:
    """The ring-free skeleton of the induced representation."""

    @pytest.mark.parametrize("m", range(3, 9))
    def test_relations_hold_on_skeletons(self, m):
        spec = words.artin_spec(m)
        t = ((T_GEN, 1),)
        for i in range(spec.rank):
            lhs = ((T_GEN, -1), (i, 1)) + t
            assert spec.skeleton_of(lhs) == spec.skeleton_of(spec.phi.apply(Word.gen(i)).syms)
        _, _, (lhs, rhs) = artin_canonical(m)
        assert spec.skeleton_of(lhs.syms) == spec.skeleton_of(rhs.syms)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_skeletons_decide_the_word_problem(self, m):
        # Equal skeletons exactly when equal normal forms: the skeleton map
        # is a faithful image of the extension.
        spec = words.artin_spec(m)
        rng = random.Random(f"skeleton {m}")
        letters = [(g, s) for g in [*range(spec.rank), T_GEN] for s in (1, -1)]
        ws = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
              for _ in range(40)]
        ws += [w + ((T_GEN, 1), (T_GEN, -1)) for w in ws[:10]]
        for u, v in itertools.combinations(ws, 2):
            assert (spec.skeleton_of(u) == spec.skeleton_of(v)) == equal(spec, u, v)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_center_is_z(self, m):
        # t^n w0 maps to z in every coset
        spec = words.artin_spec(m)
        assert spec.skeleton_of(center_generator(spec).syms) == words.Skeleton(
            tuple(range(spec.n)), ((1, Word()),) * spec.n)

    def test_inverse(self):
        spec = artin_odd_spec(1)
        for sym, sk in spec.skeleton.items():
            assert skeleton_mul(sk, spec.skeleton[sym[0], -sym[1]]) == skeleton_identity(spec.n)
            assert sk.inverse() == spec.skeleton[sym[0], -sym[1]]

    @pytest.mark.parametrize("m", range(3, 15))
    def test_row_walk_is_the_product_fold(self, m):
        # skeleton_of walks each block row through the letters; the
        # reference multiplies the letters' skeletons one at a time.
        spec = words.artin_spec(m)
        rng = random.Random(f"skeleton rows {m}")
        letters = [(g, s) for g in [*range(spec.rank), T_GEN] for s in (1, -1)]
        t, t_inv = (T_GEN, 1), (T_GEN, -1)
        inverse = lambda seq: [(g, -s) for g, s in reversed(seq)]
        seqs = [[]]
        for _ in range(12):
            seq = [rng.choice(letters) for _ in range(rng.randint(1, 14))]
            # the sequence alone, followed by its inverse (which cancels
            # completely), and cancelling partly around a middle letter
            seqs += [seq, seq + inverse(seq), seq + [rng.choice(letters)] + inverse(seq)]
            # runs of t^1 and t^-1 past the corner, with base letters among them
            k = rng.randint(1, 2 * spec.n + 1)
            seqs += [[t] * k, [t_inv] * k, [t] * k + seq + [t_inv] * rng.randint(0, k),
                     seq + [t_inv] * k + seq]
        identity = skeleton_identity(spec.n)
        for seq in seqs:
            want = reduce(skeleton_mul, [spec.skeleton[sym] for sym in seq], identity)
            assert spec.skeleton_of(seq) == want, seq
            assert spec.skeleton_of(iter(seq)) == want
        assert spec.skeleton_of([]) == identity
        assert spec.skeleton_of([t] * spec.n) == Skeleton(
            tuple(range(spec.n)), ((1, spec.f),) * spec.n)


class TestArtinCanonical:
    def test_even_m4(self):
        x, y, (lhs, rhs) = artin_canonical(4)
        assert (x, y) == (MW("x0"), MW("t"))
        assert lhs == MW("x0 t x0 t")
        assert rhs == MW("t x0 t x0")

    def test_odd_m3(self):
        x, y, (lhs, rhs) = artin_canonical(3)
        assert (x, y) == (MW("t"), MW("x0 t"))
        assert lhs == MW("t x0 t t")
        assert rhs == MW("x0 t t x0 t")

    def test_sweep(self):
        # artin_canonical substitutes x, y into canonical_relation; these
        # are the closed forms of both sides.
        t, x0 = MixedWord.t(), MixedWord.gen(0)
        for m in range(3, 13):
            n, odd = divmod(m, 2)
            x, y, (lhs, rhs) = artin_canonical(m)  # raises on failure
            if odd:
                assert (x, y) == (t, x0 * t)
                assert lhs == (t * x0 * t) ** n * t
                assert rhs == (x0 * t * t) ** n * x0 * t
            else:
                assert (x, y) == (x0, t)
                assert lhs == (x0 * t) ** n
                assert rhs == (t * x0) ** n

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            artin_canonical(2)


class TestHolomorphIdentity:
    def test_identity_phi(self):
        phi = Endomorphism.identity(2)
        check = holomorph_conjugation_check(phi, x0 * x1)
        assert check and check.convention in ("ltr", "rtl")

    def test_psi_with_x0(self):
        spec = artin_odd_spec(1)
        check = holomorph_conjugation_check(spec.phi, x0)
        assert check
        assert check.convention == "ltr"

    def test_non_conjugation_map_fails(self):
        # Replacing the inner map by left translation x -> g x breaks the
        # identity in both composition orders.
        spec = artin_odd_spec(1)
        phi = spec.phi
        g = x0
        broken = Endomorphism(2, (g * x0, g * x1))
        target = inner_endomorphism(2, phi.apply(g))
        phi_inv = phi.inverse()
        ltr = phi.compose(broken).compose(phi_inv)
        rtl = phi_inv.compose(broken).compose(phi)
        assert not ltr.same_map(target)
        assert not rtl.same_map(target)

    def test_random_pairs_consistent_convention(self):
        rng = random.Random(3)
        spec_even = artin_even_spec(2)
        spec_odd = artin_odd_spec(1)
        pool = [spec_even.phi, spec_even.phi.inverse(),
                spec_odd.phi, spec_odd.phi.inverse()]
        for _ in range(20):
            phi = rng.choice(pool)
            for _ in range(rng.randrange(4)):
                phi = phi.compose(rng.choice(pool))
            g = Word.make(
                (rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))
            )
            check = holomorph_conjugation_check(phi, g)
            assert check and check.convention == "ltr"


def reduced_words(rank, max_size=12):
    syms = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    return st.lists(syms, max_size=max_size).map(Word.make)


def substitute_by_letter(endo, w):
    """Reference: concatenate each letter's image, inverting per letter,
    and reduce once at the end."""
    out = []
    for g, s in w.syms:
        image = endo.images[g] if s == 1 else endo.images[g].inverse()
        out.extend(image.syms)
    return Word.make(out)


class TestWordFastPaths:
    @settings(max_examples=200, deadline=None)
    @given(reduced_words(3), reduced_words(3))
    def test_junction_product_matches_full_reduction(self, a, b):
        assert a * b == Word.make(a.syms + b.syms)
        assert (a * b).syms == Word.make(a.syms + b.syms).syms

    @settings(max_examples=300, deadline=None)
    @given(reduced_words(2), st.integers(-6, 6))
    def test_power_matches_product_fold(self, w, k):
        # reduced_words draws words that are not cyclically reduced, such as
        # x0 x1 x0^-1, as well as cyclically reduced ones.
        base = w if k >= 0 else w.inverse()
        expected = reduce(lambda acc, _: acc * base, range(abs(k)), Word())
        power = w ** k
        assert power == expected
        assert Word(power.syms) == power  # freely reduced

    # (word, length of its conjugator a, where word = a c a^-1 with c
    # cyclically reduced)
    @pytest.mark.parametrize("text, a", [
        ("x0", 0), ("x0 x1^-1", 0), ("x0 x1 x0 x1^-1 x0^-1", 2),
    ])
    def test_large_power_copies_linearly(self, monkeypatch, text, a):
        # Count the symbols passed to Word._reduced: k junction products
        # would copy O(k^2) of them, and fail here as soon as they have
        # copied more than the power's length.
        w, k = W(text), 10**5
        length = 2 * a + (len(w) - 2 * a) * k
        reduced = Word._reduced
        copied = [0]

        def counting(syms):
            copied[0] += len(syms)
            assert copied[0] <= length, copied[0]
            return reduced(syms)

        monkeypatch.setattr(Word, "_reduced", staticmethod(counting))
        power = w ** k
        monkeypatch.undo()
        assert len(power) == length
        assert power.syms[:a] == w.syms[:a]
        assert power.syms[a:a + len(w) - 2 * a] == w.syms[a:len(w) - a]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), k=st.integers(-5, 5))
    def test_power_matches_checked_composition(self, data, k):
        # Automorphisms of F(x0, x1, x2) from checked generators; the power
        # must equal the fold of checked compositions and pass the check.
        phi = artin_even_spec(3).phi
        pool = [phi, phi.inverse(),
                Endomorphism(3, (x1, Word.gen(2), x0), (Word.gen(2), x0, x1))]
        endo = inner_endomorphism(3, data.draw(reduced_words(3, max_size=4)))
        for _ in range(data.draw(st.integers(0, 3))):
            endo = endo.compose(data.draw(st.sampled_from(pool)))
        base = endo if k >= 0 else endo.inverse()
        expected = Endomorphism.identity(3)
        for _ in range(abs(k)):
            expected = expected.compose(base)
        power = endo.power(k)
        assert power.images == expected.images
        assert power.inverse_images == expected.inverse_images
        Endomorphism(3, power.images, power.inverse_images)
        w = data.draw(reduced_words(3))
        assert power.apply(w) == expected.apply(w)

    def test_power_without_inverse_images(self):
        endo = Endomorphism(2, (x0 * x0, x0 * x1))
        assert endo.power(3).images == (x0 ** 8, x0 ** 7 * x1)
        assert endo.power(3).inverse_images is None
        with pytest.raises(ValueError):
            endo.power(-1)

    def test_large_specs_build_quickly(self):
        # HnnSpec checks phi^n on every generator.  Re-checking each step
        # of the power costs time quadratic in the image lengths, which
        # stalls these specs for many seconds.
        started = time.perf_counter()
        odd = artin_odd_spec.__wrapped__(25)    # m = 51, phi^102
        even = artin_even_spec.__wrapped__(50)  # m = 100, phi^50
        assert time.perf_counter() - started < 5.0
        for spec in (odd, even):
            assert normal_form(spec, MW("x0 t")).l == 1
            assert str(normal_form(spec, MW("x0"))) == "t^0 · x0"

    @pytest.mark.parametrize("spec_name", ["even2", "odd1"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_table_apply_matches_letter_substitution(self, spec_name, data):
        spec = artin_even_spec(2) if spec_name == "even2" else artin_odd_spec(1)
        w = data.draw(reduced_words(spec.rank))
        for endo in (spec.phi, spec.phi_inv):
            assert endo.apply(w) == substitute_by_letter(endo, w)

    @pytest.mark.parametrize("spec", [artin_even_spec(2), artin_odd_spec(1)])
    def test_out_of_rank_apply_rejected(self, spec):
        for endo in (spec.phi, spec.phi_inv):
            with pytest.raises(ValueError):
                endo.apply(Word.gen(spec.rank))
            with pytest.raises(ValueError):
                endo.apply(x0 * Word.gen(spec.rank, -1))


def _pairs(r):
    return [((g, 1), (g, -1)) for g in range(r)]


def _is_reduced(word, pairs):
    inverse = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    return all(inverse[a] != b for a, b in zip(word, word[1:]))


def _walk_words(pairs, max_len):
    return [w for w, _ in reduced_walk(pairs, max_len, None, lambda s, l: None)]


class TestReducedWalk:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("max_len", [1, 2, 5])
    def test_count_is_closed_form(self, r, max_len):
        expected = sum(2 * r * (2 * r - 1) ** (l - 1)
                       for l in range(1, max_len + 1))
        assert len(_walk_words(_pairs(r), max_len)) == expected

    def test_words_reduced_and_distinct(self):
        pairs = _pairs(3)
        words = _walk_words(pairs, 4)
        assert all(_is_reduced(w, pairs) and 1 <= len(w) <= 4 for w in words)
        assert len(set(words)) == len(words)

    def test_depth_first_lexicographic_order(self):
        pairs = _pairs(2) + [((-1, 1), (-1, -1))]
        rank = {l: i for i, l in enumerate(l for pair in pairs for l in pair)}
        keys = [tuple(rank[l] for l in w) for w in _walk_words(pairs, 4)]
        # A prefix sorts before its extensions, so strictly increasing
        # tuples are exactly the depth-first order.
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert keys[:5] == [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2)]

    def test_state_is_left_fold_of_step(self):
        pairs = _pairs(2)
        calls = []

        def step(state, letter):
            calls.append(letter)
            return Word.gen(*letter).inverse() * state * Word.gen(*letter)

        walk = list(reduced_walk(pairs, 4, x0, step))
        assert len(calls) == len(walk)
        for word, state in walk:
            assert state == reduce(step, word, x0)

    def test_empty_walks(self):
        step = lambda s, l: pytest.fail("step called")
        assert list(reduced_walk(_pairs(2), 0, None, step)) == []
        assert list(reduced_walk(_pairs(2), -1, None, step)) == []
        assert list(reduced_walk([], 3, None, step)) == []

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(), min_size=0, max_size=6, unique=True)
           .filter(lambda xs: len(xs) % 2 == 0),
           max_len=st.integers(0, 4))
    def test_matches_filtered_product(self, labels, max_len):
        pairs = list(zip(labels[::2], labels[1::2]))
        expected = [
            w for l in range(1, max_len + 1)
            for w in itertools.product(labels, repeat=l) if _is_reduced(w, pairs)
        ]
        rank = {l: i for i, l in enumerate(labels)}
        expected.sort(key=lambda w: [rank[l] for l in w])
        assert _walk_words(pairs, max_len) == expected
