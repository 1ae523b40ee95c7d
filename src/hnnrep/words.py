"""Free-group words, their endomorphisms, and the stable-letter calculus for
HNN extensions of a free group by a virtually inner automorphism.

An extension here is the group generated by base letters x0..x{r-1} and a
stable letter t subject to t^-1 x t = phi(x), where phi is an automorphism
of the free group F(x0..x{r-1}) with phi^n inner: phi^n(x) = w0 x w0^-1.
Every element has a unique normal form t^l * f with f a reduced base word;
all equality questions are settled through that normal form.

Words are immutable tuples of (generator, sign) symbols.  Base words are
kept freely reduced at all times; mixed words (which may contain t) are
stored as written and only reduced through the normal form.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import chain

from ._record import Record
from .errors import VerificationError

# Symbol ids: base generators are 0..rank-1, the stable letter is T_GEN.
T_GEN = -1

Sym = "tuple[int, int]"


def _reduce(syms):
    """Freely reduce a symbol sequence (single left-to-right stack pass)."""
    out = []
    for sym in syms:
        if out and out[-1][0] == sym[0] and out[-1][1] == -sym[1]:
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def _sym_str(sym):
    gen, sign = sym
    name = gen if isinstance(gen, str) else "t" if gen == T_GEN else f"x{gen}"
    return name if sign == 1 else f"{name}^-1"


def syms_str(syms) -> str:
    """Text of a symbol tuple, "ε" when empty: the str of its (Mixed)Word.
    A symbol's generator may also be a letter name, such as "x", taken as
    it stands."""
    return " ".join(map(_sym_str, syms)) if syms else "ε"


def _check_syms(syms, allow_t):
    for gen, sign in syms:
        if sign not in (1, -1):
            raise ValueError(f"bad sign {sign!r}")
        if gen < 0 and not (allow_t and gen == T_GEN):
            raise ValueError(f"bad generator id {gen!r}")


class Word(Record, frozen=True):
    """Freely reduced word over the base generators only."""

    _fields = ("syms",)

    def __init__(self, syms: tuple = ()):
        _check_syms(syms, allow_t=False)
        if syms != _reduce(syms):
            raise ValueError("word is not freely reduced; use Word.make")
        # Assigned here, not by Record.__init__: a build makes thousands.
        object.__setattr__(self, "syms", syms)

    @staticmethod
    def _reduced(syms: tuple) -> "Word":
        """Trusted constructor for symbols reduced by construction: skips
        the checks of Word(...)."""
        w = object.__new__(Word)
        object.__setattr__(w, "syms", syms)
        return w

    @staticmethod
    def make(syms) -> "Word":
        syms = _reduce(tuple(syms))
        _check_syms(syms, allow_t=False)
        return Word._reduced(syms)

    @staticmethod
    def gen(i: int, sign: int = 1) -> "Word":
        return Word(((i, sign),))

    def __mul__(self, other: "Word") -> "Word":
        # Both operands are reduced, so cancellation happens only at the
        # junction.
        a, b = self.syms, other.syms
        i, n = len(a), min(len(a), len(b))
        j = 0
        while j < n and a[i - 1][0] == b[j][0] and a[i - 1][1] == -b[j][1]:
            i -= 1
            j += 1
        return Word._reduced(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._reduced(tuple((g, -s) for g, s in reversed(self.syms)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return Word()
        # self = a c a^-1 with c cyclically reduced, so w^k = a c^k a^-1 and
        # c^k is reduced as it stands.
        syms, i = self.syms, 0
        n = len(syms)
        while (i < n - 1 - i and syms[i][0] == syms[n - 1 - i][0]
               and syms[i][1] == -syms[n - 1 - i][1]):
            i += 1
        return Word._reduced(syms[:i] + syms[i:n - i] * k + syms[n - i:])

    def __len__(self):
        return len(self.syms)

    @property
    def min_rank(self) -> int:
        """Smallest rank of a free group containing this word."""
        return 1 + max((g for g, _ in self.syms), default=-1)

    def __str__(self):
        return syms_str(self.syms)


class MixedWord(Record, frozen=True):
    """Word over the base generators and the stable letter, stored unreduced."""

    _fields = ("syms",)

    def __init__(self, syms: tuple = ()):
        _check_syms(syms, allow_t=True)
        # Assigned here, not by Record.__init__: a build makes thousands.
        object.__setattr__(self, "syms", syms)

    @staticmethod
    def gen(i: int, sign: int = 1) -> "MixedWord":
        return MixedWord(((i, sign),))

    @staticmethod
    def t(sign: int = 1) -> "MixedWord":
        return MixedWord(((T_GEN, sign),))

    @staticmethod
    def from_word(w: Word) -> "MixedWord":
        return MixedWord(w.syms)

    def __mul__(self, other: "MixedWord") -> "MixedWord":
        return MixedWord(self.syms + other.syms)

    def inverse(self) -> "MixedWord":
        return MixedWord(tuple((g, -s) for g, s in reversed(self.syms)))

    def __pow__(self, k: int) -> "MixedWord":
        if k < 0:
            return self.inverse() ** (-k)
        return MixedWord(self.syms * k)

    def __len__(self):
        return len(self.syms)

    @property
    def min_rank(self) -> int:
        return 1 + max((g for g, _ in self.syms), default=-1)

    def __str__(self):
        return syms_str(self.syms)


_TERM_RE = re.compile(r"^(x(\d+)|t)(\^(-?\d+))?$")

# Most letters a parsed word may expand to.  An exponent k expands to |k|
# letters, so without a bound a few bytes of text could ask for any amount
# of memory and time.
MAX_WORD_LETTERS = 1_000_000


def parse_word(text: str) -> MixedWord:
    """Parse the word grammar: whitespace-separated terms gen('^'signed-int)?.

    Generators are x<digits> or t; an exponent expands to |k| symbols, e.g.
    "x0 t^-1 x1^2 t" and "ε" (or "") is the empty word.  A word that would
    expand to more than MAX_WORD_LETTERS letters raises ValueError.
    """
    text = text.strip()
    if text in ("", "ε", "1"):
        return MixedWord()
    syms = []
    for term in text.split():
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        gen = T_GEN if m.group(1) == "t" else int(m.group(2))
        exp = int(m.group(4)) if m.group(4) is not None else 1
        sign = 1 if exp > 0 else -1
        if len(syms) + abs(exp) > MAX_WORD_LETTERS:
            raise ValueError(f"word expands to more than {MAX_WORD_LETTERS} letters")
        syms.extend([(gen, sign)] * abs(exp))
    return MixedWord(tuple(syms))


def reduced_walk(pairs, max_len, root, step):
    """Yield (word, state) for every freely reduced word of length
    1..max_len over the letters of pairs, a sequence of (letter, inverse).

    The walk is depth first: each word comes right after its prefix, and
    siblings follow the order of the flattened pairs.  A word is a tuple of
    letters; its state is step(state of its prefix, last letter), with root
    the state of the empty word, so each word costs one step.
    """
    letters = [letter for pair in pairs for letter in pair]
    inverse = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    children = {a: [b for b in letters if b != inverse[a]] for a in letters}
    if max_len < 1:
        return
    # Each frame is a prefix, its state and the iterator over the letters
    # still to try after it; descending parks the current frame.
    stack = []
    word, state, todo = (), root, iter(letters)
    while True:
        for letter in todo:
            child, child_state = word + (letter,), step(state, letter)
            yield child, child_state
            if len(child) < max_len:
                stack.append((word, state, todo))
                word, state, todo = child, child_state, iter(children[letter])
                break
        else:
            if not stack:
                return
            word, state, todo = stack.pop()


def _image_table(images):
    """Per-symbol images: (i, 1) -> images[i].syms, (i, -1) -> its inverse."""
    table = {}
    for i, w in enumerate(images):
        table[(i, 1)] = w.syms
        table[(i, -1)] = w.inverse().syms
    return table


def _substitute(table, syms) -> list:
    """Apply a per-symbol image table to a reduced symbol sequence, reducing
    as we go."""
    out = []
    try:
        for sym in syms:
            for g, s in table[sym]:
                if out and out[-1][0] == g and out[-1][1] == -s:
                    out.pop()
                else:
                    out.append((g, s))
    except KeyError:
        raise ValueError("word rank exceeds endomorphism rank") from None
    return out


def _images_after(outer, inner) -> tuple:
    """Images of outer o inner, both given by generator images: each inner
    image with every letter replaced by its outer image, as a product of
    reduced words.  An outer image is inverted only for a letter that
    needs it."""
    inverted = {}
    out = []
    for w in inner:
        acc = Word()
        for g, s in w.syms:
            if s == 1:
                acc = acc * outer[g]
                continue
            inv = inverted.get(g)
            if inv is None:
                inv = inverted[g] = outer[g].inverse()
            acc = acc * inv
        out.append(acc)
    return tuple(out)


def _images_power(images, k) -> tuple:
    """Images of the k-th power, k >= 1, of the map with these generator
    images: phi^(j+1)(x) is the product over the letters of phi(x) of their
    phi^j images."""
    out = images
    for _ in range(k - 1):
        out = _images_after(out, images)
    return out


class Endomorphism(Record, frozen=True):
    """Free-group endomorphism given by generator images.

    If inverse_images is present the map is an automorphism; the pair of
    tables is validated by substituting one into the other on every
    generator.  The per-symbol table is derived from the images, so it
    takes no part in equality, hash or repr.
    """

    _fields = ("rank", "images", "inverse_images")

    def __init__(self, rank: int, images: tuple, inverse_images: tuple = None):
        Record.__init__(self, rank, images, inverse_images)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if len(self.images) != self.rank:
            raise ValueError("one image per generator required")
        for w in self.images:
            if w.min_rank > self.rank:
                raise ValueError("image uses a generator outside the rank")
        object.__setattr__(self, "table", _image_table(self.images))
        if self.inverse_images is not None:
            if len(self.inverse_images) != self.rank:
                raise ValueError("one inverse image per generator required")
            inverse_table = _image_table(self.inverse_images)
            for i in range(self.rank):
                back = _substitute(inverse_table, self.images[i].syms)
                forth = _substitute(self.table, self.inverse_images[i].syms)
                if back != [(i, 1)] or forth != [(i, 1)]:
                    raise ValueError(
                        f"inverse images do not invert the map on x{i}"
                    )

    @staticmethod
    def _trusted(rank, images, inverse_images) -> "Endomorphism":
        """Trusted constructor for tables right by construction (the
        inverse or a power of a checked map): skips the checks of
        Endomorphism(...)."""
        e = object.__new__(Endomorphism)
        Record.__init__(e, rank, images, inverse_images)
        object.__setattr__(e, "table", _image_table(images))
        return e

    @staticmethod
    def identity(rank: int) -> "Endomorphism":
        gens = tuple(Word.gen(i) for i in range(rank))
        return Endomorphism(rank, gens, gens)

    @property
    def invertible(self) -> bool:
        return self.inverse_images is not None

    def apply(self, w: Word) -> Word:
        return Word._reduced(tuple(_substitute(self.table, w.syms)))

    def inverse(self) -> "Endomorphism":
        if self.inverse_images is None:
            raise ValueError("endomorphism has no inverse images")
        return Endomorphism._trusted(self.rank, self.inverse_images, self.images)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Return self o other (apply other first)."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch in composition")
        images = _images_after(self.images, other.images)
        inv = None
        if self.invertible and other.invertible:
            inv = _images_after(other.inverse_images, self.inverse_images)
        return Endomorphism(self.rank, images, inv)

    def power(self, k: int) -> "Endomorphism":
        """self^k, built by word products and not checked again: the powers
        of a checked map are right by construction (_images_power)."""
        if k == 0:
            return Endomorphism.identity(self.rank)
        if k < 0:
            return self.inverse().power(-k)
        inverse = self.inverse_images
        return Endomorphism._trusted(
            self.rank, _images_power(self.images, k),
            None if inverse is None else _images_power(inverse, k))

    def same_map(self, other: "Endomorphism") -> bool:
        """Equality as maps: identical images on every generator."""
        return self.rank == other.rank and self.images == other.images


def inner_endomorphism(rank: int, g: Word) -> Endomorphism:
    """Conjugation x -> g x g^-1 as an automorphism."""
    ginv = g.inverse()
    images = tuple(g * Word.gen(i) * ginv for i in range(rank))
    inverse = tuple(ginv * Word.gen(i) * g for i in range(rank))
    return Endomorphism(rank, images, inverse)


def _shift_automorphism(rank: int, head: Word) -> Endomorphism:
    """Automorphism x0 -> head, xi -> x_{i-1}, with inverses solved.

    The inverse is triangular: x_j -> x_{j+1} for j < rank-1 comes straight
    from the shift, and the last inverse image is solved from the head word,
    which must contain the top generator exactly once.
    """
    images = (head,) + tuple(Word.gen(i) for i in range(rank - 1))
    hits = [(pos, s) for pos, (g, s) in enumerate(head.syms) if g == rank - 1]
    if len(hits) != 1:
        raise ValueError("head word must contain the top generator exactly once")
    pos, eps = hits[0]
    shift_up = lambda w: Word.make((g + 1, s) for g, s in w.syms)
    a = shift_up(Word(head.syms[:pos]))
    b = shift_up(Word(head.syms[pos + 1:]))
    # x0 = a * u^eps * b, where u is the missing inverse image of x_{rank-1}
    u_eps = a.inverse() * Word.gen(0) * b.inverse()
    last = u_eps if eps == 1 else u_eps.inverse()
    inverse = tuple(Word.gen(j + 1) for j in range(rank - 1)) + (last,)
    return Endomorphism(rank, images, inverse)


class Skeleton(Record, frozen=True):
    """A ring-free image in the wreath product (F x <z>) wr S_k.

    Block row i holds z^e * sigma(w) in block column perm[i], for the pair
    cells[i] = (e, w) of a z-exponent and a reduced base word.  Evaluated
    through a homomorphism sigma of the free group and an invertible z that
    commutes with its images, products of skeletons are products of the
    block-monomial matrices: the permutations compose, the words
    concatenate and the exponents add (HnnSpec.skeleton_of).
    """

    _fields = ("perm", "cells")

    def inverse(self) -> "Skeleton":
        # Block row j of the inverse is block row i of self with perm[i] = j.
        rows = tuple(sorted(range(len(self.perm)), key=self.perm.__getitem__))
        return Skeleton(rows, tuple(
            (-self.cells[i][0], self.cells[i][1].inverse()) for i in rows))


class HnnSpec(Record, frozen=True):
    """Data (rank, phi, n, w0) of an HNN extension with phi^n inner.

    phi^n(x) = w0 x w0^-1 is checked on every generator.  Minimality of n is
    trusted, not decided; the built-in Artin specs satisfy it.
    """

    _fields = ("rank", "phi", "n", "w0")

    def __init__(self, rank: int, phi: Endomorphism, n: int, w0: Word):
        Record.__init__(self, rank, phi, n, w0)
        if self.n < 1:
            raise ValueError("inner power must be positive")
        if self.phi.rank != self.rank:
            raise ValueError("phi rank does not match spec rank")
        if not self.phi.invertible:
            raise ValueError("phi must be an automorphism")
        if self.w0.min_rank > self.rank:
            raise ValueError("w0 uses a generator outside the rank")
        # Only the images of phi^n are composed: the check needs no inverse
        # images.
        w0_inv = self.w0.inverse()
        for i, image in enumerate(_images_power(self.phi.images, self.n)):
            if image != self.w0 * Word.gen(i) * w0_inv:
                raise ValueError(
                    f"phi^{self.n} is not conjugation by w0 on x{i}"
                )

    @cached_property
    def phi_inv(self) -> Endomorphism:
        return self.phi.inverse()

    @property
    def f(self) -> Word:
        """The conjugator with phi^n(x) = f^-1 x f, namely w0^-1."""
        return self.w0.inverse()

    @cached_property
    def skeleton(self) -> dict:
        """Skeletons of the induced representation's letters over the n
        cosets 1, t, .., t^(n-1), keyed by symbol, inverses included.

        x_i is the diagonal of the orbit words phi^-j(x_i), j = 0..n-1, and
        t the companion with empty words above the diagonal and z * f in
        the corner, z standing for the central image of t^n w0."""
        k = self.n
        gens = {T_GEN: Skeleton((*range(1, k), 0),
                                ((0, Word()),) * (k - 1) + ((1, self.f),))}
        for i in range(self.rank):
            orbit = [Word.gen(i)]
            for _ in range(k - 1):
                orbit.append(self.phi_inv.apply(orbit[-1]))
            gens[i] = Skeleton(tuple(range(k)), tuple((0, w) for w in orbit))
        # The cached words share one tuple per symbol, so that they cost a
        # pointer a letter for as long as the spec lives.
        symbols = {}

        def shared(sk):
            return Skeleton(sk.perm, tuple(
                (e, Word._reduced(tuple(symbols.setdefault(x, x) for x in w.syms)))
                for e, w in sk.cells))

        return {(g, s): shared(sk if s == 1 else sk.inverse())
                for g, sk in gens.items() for s in (1, -1)}

    def skeleton_of(self, syms) -> Skeleton:
        """The skeleton of a mixed word, given by its symbols: the product
        of its letters' skeletons, walked one block row at a time.  Block
        row i of a product meets block row perm[i] of the next factor, as
        in BlockMonomial.__mul__, so row i adds up the exponents of the rows
        it meets and pushes their words onto one reduction stack.  Those
        words are reduced, so letters cancel only at the junction."""
        factors = [self.skeleton[sym] for sym in syms]
        perm, cells = [], []
        for row in range(self.n):
            j, e, out = row, 0, []
            for sk in factors:
                de, w = sk.cells[j]
                e += de
                w, k = w.syms, 0
                while (k < len(w) and out and out[-1][0] == w[k][0]
                       and out[-1][1] == -w[k][1]):
                    out.pop()
                    k += 1
                out += w[k:]
                j = sk.perm[j]
            perm.append(j)
            cells.append((e, Word._reduced(tuple(out))))
        return Skeleton(tuple(perm), tuple(cells))

    @property
    def generators(self):
        """Mixed-word generators x0..x{rank-1}, t."""
        gens = [MixedWord.gen(i) for i in range(self.rank)]
        gens.append(MixedWord.t())
        return gens


class NormalForm(Record, frozen=True):
    """The normal form t^l * f of a mixed word (see normal_form)."""

    _fields = ("l", "f")

    @property
    def trivial(self) -> bool:
        return self.l == 0 and not self.f.syms

    def __str__(self):
        return f"t^{self.l} · {self.f}"


def normal_form(spec: HnnSpec, w) -> NormalForm:
    """Normal form t^l * f of a mixed word, by a single left-to-right scan.

    f is a stack of reduced symbols.  A base symbol cancels its inverse on
    top of f or is pushed; reading t^e sets l += e and f := phi^e(f)
    through the substitution table of phi or phi^-1.  A base symbol costs
    O(1) and a t symbol O(|f|).
    """
    syms = w.syms if isinstance(w, (Word, MixedWord)) else tuple(w)
    phi, phi_inv = spec.phi.table, spec.phi_inv.table
    l = 0
    f = []
    for g, s in syms:
        if g == T_GEN:
            l += s
            f = _substitute(phi if s == 1 else phi_inv, f)
            continue
        if g >= spec.rank:
            raise ValueError(f"generator x{g} outside rank {spec.rank}")
        if s not in (1, -1) or g < 0:
            _check_syms(((g, s),), allow_t=False)
        if f and f[-1] == (g, -s):
            f.pop()
        else:
            f.append((g, s))
    return NormalForm(l, Word._reduced(tuple(f)))


def equal(spec: HnnSpec, u, v) -> bool:
    """Word problem for the extension: compare normal forms."""
    return normal_form(spec, u) == normal_form(spec, v)


def center_generator(spec: HnnSpec) -> MixedWord:
    """The central element t^n * w0, verified to commute with every generator."""
    z = MixedWord.t() ** spec.n * MixedWord.from_word(spec.w0)
    for g in spec.generators:
        if not equal(spec, z * g, g * z):
            raise VerificationError(f"t^n w0 does not commute with {g}")
    return z


@cache
def artin_even_spec(n: int) -> HnnSpec:
    """HNN data of the Artin group on two generators with even index 2n.

    The automorphism sends x0 to the conjugate of the top generator by
    x0..x_{n-2} and shifts the rest down; its n-th power is conjugation by
    Delta = x0 x1 .. x_{n-1}.
    """
    if n < 2:
        raise ValueError("even Artin spec needs n >= 2")
    c = Word.make((i, 1) for i in range(n - 1))
    head = c * Word.gen(n - 1) * c.inverse()
    phi = _shift_automorphism(n, head)
    delta = Word.make((i, 1) for i in range(n))
    return HnnSpec(rank=n, phi=phi, n=n, w0=delta)


@cache
def artin_odd_spec(n: int) -> HnnSpec:
    """HNN data of the Artin group on two generators with odd index 2n+1.

    The free group has rank 2n; the automorphism psi sends x0 to
    x0 x2 .. x_{2n-2} x_{2n-1}^-1 .. x1^-1 and shifts the rest down.  Its
    2(2n+1)-th power is conjugation by
    Sigma = x0 x2 .. x_{2n-2} (x0 x1 .. x_{2n-1})^-1 x1 x3 .. x_{2n-1}.
    """
    if n < 1:
        raise ValueError("odd Artin spec needs n >= 1")
    rank = 2 * n
    evens = Word.make((i, 1) for i in range(0, rank, 2))
    odds_desc_inv = Word.make((i, -1) for i in range(rank - 1, 0, -2))
    head = evens * odds_desc_inv
    psi = _shift_automorphism(rank, head)
    all_gens = Word.make((i, 1) for i in range(rank))
    odds = Word.make((i, 1) for i in range(1, rank, 2))
    sigma = evens * all_gens.inverse() * odds
    return HnnSpec(rank=rank, phi=psi, n=2 * (2 * n + 1), w0=sigma)


def artin_spec(m: int) -> HnnSpec:
    """The HNN spec of the Artin group A(m), m >= 3: the even spec of rank
    m/2 for even m, the odd spec of rank m - 1 for odd m."""
    if m < 3:
        raise ValueError("Artin index m must be at least 3")
    n, odd = divmod(m, 2)
    return artin_odd_spec(n) if odd else artin_even_spec(n)


def canonical_relation(m: int):
    """The alternating relation w_m(x,y) = w_m(y,x) of A(m), both sides as
    lists of (letter, sign) pairs over the letters x, y."""
    n, rem = divmod(m, 2)
    lhs = [("x", 1), ("y", 1)] * n + [("x", 1)] * rem
    rhs = [("y", 1), ("x", 1)] * n + [("y", 1)] * rem
    return lhs, rhs


def artin_canonical(m: int):
    """Canonical two-generator presentation data for Artin index m >= 3.

    Returns (x, y, (lhs, rhs)), mixed words over artin_spec(m), with (lhs,
    rhs) the canonical relation at x, y: even m = 2n gives x = x0, y = t and
    (x0 t)^n = (t x0)^n; odd m = 2n+1 gives x = t, y = x0 t and (t x0 t)^n t
    = (x0 t^2)^n x0 t.  Both sides are verified equal by normal form.
    """
    spec = artin_spec(m)
    t, x0 = MixedWord.t(), MixedWord.gen(0)
    letters = {"x": x0, "y": t} if m % 2 == 0 else {"x": t, "y": x0 * t}
    lhs, rhs = (
        MixedWord(tuple(chain.from_iterable(
            (letters[name] ** sign).syms for name, sign in side)))
        for side in canonical_relation(m)
    )
    if not equal(spec, lhs, rhs):
        raise VerificationError(f"canonical relation fails for m = {m}")
    return letters["x"], letters["y"], (lhs, rhs)


class HolomorphCheck(Record, frozen=True):
    """Result of holomorph_conjugation_check: whether it verified, and by
    which convention."""

    _fields = ("ok", "convention")
    convention = None

    def __bool__(self):
        return self.ok


def holomorph_conjugation_check(phi: Endomorphism, g: Word) -> HolomorphCheck:
    """Check that conjugating the inner map of g by phi gives the inner map
    of phi(g), trying both composition-order conventions.

    With ghat(w) = g w g^-1, the candidate identities are
    phi o ghat o phi^-1 = inner(phi(g))   ("ltr": phi^-1 applied first) and
    phi^-1 o ghat o phi = inner(phi(g))   ("rtl": phi applied first).
    Returns which convention verifies on every generator, if either does.
    """
    if not phi.invertible:
        raise ValueError("phi must be invertible")
    rank = phi.rank
    if g.min_rank > rank:
        raise ValueError("g outside the rank of phi")
    ghat = inner_endomorphism(rank, g)
    target = inner_endomorphism(rank, phi.apply(g))
    phi_inv = phi.inverse()
    ltr = phi.compose(ghat).compose(phi_inv)
    rtl = phi_inv.compose(ghat).compose(phi)
    if ltr.same_map(target):
        return HolomorphCheck(True, "ltr")
    if rtl.same_map(target):
        return HolomorphCheck(True, "rtl")
    return HolomorphCheck(False, None)
