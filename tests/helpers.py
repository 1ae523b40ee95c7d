"""Helpers that several test modules share."""

from fractions import Fraction

from hnnrep.errors import OracleError
from hnnrep.matrix import RingMatrix, _write_json
from hnnrep.ring import QQ, QpScalar
from hnnrep.splittable import MatrixGroupGens, SplittableRep, letter_name, word_str
from hnnrep.words import reduced_walk

# SHA-256 of json.dumps(rep.to_json(), sort_keys=True) for Int(G).G of the
# degree-3 group <e21(2), e12(2), e23(3)> <= SL_3(Z), recorded from the
# build that decided spans on the whole sample of 1,597 words to length 3.
DEGREE3_JSON_SHA256 = (
    "4d39dc9bf594471e95da5bbbfaa18df25c3d190d857580b8303566450c96ede3"
)

# SHA-256 of the file `hnnrep build <flags> --out FILE` writes, for builds
# past the benchmark's m <= 10, recorded from the builds that evaluated
# every image of the induced representation.
LARGE_BUILD_SHA256 = {
    "--m 15": "83291d45cc808868f7381600c22e5962c1e5e66ddb776a305a2f92c091dee1ab",
    "--m 21": "433bf0b310d63954654beab42b41d1a9b9ad67422853f7399099bd91946e5808",
    "--m 31 --lambda 2 --mu 3 --s 5":
        "6c1cc3d7d5e1bd34e582b64b8d3ebb8cbb78d43f4615ef886081bc17a48db96d",
    "--m 21 --integer": "ad9c3693f2fbb1c1500b1e7958770e219e718aca95673397460f55790321d2f7",
}


def _json_text(obj, indent=""):
    """The text of json.dumps(obj, indent=2, sort_keys=True) at nesting
    prefix indent, for dicts with str keys, lists, str, int, bool and None,
    where a BlockMonomial stands for its dense document
    (to_matrix().to_json()); TypeError for anything else (a float, a tuple,
    a non-str key).  The fragments go into one list, joined once."""
    out = []
    _write_json(obj, indent, out, {})
    return "".join(out)


def specialize(poly, lam0: int, mu0: int, prime: int) -> QpScalar:
    """Evaluate the LaurentPoly poly at lam = lam0, mu = mu0, s = prime,
    landing in Q_p."""
    shift = max((0,) + tuple(-c for (_, _, c) in poly.terms))
    num = 0
    for (a, b, c), coeff in poly.terms.items():
        num += coeff * lam0**a * mu0**b * prime ** (c + shift)
    return QpScalar(num, shift, prime)


def letter_record(phi_gens, g_gens, oracle, word_len: int) -> MatrixGroupGens:
    """The conjugator record of a black-box oracle's Phi letters, once a
    sample of Phi-words shows that the oracle is the product of its
    letters, as the engine, which takes only records, assumes.

    oracle.tau_pair(phi_word) gives (tau(w), tau(w)^-1) for a Phi-word w of
    (generator index, sign) letters.  tau of the empty word must be (I, I),
    and each letter's pair must multiply to I.  Then every reduced Phi-word
    w of length 1 to word_len is checked against the product p(w) of the
    letters' +1 pairs, which is what the engine builds from the record: a
    word of length 2 or more must multiply to I, and tau(w) p(w)^-1 must
    commute with each G generator, so that tau(w) and p(w) conjugate G
    alike.  A failure raises OracleError naming the word; otherwise the
    record holds the +1 letters' pairs, one per Phi generator."""
    ident = RingMatrix.identity(QQ, g_gens.degree)

    def pair(word):
        val, inv = oracle.tau_pair(tuple((i, s) for _, i, s in word))
        if val * inv != ident:
            raise OracleError(f"tau inverse wrong on {word_str(word)}")
        return val, inv

    if tuple(oracle.tau_pair(())) != (ident, ident):
        raise OracleError(
            f"tau of the empty word {word_str(())} is not the identity pair")
    pairs = [(("phi", i, 1), ("phi", i, -1)) for i in range(len(phi_gens.pairs))]
    letters = {l: pair((l,)) for two in pairs for l in two}
    record = MatrixGroupGens(g_gens.degree, tuple(letters[l] for l, _ in pairs))

    def step(prod, letter):
        _, i, sign = letter
        val, inv = record.pairs[i]
        if sign == -1:
            val, inv = inv, val
        return prod[0] * val, inv * prod[1]

    for w, (_, p_inv) in reduced_walk(pairs, word_len, (ident, ident), step):
        z = (letters[w[0]] if len(w) == 1 else pair(w))[0] * p_inv
        if any(z * g != g * z for g, _ in g_gens.pairs):
            raise OracleError(
                f"tau({word_str(w)}) does not realize the letterwise action")
    return record


def action_rows(rep):
    """Each letter name's action rows {column: coefficient}, in basis order
    and with ints where integral, read from the representation's integer
    records (den * A, den): the Fraction view of what the checks and the
    document read."""
    return {
        letter_name(l): tuple(
            {j: x // a.den if x % a.den == 0 else Fraction(x, a.den)
             for j, x in row.items()}
            for row in a.rows)
        for l, a in rep._records.items()
    }


def with_action_rows(rep, name, rows):
    """A corrupted representation for fault injection: rep rebuilt by
    SplittableRep's constructor, so that every letter's record is made as
    the build makes it, with the letter called name acting by the sparse
    rows {column: coefficient} given and every other letter as in rep."""
    views = action_rows(rep)
    assert name in views, name
    return SplittableRep(
        rep.phi_gens, rep.g_gens, rep.tau, rep._kernel, rep._shifts,
        {l: rows if letter_name(l) == name else views[letter_name(l)]
         for l in rep.letters},
        rep.expansions, rep.sample_len, rep.letters,
        (rep.walk_rank, rep.walk_rows))
