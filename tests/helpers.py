"""Helpers that several test modules share."""

from hnnrep.ring import QpScalar

# SHA-256 of json.dumps(rep.to_json(), sort_keys=True) for Int(G).G of the
# degree-3 group <e21(2), e12(2), e23(3)> <= SL_3(Z), recorded from the
# build that decided spans on the whole sample of 1,597 words to length 3.
DEGREE3_JSON_SHA256 = (
    "4d39dc9bf594471e95da5bbbfaa18df25c3d190d857580b8303566450c96ede3"
)


def specialize(poly, lam0: int, mu0: int, prime: int) -> QpScalar:
    """Evaluate the LaurentPoly poly at lam = lam0, mu = mu0, s = prime,
    landing in Q_p."""
    shift = max((0,) + tuple(-c for (_, _, c) in poly.terms))
    num = 0
    for (a, b, c), coeff in poly.terms.items():
        num += coeff * lam0**a * mu0**b * prime ** (c + shift)
    return QpScalar(num, shift, prime)
