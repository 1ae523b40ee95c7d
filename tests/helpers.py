"""Helpers that several test modules share."""

from hnnrep.ring import QpScalar


def specialize(poly, lam0: int, mu0: int, prime: int) -> QpScalar:
    """Evaluate the LaurentPoly poly at lam = lam0, mu = mu0, s = prime,
    landing in Q_p."""
    shift = max((0,) + tuple(-c for (_, _, c) in poly.terms))
    num = 0
    for (a, b, c), coeff in poly.terms.items():
        num += coeff * lam0**a * mu0**b * prime ** (c + shift)
    return QpScalar(num, shift, prime)
