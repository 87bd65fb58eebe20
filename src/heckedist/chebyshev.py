"""Chebyshev polynomials X_l on the Hecke interval [-2, 2], without numpy.

X_0 = 1, X_1 = x, X_{m+1} = x X_m - X_{m-1} are orthonormal for the
semicircle measure, and X_l(lambda_p) is the normalized eigenvalue at p^l.
The recurrence runs on floats, numpy arrays and exact Fractions alike.
RAMANUJAN_SLACK is the tolerance every normalized eigenvalue is checked
against.  measures, equidist, heckealg and datasource import these names
from here, so `hecke power|relation` and `fetch --prime` start without numpy.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParameter

# tolerance on the Ramanujan bound |lambda| <= 2 for normalized eigenvalues
RAMANUJAN_SLACK = 1e-6


def _chebyshev(x):
    """X_0(x), X_1(x), ... without end, via X_0 = 1, X_1 = x, X_{m+1} = x X_m - X_{m-1}."""
    prev, cur = x * 0 + 1, x
    yield prev
    while True:
        yield cur
        prev, cur = cur, x * cur - prev


def chebyshev_eval(ell: int, x):
    """X_ell(x) for floats, numpy arrays and exact Fractions alike."""
    if ell < 0:
        raise InvalidParameter("ell must be >= 0")
    return next(itertools.islice(_chebyshev(x), ell, None))
