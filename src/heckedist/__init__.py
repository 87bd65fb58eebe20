"""heckedist: Hecke eigenvalue statistics over Q and real quadratic fields.

Subsystems: exact field/ideal arithmetic (numberfield, quadforms), twisted
Kloosterman sums (kloosterman), Chebyshev polynomials (chebyshev), the
semicircle/spectral measure family (measures), Hecke eigenvalue
combinatorics and descent data (heckealg), weighted equidistribution tests
(equidist), tail estimates (bounds), eigenvalue ingestion (datasource), and
a CLI (cli).
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
