"""Exact quantum theory over the monoid fields {0} + mu_l.

The ground structure is multiplication-only: units are roots of unity held
as exponents, there is no addition, and everything downstream (partial
Hermitian forms, monomial operators, wreath-product unitary groups,
no-cloning searches, almost-unitary deletion, and the finite-field
comparison dictionary) is computed exactly over that structure.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
