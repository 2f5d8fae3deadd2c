"""Exact MacWilliams-identity machinery for Krawtchouk association schemes.

Every result is an exact integer or rational.  The eigenmatrix, transforms,
moments and maximal codes are summed in plain integers; the b-nary closed
forms and the polynomial algebra that check them use exact rationals.  The
algebraic side (b-nary combinatorics, eigenvalue polynomials, the
homogeneous polynomial algebra, transforms and moments) is verified against
a brute-force finite-field oracle on desk-scale schemes.
"""

__version__ = "0.1.0"

from .bnary import beta, gamma, gauss, sigma
from .eigenvalues import (
    SchemeParams,
    c_poly,
    check_recurrence,
    delsarte_p,
    eigenmatrix,
    hermitian_recurrence_equiv,
)
from .macwilliams import (
    TransformInput,
    UnrealizableDistribution,
    maximal_distribution,
    moment_b,
    moment_binv,
    transform_eigen,
    transform_functional,
)
from .schemes import (
    make_scheme,
    omega_enumerator,
    scheme_from_json,
    scheme_to_json,
    xi,
    xi_vector,
)

__all__ = [
    "SchemeParams",
    "TransformInput",
    "UnrealizableDistribution",
    "beta",
    "c_poly",
    "check_recurrence",
    "delsarte_p",
    "eigenmatrix",
    "gamma",
    "gauss",
    "hermitian_recurrence_equiv",
    "make_scheme",
    "maximal_distribution",
    "moment_b",
    "moment_binv",
    "omega_enumerator",
    "scheme_from_json",
    "scheme_to_json",
    "sigma",
    "transform_eigen",
    "transform_functional",
    "xi",
    "xi_vector",
]
