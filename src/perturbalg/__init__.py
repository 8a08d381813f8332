"""Exact perturbation algebra over truncated power series.

Infinitesimals are modeled as generators of a valuation ring of formal power
series with Gaussian-rational coefficients, truncated by total degree.  On
top of that ring the package implements perturbed-polynomial root
asymptotics, the nested-scale (Goze) decomposition, the perturbed GCD,
transfer-function simplification, characteristic-polynomial perturbation of
matrices, and a floating-point oracle that cross-checks every asymptotic
statement numerically.
"""

from .errors import (
    DegenerateError,
    DomainError,
    NonUnitError,
    OracleError,
    ParseError,
    PerturbAlgError,
    RingMismatchError,
    UnsupportedOrderError,
)
from .exactpoly import ExactPolynomial, ExactRationalFunction, poly_gcd
from .goze import GozeDecomposition, decompose
from .matrices import (
    ConstantMatrix,
    PerturbedMatrix,
    char_poly,
    charpoly_expansion,
    conservative_residuals,
    eigenvalue_correction,
    hermitian_first_order,
    minor_sum,
    orbit_dimension,
    perturbation_poly,
    polarize,
    xi_first_order,
)
from .oracle import (
    ConvergenceReport,
    poly_roots_numeric,
    verify_eigenvalues,
    verify_pgcd,
    verify_quadratic_balance,
    verify_root_asymptotics,
)
from .ppoly import (
    BalanceQuadratic,
    PerturbedPolynomial,
    RootAsymptotics,
    dominant_balance,
    euclid_divide,
    monic_shadow,
    pgcd,
    root_correction,
)
from .scalars import GaussianRational
from .series import (
    SeriesRing,
    TruncatedSeries,
    classify,
    divide_univariate,
    univariate_ring,
)
from .transfer import RationalFunction, SimplificationReport, first_order_correction, simplify

__version__ = "0.1.0"
