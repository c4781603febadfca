"""Weyl-orbit functions of the A-series Lie algebras and the multivariate
Chebyshev-type polynomials they generate."""

from .lie import (
    MAX_RANK,
    congruence_number,
    inner_product,
    is_dominant,
    is_strictly_dominant,
    omega_to_e,
)
from .weyl import SignedOrbit, dominant_representative, orbit, orbit_size, reflect
from .orbit_functions import (
    NonGenericWeightWarning,
    d_alt,
    d_minus,
    d_plus,
    eval_c,
    eval_e,
    eval_s,
    permanent,
)
from .exp_ring import (
    ExpSum,
    InexactDivisionError,
    NotInvariantError,
    OrbitDecomposition,
    TermMap,
    character,
    decompose_into_c,
    exact_divide,
    exp_sum,
    orbit_product,
)
from .chebyshev import (
    XPolynomial,
    YLaurent,
    poly_t,
    poly_u,
    recursion_relation,
    substitute_p,
)
from .analysis import (
    DEFAULT_SEED,
    AliasingWarning,
    laplacian_eigenvalue_check,
    quadrature_inner_product,
    run_suite,
    symmetry_suite,
    torus_inner_product,
)

__version__ = "0.1.0"
