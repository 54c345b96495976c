"""Exact commutative algebra for verifying finite generation of symbolic Rees
rings of ideals of finite point sets in the projective plane."""

from .errors import SymreesError
from .fields import (
    CyclotomicField,
    FieldSpec,
    PrimeField,
    RationalField,
    cyclotomic_polynomial,
    embed_root_into_prime_field,
    make_field,
)
from .groebner import (
    GroebnerBasis,
    normal_form,
    reduced_groebner_basis,
)
from .ideals import INFINITE, Ideal, intersect_all
from .parsing import parse_polynomial, parse_scalar
from .points import (
    PointSet,
    ProjectivePoint,
    base_ring,
    defining_ideal,
    points_ideal,
    symbolic_power_ideal,
    symbolic_power_membership,
)
from .polynomials import (
    DS,
    GREVLEX,
    BlockOrder,
    GrevlexOrder,
    NegDegRevlexOrder,
    PolyRing,
    Polynomial,
)
from .configs import (
    Configuration,
    WitnessPair,
    fermat,
    grid_example,
    line_through,
    three_points,
    two_pencils,
)
from .verifier import (
    METHOD_HOMOGENEOUS,
    METHOD_LENGTH,
    VERDICT_NOT_ESTABLISHED,
    VERDICT_VERIFIED,
    GenericLinearForm,
    VerificationReport,
    check_condition_by_length,
    check_homogeneous_condition,
    local_length_at_origin,
    pick_generic_linear_form,
    verify,
)

__version__ = "0.1.0"
