"""Exception hierarchy shared across the package.

Three branches matter for the CLI: ``InputError`` (bad parameters or
malformed input, exit code 2), ``ResourceLimitError`` (a configured
computational budget ran out, exit code 3) and ``InvariantError`` (an
internal consistency check failed, a bug: exit code 4).
"""


class SymreesError(Exception):
    """Base class for package errors."""


class InputError(SymreesError):
    """Invalid input, parameters outside the supported range, or failed validation."""


class ResourceLimitError(SymreesError):
    """A configured computational budget was exhausted."""


class InvariantError(SymreesError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# --- fields -----------------------------------------------------------------

class NoSuchRootError(InputError):
    """The requested root of unity does not exist in the field."""


class MissingRootsError(InputError):
    """A factorization needs roots the coefficient field does not contain."""


# --- polynomials ------------------------------------------------------------

class VariableMismatchError(InputError):
    """Operands live over different variable lists."""


class FieldMismatchError(InputError):
    """Operands live over different coefficient fields."""


class ZeroPolynomialError(InputError):
    """The zero polynomial has no degree / lead term."""


# --- ideals -----------------------------------------------------------------

class EmptyIdealError(InputError):
    """All supplied generators were zero."""


class NotHomogeneousError(InputError):
    """The operation requires homogeneous input."""


class WrongDimensionError(InputError):
    """The ideal does not have the dimension the operation requires."""


class BudgetExceededError(ResourceLimitError):
    """A pairwise-intersection budget was passed."""


class CapExceededError(ResourceLimitError):
    """The truncation loop hit its cap without stabilizing."""


# --- configurations ---------------------------------------------------------

class CollinearPointsError(InputError):
    """Three-point construction rejects collinear triples."""


class DuplicatePointsError(InputError):
    """Point sets must consist of pairwise distinct points."""


class UnsupportedNError(InputError):
    """Grid exponent outside the supported range."""


class BadAlphaError(InputError):
    """The pencil-mixing scalar must avoid 0 and 1."""


class DegenerateParametersError(InputError):
    """Pencil sizes below 2 are not handled by this construction."""


class ProportionalFactorsError(InputError):
    """Linear factors within one pencil must be pairwise non-proportional."""


class FactorThroughWrongPointError(InputError):
    """Each pencil factor must vanish at its base point and not at the other."""


class SamePointError(InputError):
    """Two distinct points are required."""


# --- verification -----------------------------------------------------------

class GenericityExhaustedError(InputError):
    """No acceptable linear form was found within the draw budget."""


# --- parsing ----------------------------------------------------------------

class PolynomialSyntaxError(InputError):
    """Malformed polynomial text; carries the offending offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbolError(PolynomialSyntaxError):
    """An identifier that is neither a variable nor the field generator."""
