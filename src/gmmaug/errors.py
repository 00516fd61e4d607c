"""Exception hierarchy shared by all modules.

Two branches matter for the CLI: ``InputError`` maps to exit code 2
(bad files, bad shapes, not enough data) and ``NumericalError`` maps to
exit code 3 (fits or normalizations that degenerate on valid input).
"""


class GmmAugError(Exception):
    """Base class for every error raised by this package."""


class InputError(GmmAugError):
    """Invalid input: unreadable file, wrong shape, not enough data."""


class NumericalError(GmmAugError):
    """Numerical failure on otherwise well-formed input."""


class NotNiftiError(InputError):
    """File is not a single-file NIfTI-1 volume."""


class CorruptFileError(InputError):
    """File is recognised but truncated or internally inconsistent."""


class UnsupportedDatatypeError(InputError):
    """NIfTI datatype or dimensionality outside the supported subset."""


class ShapeMismatchError(InputError):
    """Two grids that must align have different dimensions."""


class EmptyMaskError(InputError):
    """A foreground mask selected no voxels."""


class InsufficientDataError(InputError):
    """Too few samples or too few readable volumes to proceed."""


class InvalidStatsError(InputError):
    """Population statistics file violates the expected schema."""


class InvalidSpecError(InputError):
    """Phantom specification violates its invariants."""


class DegenerateIntensityError(NumericalError):
    """Intensity distribution has no usable spread: none (a constant image), or beyond float64."""


class DegenerateComponentError(NumericalError):
    """A mixture component's responsibility mass collapsed during EM."""
