"""Mixture-based intensity augmentation for skull-stripped 3-D brain MRI.

Fits a per-image Gaussian mixture to tissue intensities, perturbs each
component within population-derived bounds, and remaps voxels through a
structure-preserving standardised-distance transform, so single-scanner
training data gains multi-scanner contrast variability.
"""

from .augment import (
    Perturbation,
    PerturbedGmm,
    apply_perturbation,
    augment_draws,
    augment_volume,
    provenance_dict,
    remap,
    sample_perturbation,
)
from .errors import (
    CorruptFileError,
    DegenerateComponentError,
    DegenerateIntensityError,
    EmptyMaskError,
    GmmAugError,
    InputError,
    InsufficientDataError,
    InvalidSpecError,
    InvalidStatsError,
    NotNiftiError,
    NumericalError,
    ShapeMismatchError,
    UnsupportedDatatypeError,
)
from .gmm import VARIANCE_FLOOR, EmConfig, GmmParams, fit_em, responsibilities
from .metrics import OverlapReport, outlier_fraction, overlap, summarize
from .phantom import PhantomSpec, generate_phantom
from .population import PopulationStats, estimate_population, load_stats, save_stats
from .preprocess import clip_normalize
from .volume import (
    LabelVolume,
    Volume,
    foreground_mask,
    read_label_volume,
    read_volume,
    write_label_volume,
    write_volume,
)

__version__ = "0.1.0"

__all__ = [
    "CorruptFileError",
    "DegenerateComponentError",
    "DegenerateIntensityError",
    "EmConfig",
    "EmptyMaskError",
    "GmmAugError",
    "GmmParams",
    "InputError",
    "InsufficientDataError",
    "InvalidSpecError",
    "InvalidStatsError",
    "LabelVolume",
    "NotNiftiError",
    "NumericalError",
    "OverlapReport",
    "Perturbation",
    "PerturbedGmm",
    "PhantomSpec",
    "PopulationStats",
    "ShapeMismatchError",
    "UnsupportedDatatypeError",
    "VARIANCE_FLOOR",
    "Volume",
    "apply_perturbation",
    "augment_draws",
    "augment_volume",
    "clip_normalize",
    "estimate_population",
    "fit_em",
    "foreground_mask",
    "generate_phantom",
    "load_stats",
    "outlier_fraction",
    "overlap",
    "provenance_dict",
    "read_label_volume",
    "read_volume",
    "remap",
    "responsibilities",
    "sample_perturbation",
    "save_stats",
    "summarize",
    "write_label_volume",
    "write_volume",
]
