"""critheat: spectral laboratory for the 4D energy-critical nonlinear heat equation."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    PhysicalField,
    SpectralField,
    TorusGrid,
    sobolev_norm_sq,
    transform_forward,
    transform_inverse,
)
