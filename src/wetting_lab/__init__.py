"""Wetting transitions of pinned walks and self-avoiding lattice paths.

Transfer-matrix partition functions, spectral localization certificates,
scale-doubling delocalization certificates, and certified truncated
enumeration of weighted self-avoiding lattice paths.
"""

__version__ = "0.1.0"

from .kernels import WalkKernel, make_binomial, make_sos
from .potentials import PinningPotential, decouple, make_family, rho
from .certificates import Certificate, Evidence

__all__ = [
    "WalkKernel",
    "PinningPotential",
    "Certificate",
    "Evidence",
    "make_binomial",
    "make_sos",
    "make_family",
    "rho",
    "decouple",
    "__version__",
]
