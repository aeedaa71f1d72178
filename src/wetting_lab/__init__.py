"""Wetting transitions of pinned walks and self-avoiding lattice paths.

Transfer-matrix partition functions, spectral localization certificates,
scale-doubling delocalization certificates, and certified truncated
enumeration of weighted self-avoiding lattice paths.
"""

__version__ = "0.1.0"
