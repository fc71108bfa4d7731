"""pinkforge: Lie-theoretic analysis of two-dimensional pseudo-representation
images over finite local rings, with mod-p modular form coefficient
densities at level one."""

__version__ = "0.1.0"

from .localring import LocalRing, SemiLocalRing, make_truncated_poly_ring  # noqa: F401
from .gma import GmaStructure, m2_structure, reduced_residue_gma  # noqa: F401
from .pseudorep import FiniteMatrixGroup, PseudoRep  # noqa: F401
from .pinklie import (  # noqa: F401
    LieSubspace,
    descending_series,
    example8,
    generate_group,
    lie_of_subgroup,
    pink_converse,
    theta,
    theta_inv,
)
from .modforms import FpSeries, delta_expansion, density_sweep, hecke_T, hecke_U  # noqa: F401
