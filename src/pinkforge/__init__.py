"""pinkforge: Lie-theoretic analysis of two-dimensional pseudo-representation
images over finite local rings, with mod-p modular form coefficient
densities at level one."""

__version__ = "0.1.0"

from .localring import (  # noqa: F401
    LocalRing,
    RingElem,
    SemiLocalRing,
    hensel_sqrt,
    invert,
    make_truncated_poly_ring,
)
from .gma import GmaElem, GmaStructure, m2_structure, reduced_residue_gma  # noqa: F401
from .pseudorep import FiniteMatrixGroup, PseudoRep  # noqa: F401
from .pinklie import (  # noqa: F401
    LieSubspace,
    descending_series,
    example8,
    generate_sr1,
    lie_of_subgroup,
    pink_converse,
    theta,
    theta_inv,
)
from .modforms import FpSeries, delta_expansion, density_sweep, hecke_T, hecke_U  # noqa: F401
