"""Quadratic packing polynomials on rational sectors of the plane.

A packing polynomial on a region is a polynomial whose restriction to
the region's lattice points is a bijection onto the nonnegative
integers.  This package classifies, constructs, verifies, and applies
the quadratic ones on the sectors S(n/m) = {x, y >= 0, y <= (n/m) x},
with an independent brute-force oracle backing every claim at desk
scale.
"""

from .classify import (
    Classification,
    Entry,
    Provenance,
    admissible_ks,
    cantor_polys,
    classify,
    nathanson_polys,
)
from .codec import PairingScheme, decode, encode, make_scheme, stream
from .errors import (
    CongruenceViolation,
    DegenerateDual,
    InvalidEnvironment,
    NegativeImage,
    NonIntegralOffset,
    NonIntegralStep,
    NonTerminatingShape,
    NotAdmissible,
    NotConsecutive,
    NotCoprime,
    NotInvertible,
    PointOutsideSector,
    SectorPackError,
    ZeroStep,
)
from .polynomials import (
    Direction,
    KStairForm,
    QuadPoly,
    construct,
    determine_offset,
    kstair_extract,
    necessary_coefficients,
    stanton_check,
    stanton_quadratic,
    transport,
)
from .render import RenderSpec, render
from .sectors import (
    QUADRANT,
    LatticeMap,
    LatticePoint,
    Quadrant,
    Rational,
    Sector,
    apply_map,
    gcd,
    identity_map,
    mod_inverse,
    parse_sector,
    sector,
    t_dual,
    w_reduce,
)
from .sweep import SweepReport, SweepRow, sweep
from .verify import (
    PrefixReport,
    PrefixStatus,
    SearchParams,
    enumerate_upto,
    kstair_property_check,
    prefix_check,
    rectangle_points,
    search,
)

__version__ = "0.1.0"
