"""Quadratic packing polynomials on rational sectors of the plane.

A packing polynomial on a region is a polynomial whose restriction to
the region's lattice points is a bijection onto the nonnegative
integers.  This package classifies, constructs, verifies, and applies
the quadratic ones on the sectors S(n/m) = {x, y >= 0, y <= (n/m) x},
with an independent brute-force oracle backing every claim at desk
scale.

Importing the package loads none of its modules: each public name loads
its module on first use (PEP 562) and is cached on the package, so a CLI
command pays only for the modules it runs.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "Classification",
        "Entry",
        "Provenance",
        "admissible_ks",
        "cantor_polys",
        "classify",
        "nathanson_polys",
    ),
    "codec": ("PairingScheme", "make_scheme"),
    "errors": (
        "CongruenceViolation",
        "DegenerateDual",
        "NegativeImage",
        "NonIntegralOffset",
        "NonIntegralStep",
        "NonTerminatingShape",
        "NotAdmissible",
        "NotConsecutive",
        "NotCoprime",
        "NotInvertible",
        "PointOutsideSector",
        "SectorPackError",
        "ZeroStep",
    ),
    "polynomials": (
        "Direction",
        "KStairForm",
        "QuadPoly",
        "construct",
        "kstair_extract",
        "necessary_coefficients",
        "stanton_check",
        "stanton_quadratic",
    ),
    "render": ("RenderSpec", "render"),
    "search": ("SearchParams", "search"),
    "sectors": (
        "QUADRANT",
        "LatticeMap",
        "LatticePoint",
        "Quadrant",
        "Sector",
        "identity_map",
        "mod_inverse",
        "parse_sector",
        "sector",
        "t_dual",
        "w_reduce",
    ),
    "sweep": ("SweepReport", "SweepRow", "sweep"),
    "verify": (
        "PrefixReport",
        "PrefixStatus",
        "enumerate_upto",
        "prefix_check",
        "rectangle_points",
    ),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

# Submodules reachable as package attributes; classify, render, search and
# sweep are not among them, since those names are their modules' functions.
_SUBMODULES = frozenset(_EXPORTS) - frozenset(_SOURCE)


class _LazyPackage(types.ModuleType):
    def __getattr__(self, name):
        if name in _SOURCE:
            value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
        elif name in _SUBMODULES:
            value = import_module(f"{__name__}.{name}")
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        types.ModuleType.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        # Loading a submodule binds it onto its package; the submodules
        # classify, render, search and sweep must not shadow their own
        # functions.
        if name in _SOURCE and isinstance(value, types.ModuleType):
            return
        types.ModuleType.__setattr__(self, name, value)

    def __dir__(self):
        return sorted(set(types.ModuleType.__dir__(self)) | set(__all__) | _SUBMODULES)


sys.modules[__name__].__class__ = _LazyPackage
