"""The package's public names: 53 names, one per operation, each loaded
from its module on first use."""

from __future__ import annotations

import importlib

import pytest

import sectorpack
from helpers import run_fresh

EXPORTS = {
    "classify": (
        "Classification", "Entry", "Provenance", "admissible_ks", "cantor_polys", "classify",
        "nathanson_polys",
    ),
    "codec": ("PairingScheme", "make_scheme"),
    "errors": (
        "CongruenceViolation", "DegenerateDual", "NegativeImage", "NonIntegralOffset",
        "NonIntegralStep", "NonTerminatingShape", "NotAdmissible", "NotConsecutive", "NotCoprime",
        "NotInvertible", "PointOutsideSector", "SectorPackError", "ZeroStep",
    ),
    "polynomials": (
        "Direction", "KStairForm", "QuadPoly", "construct", "kstair_extract", "necessary_coefficients",
        "stanton_check", "stanton_quadratic",
    ),
    "render": ("RenderSpec", "render"),
    "search": ("SearchParams", "search"),
    "sectors": (
        "QUADRANT", "LatticeMap", "LatticePoint", "Quadrant", "Sector", "identity_map",
        "mod_inverse", "parse_sector", "sector", "t_dual", "w_reduce",
    ),
    "sweep": ("SweepReport", "SweepRow", "sweep"),
    "verify": (
        "PrefixReport", "PrefixStatus", "enumerate_upto", "prefix_check", "rectangle_points",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]


# names that only restated another call (QuadPoly.compose, LatticeMap.apply,
# the PairingScheme methods, math.gcd, fractions.Fraction), reported the
# SECTORPACK_THREADS cap, sampled the stair step kstair_extract decides, or
# only tests read (determine_offset: construct reads the start values itself)
REMOVED = (
    "InvalidEnvironment", "Rational", "apply_map", "decode", "determine_offset", "encode",
    "gcd", "kstair_property_check", "stream", "transport",
)


def test_all_is_the_53_names():
    assert len(NAMES) == len(set(NAMES)) == 53
    assert sorted(sectorpack.__all__) == sorted(NAMES)
    assert sectorpack.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_modules_object(module):
    source = importlib.import_module(f"sectorpack.{module}")
    for name in EXPORTS[module]:
        assert getattr(sectorpack, name) is getattr(source, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(sectorpack, name)


def test_sector_stairs_is_gone():
    # tests list a staircase's stairs by scan (helpers.stairs_scan)
    with pytest.raises(AttributeError, match="'stairs'"):
        sectorpack.sector(8, 5).stairs


def test_codec_has_only_the_scheme_methods():
    import sectorpack.codec

    for name in ("encode", "decode", "stream"):
        assert not hasattr(sectorpack.codec, name), name
        assert callable(getattr(sectorpack.codec.PairingScheme, name)), name


def test_dir_lists_the_names():
    assert set(NAMES) <= set(dir(sectorpack))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sectorpack.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sectorpack import no_such_name", {})


def test_star_import_binds_the_names():
    out = run_fresh("from sectorpack import *\nprint(sorted(k for k in dir() if not k.startswith('_')))")
    assert out.strip() == repr(sorted(NAMES))


@pytest.mark.parametrize("module", ["verify", "codec", "sectors", "polynomials", "errors"])
def test_submodule_after_plain_import(module):
    # `sectorpack.verify` with no import of the submodule gives the
    # submodule, as when `__init__` imported every module
    probe = f"import sectorpack\nm = sectorpack.{module}\nprint(type(m).__name__, m.__name__)"
    assert run_fresh(probe).split() == ["module", f"sectorpack.{module}"]


SHADOWED = ("classify", "render", "search", "sweep")


@pytest.mark.parametrize(
    "first",
    [
        "sectorpack.sweep",
        "import sectorpack.sweep",
        "import sectorpack.cli",
        "import sectorpack.cli\nsectorpack.cli.main(['classify', '8/5', '--json'])",
        "import sectorpack.classify, sectorpack.render, sectorpack.search, sectorpack.sweep",
        "from sectorpack.sweep import SweepRow",
        "import sectorpack.search",
        "from sectorpack.search import SearchParams",
    ],
)
def test_function_names_survive_their_submodules(first):
    # classify, render, search and sweep name both a submodule and its
    # function; loading the submodule, in any order, must not rebind the name
    probe = f"""import sys, sectorpack
{first}
from sectorpack import classify, render, search, sweep
for name, value in zip({SHADOWED!r}, (classify, render, search, sweep)):
    assert callable(value), name
    assert value is getattr(sectorpack, name) is vars(sys.modules["sectorpack." + name])[name], name
print("ok")
"""
    assert run_fresh(probe).splitlines()[-1] == "ok"
