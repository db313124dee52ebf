"""Error types shared across the package."""


def _excerpt(text: str) -> str:
    """``text`` as an error message names it: repr(text) up to 40
    characters, a longer text by its first and last eight characters and
    its length, so that no message repeats a long argument whole."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:8]}...{text[-8:]} ({len(text)} characters)"


class SectorPackError(Exception):
    """Base class for all domain errors raised by this package."""


class NotCoprime(SectorPackError):
    """Sector parameters n and m share a common factor."""


class NotInvertible(SectorPackError):
    """Requested modular inverse does not exist."""


class PointOutsideSector(SectorPackError):
    """A lattice point was required to lie in a sector but does not."""


class NegativeImage(SectorPackError):
    """A lattice map sent a point outside the first quadrant."""


class NotAdmissible(SectorPackError):
    """Sector fails a divisibility requirement (n must divide (m-1)**2)."""


class DegenerateDual(SectorPackError):
    """The dual sector parameter n+2-m is out of range or not coprime to n."""


class ZeroStep(SectorPackError):
    """Polynomial is constant along staircases; no stair step exists."""


class NonIntegralStep(SectorPackError):
    """Stair-to-stair difference is not an integer."""


class NonIntegralOffset(SectorPackError):
    """Constant term of a candidate polynomial is not an integer."""


class CongruenceViolation(SectorPackError):
    """Stair count k is in the wrong residue class modulo n/l."""


class NotConsecutive(SectorPackError):
    """First-stair values are not k distinct consecutive integers."""


class NonTerminatingShape(SectorPackError):
    """Polynomial shape admits no finite enumeration bound."""
