"""Ion species: mass and charge of one ion type."""

import math
from dataclasses import dataclass
from numbers import Integral

from .constants import ATOMIC_MASS, ELEMENTARY_CHARGE


@dataclass(frozen=True)
class IonSpecies:
    """One ion type. ``mass`` is in kg, ``charge`` in units of e."""

    label: str
    mass: float
    charge: int = 1

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"ion mass must be positive, got {self.mass}")
        if not math.isfinite(self.mass):
            raise ValueError(f"ion mass must be finite, got {self.mass}")
        if isinstance(self.charge, bool) or not isinstance(self.charge, Integral):
            raise ValueError(f"ion charge must be an integer, got {self.charge!r}")
        if self.charge == 0:
            raise ValueError("ion charge must be nonzero")

    @property
    def charge_si(self) -> float:
        """Charge in coulombs."""
        return self.charge * ELEMENTARY_CHARGE


def make_species(label: str, mass_u: float, charge_e: int = 1) -> IonSpecies:
    """Build an IonSpecies from a mass in atomic mass units."""
    if not mass_u > 0:
        raise ValueError(f"mass_u must be positive, got {mass_u}")
    return IonSpecies(label=label, mass=mass_u * ATOMIC_MASS, charge=charge_e)


# Species used throughout the experiments this package models.
BE9 = make_species("Be9", 9.0122, 1)
MG24 = make_species("Mg24", 23.9850, 1)
MGH25 = make_species("MgH25", 25.994, 1)
