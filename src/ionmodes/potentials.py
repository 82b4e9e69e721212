"""Trap potential models.

The axial potential is a polynomial about an expansion origin,

    V(z) = sum_n kappa_n (z - z0)^n  -  E z,

with an optional per-species pseudopotential gradient term.  Anharmonic
coefficients can equivalently be expressed through the lengths
lambda_n = (kappa_n / kappa_2)^(1/(2-n)) at which the n-th order term
rivals the harmonic one.

The 3D model adds two radial curvatures (optionally pseudopotential-derived,
i.e. scaling as m_ref/m_i) and optional symmetric cubic/quartic trap tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .species import IonSpecies


@dataclass(frozen=True)
class AxialPotential:
    """Polynomial axial trap potential (coefficients in V m^-n).

    ``pseudo_gradient`` is an axial pseudopotential gradient in eV/m felt by
    a singly charged ion of the reference species; per ion it scales as
    m_ref/m_i (pseudopotential strength is inversely proportional to mass).
    """

    kappa: dict[int, float]
    uniform_field: float = 0.0          # V/m
    pseudo_gradient: float = 0.0        # eV/m for the reference species
    pseudo_reference: IonSpecies | None = None
    expansion_origin: float = 0.0       # m

    def __post_init__(self):
        ks = dict(sorted(self.kappa.items()))
        for n in ks:
            if n < 2:
                raise ValueError(f"polynomial orders start at n=2, got {n}")
        if not ks.get(2, 0.0) > 0:
            raise ValueError("kappa_2 must be positive (confining harmonic term)")
        if not np.isfinite([*ks.values(), self.uniform_field,
                            self.pseudo_gradient, self.expansion_origin]).all():
            raise ValueError("kappa, uniform_field, pseudo_gradient and "
                             "expansion_origin must be finite")
        if self.pseudo_gradient != 0.0 and self.pseudo_reference is None:
            raise ValueError("pseudo_gradient requires a reference species")
        object.__setattr__(self, "kappa", ks)
        # column m: coefficients of d^m V/dz^m in powers of (z - z0), with
        # the field's -E z = -E z0 - E (z - z0)
        taylor = np.zeros((max(ks) + 1,) * 2)
        for n, kn in ks.items():
            for m in range(n + 1):
                taylor[n - m, m] = kn * math.perm(n, m)
        taylor[0, 0] -= self.uniform_field * self.expansion_origin
        taylor[1, 0] -= self.uniform_field
        taylor[0, 1] -= self.uniform_field
        object.__setattr__(self, "_taylor", taylor)

    @property
    def kappa2(self) -> float:
        return self.kappa[2]

    def gradient_slope(self, species: IonSpecies) -> float:
        """Pseudopotential energy slope dU/dz in J/m for one ion."""
        if self.pseudo_gradient == 0.0:
            return 0.0
        scale = self.pseudo_reference.mass / species.mass
        return species.charge_si * self.pseudo_gradient * scale

    @property
    def axial(self) -> AxialPotential:
        """The axial polynomial itself (a TrapModel3D holds one too)."""
        return self

    def has_order(self, n: int) -> bool:
        """Whether the potential has a nonzero term of polynomial order n."""
        return bool(self.kappa.get(n, 0.0))

    def derivatives(self, z, orders, charge, slope=0.0) -> list:
        """d^k/dz^k of charge * V(z) + slope * z, in J/m^k, for each k in
        ``orders`` (k >= 0).

        ``slope`` is a pseudopotential slope in J/m (see ``gradient_slope``).
        Positions, charges and slopes broadcast, so one call covers a chain.
        """
        z = np.asarray(z, dtype=float)
        taylor = self._taylor
        # (z - z0)^j for j = 0, 1, ... as a running product
        powers = np.empty(z.shape + (len(taylor),))
        powers[..., 0] = 1.0
        powers[..., 1:] = (z - self.expansion_origin)[..., None]
        poly = np.multiply.accumulate(powers, axis=-1) @ taylor
        out = []
        for k in orders:
            acc = (poly[..., k] if k < len(taylor) else 0.0 * z) * charge
            if k == 0:
                acc = acc + slope * z
            elif k == 1:
                acc = acc + slope
            out.append(acc if np.ndim(acc) else float(acc))
        return out

    def energy_derivative(self, species: IonSpecies, z, order: int = 1):
        """d^k(qV)/dz^k; z may be an array."""
        return self.derivatives(z, (order,), species.charge_si,
                                self.gradient_slope(species))[0]


def axial_from_lambdas(kappa2: float, lambdas: dict[int, float],
                       **kwargs) -> AxialPotential:
    """Build an axial potential from kappa_2 and anharmonicity lengths.

    kappa_n = kappa_2 |lambda_n|^(2-n), with the sign of lambda_n.
    """
    if not kappa2 > 0:
        raise ValueError("kappa2 must be positive")
    kappa = {2: kappa2}
    for n, lam in lambdas.items():
        n = int(n)
        if n < 3:
            raise ValueError(f"lambda_n defined for n >= 3, got {n}")
        if lam == 0.0:
            raise ValueError(f"lambda_{n} must be nonzero")
        kappa[n] = kappa2 * math.copysign(abs(lam) ** (2 - n), lam)
    return AxialPotential(kappa=kappa, **kwargs)


def _symmetrize(arr: np.ndarray) -> np.ndarray:
    """Average an array over all permutations of its axes."""
    from itertools import permutations

    perms = list(permutations(range(arr.ndim)))
    return sum(np.transpose(arr, p) for p in perms) / len(perms)


@dataclass(frozen=True, eq=False)
class TrapModel3D:
    """Axial polynomial plus harmonic radial confinement and trap tensors.

    ``radial_curvatures`` are (kappa_x, kappa_y) in V/m^2 for the reference
    species; with ``radial_mass_scaling`` they scale as m_ref/m_i per ion
    (pseudopotential confinement).  ``trap_cubic``/``trap_quartic`` are
    symmetric rank-3/4 coefficient arrays in V m^-3 / V m^-4 acting on
    coordinates (x, y, z - z0); they are static terms and do not mass-scale.
    """

    axial: AxialPotential
    radial_curvatures: tuple[float, float]
    reference: IonSpecies
    trap_cubic: np.ndarray = field(default=None)
    trap_quartic: np.ndarray = field(default=None)
    radial_mass_scaling: bool = True

    def __post_init__(self):
        kx, ky = self.radial_curvatures
        if not (kx > 0 and ky > 0):
            raise ValueError("radial curvatures must be positive")
        if not np.isfinite(self.radial_curvatures).all():
            raise ValueError("radial curvatures must be finite")
        cubic = np.zeros((3, 3, 3)) if self.trap_cubic is None \
            else np.asarray(self.trap_cubic, dtype=float)
        quartic = np.zeros((3, 3, 3, 3)) if self.trap_quartic is None \
            else np.asarray(self.trap_quartic, dtype=float)
        if cubic.shape != (3, 3, 3) or quartic.shape != (3, 3, 3, 3):
            raise ValueError("trap tensors must have shapes (3,3,3) and (3,3,3,3)")
        if not (np.isfinite(cubic).all() and np.isfinite(quartic).all()):
            raise ValueError("trap tensors must be finite")
        for t in (cubic, quartic):
            # relative to the largest entry: an entry that nearly cancels
            # carries the rounding of the whole tensor
            if np.abs(t - _symmetrize(t)).max() > 1e-10 * np.abs(t).max():
                raise ValueError("trap tensors must be symmetric under index permutation")
        object.__setattr__(self, "trap_cubic", cubic)
        object.__setattr__(self, "trap_quartic", quartic)

    def radial_for(self, species: IonSpecies) -> tuple[float, float]:
        kx, ky = self.radial_curvatures
        if self.radial_mass_scaling:
            s = self.reference.mass / species.mass
            kx, ky = kx * s, ky * s
        return kx, ky

    def has_order(self, n: int) -> bool:
        """Whether the axial polynomial or a trap tensor has a nonzero term
        of polynomial order n."""
        tensor = {3: self.trap_cubic, 4: self.trap_quartic}.get(n)
        return self.axial.has_order(n) or (tensor is not None
                                           and bool(tensor.any()))


def trap3d_from_frequencies(ref: IonSpecies, f_radial: tuple[float, float],
                            axial: AxialPotential,
                            trap_cubic=None, trap_quartic=None,
                            radial_mass_scaling: bool = True) -> TrapModel3D:
    """3D trap whose single-ion radial frequencies (Hz) match ``f_radial``.

    kappa = m_ref (2 pi f)^2 / (2 q_ref), so the single-ion mode frequencies
    of the returned model reproduce the inputs for the reference species.
    """
    fx, fy = f_radial
    if not (fx > 0 and fy > 0):
        raise ValueError("radial frequencies must be positive")
    kx = ref.mass * (2 * math.pi * fx) ** 2 / (2 * ref.charge_si)
    ky = ref.mass * (2 * math.pi * fy) ** 2 / (2 * ref.charge_si)
    return TrapModel3D(axial=axial, radial_curvatures=(kx, ky), reference=ref,
                       trap_cubic=trap_cubic, trap_quartic=trap_quartic,
                       radial_mass_scaling=radial_mass_scaling)


def axial_for_frequency(species: IonSpecies, f_hz: float) -> AxialPotential:
    """Harmonic axial potential giving a single ion the frequency f_hz."""
    if not f_hz > 0:
        raise ValueError("frequency must be positive")
    k2 = species.mass * (2 * math.pi * f_hz) ** 2 / (2 * species.charge_si)
    return AxialPotential(kappa={2: k2})
