#!/usr/bin/env python3
"""Print the desk-scale reference numbers for the two-layer-trap setup."""

import math

import numpy as np

import ionmodes as im

KAPPA2 = 1.3e7
LAMBDA3 = -230e-6
BE, MG = im.BE9, im.MG24


def main():
    l = im.characteristic_length(BE, KAPPA2)
    print(f"characteristic length l          : {l * 1e6:.3f} um")
    cfg = im.solve_equilibrium([BE], im.AxialPotential(kappa={2: KAPPA2}))
    print(f"single-ion axial frequency       : "
          f"{im.mode_spectrum(cfg).frequencies[0] / 1e6:.4f} MHz")
    cfg = im.solve_equilibrium([BE], im.axial_for_frequency(BE, 1e6))
    sigma = im.ground_state_size(im.mode_spectrum(cfg), 0, 0)
    print(f"1 MHz ground-state size          : {sigma * 1e9:.2f} nm")
    cfg = im.solve_equilibrium([BE, BE], im.axial_for_frequency(BE, 1e6))
    print(f"two-ion separation at 1 MHz      : {im.chain_length(cfg) * 1e6:.3f} um")
    cfg = im.solve_equilibrium([BE, MG], im.AxialPotential(kappa={2: KAPPA2}))
    print(f"Be/Mg pair length                : {im.chain_length(cfg) * 1e6:.3f} um")

    pot = im.axial_from_lambdas(KAPPA2, {3: LAMBDA3})
    rep = im.order_shift(pot, BE, MG, "in_phase")
    print(f"ion-order shift (in-phase)       : {rep.delta / 1e3:+.2f} kHz")
    rep = im.order_shift(pot, BE, MG, "out_of_phase")
    print(f"ion-order shift (out-of-phase)   : {rep.delta / 1e3:+.2f} kHz")

    spec = im.mode_spectrum(im.solve_equilibrium([BE, MG, MG, BE], pot))
    asc = spec.eigenvectors[:, ::-1]
    print(f"BMMB mode-3 eigenvector          : {np.round(asc[:, 2], 3)}")
    print(f"BMMB mode-4 eigenvector          : {np.round(asc[:, 3], 3)}")
    print(f"amplitude ratio R3               : {im.amplitude_ratio(spec, 1, 0, 3):.3f}")
    print(f"amplitude ratio R4               : {im.amplitude_ratio(spec, 0, 3, 0):.3f}")

    delta_k = 2 * math.pi * math.sqrt(2) / 313e-9
    pair = im.mode_spectrum(im.solve_equilibrium(
        [BE, MG], im.AxialPotential(kappa={2: KAPPA2})))
    print(f"Lamb-Dicke eta (Be, in-phase)    : {im.lamb_dicke(pair, delta_k, 0, 1):.3f}")
    print(f"carrier factor at n = 17         : "
          f"{im.carrier_matrix_element(0.18, 17):.3f}")

    shift = im.field_sensitivity(pot, [BE], 2.0)
    print(f"2 V/m field sensitivity          : {shift:+.3e}")


if __name__ == "__main__":
    main()
