#!/usr/bin/env python3
"""Coulomb-only cross-coupling matrix for two MgH+ in the surface trap.

Computes chi from first principles for a perfectly harmonic trap with
single-ion frequencies (7, 5, 1.8) MHz and prints it next to the reference
matrix stored under data/.
"""

import sys
from pathlib import Path


import ionmodes as im
from ionmodes.chifile import chi_to_text, read_chi

DATA = Path(__file__).resolve().parents[1] / "data"


def main():
    mgh = im.MGH25
    axial = im.axial_for_frequency(mgh, 1.8e6)
    trap = im.trap3d_from_frequencies(mgh, (7e6, 5e6), axial)
    cfg = im.solve_equilibrium([mgh, mgh], trap)
    chi = im.chi_from_configuration(cfg)
    sys.stdout.write(chi_to_text(chi, precision=4))

    ref = read_chi(DATA / "chi_two_ion_coulomb_only.txt")
    print("\nentry-by-entry comparison with the reference values (Hz):")
    print("  (z, a)   computed   reference")
    for z in range(6):
        for a in range(6):
            if abs(ref.chi[z, a]) >= 0.5:
                print(f"  ({z + 1}, {a + 1})  {chi.chi[z, a]:9.2f}  "
                      f"{ref.chi[z, a]:9.2f}")


if __name__ == "__main__":
    main()
