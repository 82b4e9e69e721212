#!/usr/bin/env python3
"""Harmonic-chain length versus ion number and the fitted power law."""

import numpy as np

import ionmodes as im

KAPPA2 = 1.3e7


def main():
    be = im.BE9
    pot = im.AxialPotential(kappa={2: KAPPA2})
    l = im.characteristic_length(be, KAPPA2)
    counts = list(range(2, 11))
    lengths = []
    print("  N    L (um)    L/l")
    for n in counts:
        cfg = im.solve_equilibrium([be] * n, pot)
        length = im.chain_length(cfg)
        lengths.append(length)
        print(f"{n:3d}  {length * 1e6:8.3f}  {length / l:6.3f}")
    exponent = np.polyfit(np.log(counts), np.log(lengths), 1)[0]
    print(f"\nfitted exponent of L(N) over N = 2..10: {exponent:.3f}")


if __name__ == "__main__":
    main()
