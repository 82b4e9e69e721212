#!/usr/bin/env python3
"""Centre-of-mass frequency versus ion number, harmonic versus anharmonic."""

import argparse

import ionmodes as im

KAPPA2 = 1.3e7


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="com_scan.csv")
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    be = im.BE9
    counts = range(1, args.n_max + 1)
    harm = im.com_frequency_scan(im.AxialPotential(kappa={2: KAPPA2}), be, counts)
    anh = im.com_frequency_scan(
        im.axial_from_lambdas(KAPPA2, {3: -230e-6, 4: 250e-6}), be, counts)
    with open(args.out, "w") as fh:
        fh.write("# n_ions,f_com_harmonic_hz,f_com_anharmonic_hz\n")
        for n, fh_h, fh_a in zip(harm.counts, harm.frequencies,
                                 anh.frequencies):
            fh.write(f"{n},{fh_h:.12g},{fh_a:.12g}\n")
    print(f"wrote {args.out}")
    print(f"harmonic slope   : {harm.slope:+.3f} Hz/ion (R^2 = {harm.r_squared:.6f})")
    print(f"anharmonic slope : {anh.slope:+.1f} Hz/ion (R^2 = {anh.r_squared:.6f})")


if __name__ == "__main__":
    main()
