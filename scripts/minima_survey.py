#!/usr/bin/env python3
"""Survey the minimum of the chained combination over (r, delta) boxes.

Runs the bounded minimizer once per bin width / squeezing cap and prints a
CSV table of the located minima. The default boxes are the ones discussed
in the README; every row comes out nonnegative.
"""

import argparse
import math
import sys

from entrobell import MinimizeOptions, minimize

DEFAULT_BOXES = [
    # (delta_bin, r_hi)
    (1.0, 2.0),
    (1.5, 2.0),
    (3.5, 2.0),
    (6.0, 2.0),
    (30.0, 2.0),
    (30.0, 3.0),
    (30.0, 4.0),
    (50.0, 4.0),
    (100.0, 4.0),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Delta", type=float, nargs="*", default=None,
                        dest="delta_bins",
                        help="bin widths to survey (default: built-in list)")
    parser.add_argument("--r-max", type=float, default=None,
                        help="squeezing cap used with --Delta (default 2)")
    parser.add_argument("--coarse-points", type=int, default=48)
    parser.add_argument("--refine-starts", type=int, default=8)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    if args.delta_bins is not None:
        boxes = [(db, args.r_max if args.r_max is not None else 2.0)
                 for db in args.delta_bins]
    else:
        boxes = DEFAULT_BOXES

    opts = MinimizeOptions(coarse_points=args.coarse_points,
                           refine_starts=args.refine_starts)
    fh = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        fh.write("Delta,r_max,d_min,r_star,delta_star_over_pi,n_evaluations\n")
        for delta_bin, r_hi in boxes:
            res = minimize((0.0, r_hi), (0.0, math.pi), delta_bin, options=opts)
            fh.write(f"{delta_bin:g},{r_hi:g},{res.d_min:.12g},"
                     f"{res.r_star:.8g},{res.delta_star / math.pi:.8g},"
                     f"{res.n_evaluations}\n")
            fh.flush()
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
