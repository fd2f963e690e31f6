#!/usr/bin/env python3
"""Sweep volume-scaling exponents of the product map across weights.

Writes one CSV/SVG pair per weight and prints fitted slopes against the
predicted n(beta+1)+1.
"""

import argparse
from pathlib import Path

from polycarleson.battery import get_symbol
from polycarleson.measure import WeightParam
from polycarleson.output import write_csv
from polycarleson.sublevel import fit_exponent
from polycarleson.svgplot import write_fit_svg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--symbol", default="product2")
    ap.add_argument("--betas", default="-0.5,0,0.5,1")
    ap.add_argument("--budget", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    sym = get_symbol(args.symbol)
    n = sym.n_in
    for beta in (float(b) for b in args.betas.split(",")):
        fit = fit_exponent(sym, 1.0, WeightParam(beta), budget=args.budget,
                           seed=args.seed)
        predicted = n * (beta + 1.0) + 1.0
        print(f"beta={beta:+.2f}: slope {fit.slope:.4f} "
              f"(predicted {predicted:.2f}, stderr {fit.slope_stderr:.4f})")
        stem = f"{args.out_dir}/sweep_{args.symbol}_beta{beta:g}"
        header, rows = fit.csv_rows()
        write_csv(f"{stem}.csv", header, rows)
        write_fit_svg(f"{stem}.svg", fit, f"{args.symbol}, beta={beta:g}")


if __name__ == "__main__":
    main()
