#!/usr/bin/env python3
"""Reproduce the communication-complexity measurements.

Sweeps the minority-fault agreement protocol over message lengths and fits
honest bits against l, then measures the per-share blowup of the
high-threshold broadcast for shrinking honest fractions. Writes CSVs next to
the printed summary so the numbers can be plotted downstream.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from bbext.checks import build_inputs, linear_scaling_runs, model_slope
from bbext.protocols import SessionParams
from bbext.runner import run


def sweep_linear(out: Path) -> None:
    n, k = 10, 256
    t = (n - 1) // 2
    rows, failures = linear_scaling_runs(n=n, k=k)
    if failures:
        raise SystemExit("; ".join(failures))
    with (out / "linear_scaling.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["l_bits", "honest_bits", "oracle_bits"])
        for l, bits, metrics in rows:
            w.writerow([l, bits, metrics.oracle_bits()])
    ls = np.array([r[0] for r in rows], dtype=float)
    bits = np.array([r[1] for r in rows], dtype=float)
    slope, intercept = np.polyfit(ls, bits, 1)
    print(f"linear fit: slope={slope:.3f} bits/bit (model {model_slope(n, t):.3f}), "
          f"intercept={intercept:.0f} bits")


def sweep_blowup(out: Path) -> None:
    n, k, l = 12, 256, 2**18
    with (out / "share_blowup.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "t", "share_bits", "l_over_eps_n"])
        for eps in (0.5, 0.25, 1.0 / 6.0):
            t = int(round((1 - eps) * n))
            params = SessionParams(n=n, t=t, l=l, k=k,
                                   threshold_regime="one_minus_eps", epsilon=eps)
            inputs = build_inputs("bb", params, seed=2, unanimity="all")
            res = run("sync-bb-highthresh", params, inputs, seed=2)
            share = res.metrics.extra["share_bits"]
            target = -(-l // (n - t))
            w.writerow([f"{eps:.4f}", t, share, target])
            print(f"eps={eps:.3f}: share={share} bits, ceil(l/(eps n))={target}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_linear(out)
    sweep_blowup(out)


if __name__ == "__main__":
    main()
