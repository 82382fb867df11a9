#!/usr/bin/env python3
"""Find the minimal adiabaticity margin for phonon-independent passage transfer.

Sweeps the passage duration upward at fixed peak Rabi rates until one standard
counter-intuitive pulse pair transfers every rung n = 0..N_UPPER with
efficiency >= THRESHOLD, then reports the margin M* and the round-trip
fidelities at that schedule. Writes the result as a JSON artifact.
"""
import argparse
import json

import numpy as np

from hotgate.operators import PhysicalParams
from hotgate import stirap


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.999)
    parser.add_argument("--n-upper", type=int, default=stirap.CALIBRATED_RUNGS - 1,
                        help="highest phonon rung that must transfer")
    parser.add_argument("--durations", type=float, nargs="+",
                        default=[20, 40, 60, 80, 100, 120, 140, 160, 200])
    parser.add_argument("--n-steps", type=int, default=2000)
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--detuning", type=float, default=0.0,
                        help="shared pump/Stokes detuning (rad/s)")
    parser.add_argument("--out", default="stirap_calibration.json")
    args = parser.parse_args()

    params = PhysicalParams(eta=args.eta, omega=2 * np.pi * 1e5, n_ions=2,
                            delta=2 * np.pi * 1e7, delta_stirap=args.detuning)
    n_values = tuple(range(args.n_upper + 1))
    cal = stirap.calibrate_transfer(params, durations=args.durations, pump_peak=1.0,
                                    n_values=n_values, threshold=args.threshold,
                                    n_steps=args.n_steps)

    print(f"minimal adiabaticity margin M* = {cal.margin}")
    print("duration sweep (T, margin, min efficiency):")
    for t, margin, min_eff in cal.history:
        print(f"  T={t:>7.1f}  margin={margin:>7.1f}  min_eff={min_eff:.6f}")
    print("per-rung efficiency at the winning schedule:")
    for n, eff in zip(n_values, cal.efficiencies):
        print(f"  n={n:>2d}  {eff:.6f}")

    # the calibration's last build, from the cache; the standard pair is
    # mirrored, so the down passage is up^T
    p_up, p_down = stirap.passage_blocks(cal.schedule, params, len(n_values))
    round_trip = np.abs((p_down @ p_up)[:, 0, 0]) ** 2
    phases = stirap.transfer_phase(stirap.transfer_amplitudes(cal.schedule, params,
                                                              len(n_values)))
    print(f"round-trip fidelity: min {round_trip.min():.6f} over n <= {args.n_upper}")

    artifact = {
        "margin": cal.margin,
        "total_duration": cal.total_duration,
        "threshold": cal.threshold,
        "n_values": list(n_values),
        "efficiencies": [float(e) for e in cal.efficiencies],
        "round_trip_fidelities": [float(f) for f in round_trip],
        "passage_phases_rad": [float(p) for p in phases],
        "history": [{"duration": t, "margin": m, "min_efficiency": e}
                    for t, m, e in cal.history],
        "pulse_family": {
            "shape": "sin2",
            "stokes_center_frac": stirap.STOKES_CENTER_FRAC,
            "pump_center_frac": stirap.PUMP_CENTER_FRAC,
            "width_frac": stirap.WIDTH_FRAC,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
