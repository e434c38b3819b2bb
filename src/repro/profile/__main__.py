"""CLI: profile one sweep cell and print the op-time breakdown as JSON.

::

    PYTHONPATH=src python -m repro.profile --cell rtfxMR
    PYTHONPATH=src python -m repro.profile --cell linearxdpsgd --rounds 3
    PYTHONPATH=src python -m repro.profile --cell cahxWO --reference

``--cell`` takes ``<attack>x<defense>`` (first ``x`` is the separator;
defense specs with ``>`` compose as usual, quote them from the shell).
``--reference`` profiles the pre-acceleration kernel graph instead of the
fused one, which is how the DESIGN.md op tables were produced.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import repro.tensor.backend as backend
from repro.profile import profile_cell


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Profile the ``--cell`` named in ``argv``, print its JSON report, return 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="attribute one sweep cell's wall time to tensor ops",
    )
    parser.add_argument(
        "--cell",
        required=True,
        metavar="ATTACKxDEFENSE",
        help="cell to profile, e.g. rtfxMR or 'linearxMR>dpsgd'",
    )
    parser.add_argument(
        "--rounds", type=int, default=1, help="FL rounds to run (default 1)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--top", type=int, default=None, help="keep only the N hottest ops"
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="profile the unfused reference kernels instead of the fused ones",
    )
    args = parser.parse_args(argv)

    attack, sep, defense = args.cell.partition("x")
    if not sep or not attack or not defense:
        parser.error(f"--cell must look like <attack>x<defense>, got {args.cell!r}")

    mode = "reference" if args.reference else "fused"
    previous = backend.kernel_mode()
    backend.set_kernel_mode(mode)
    try:
        report, result = profile_cell(
            attack, defense, rounds=args.rounds, seed=args.seed
        )
    finally:
        backend.set_kernel_mode(previous)
    if args.top is not None:
        report["ops"] = dict(list(report["ops"].items())[: args.top])
    payload = {
        "cell": args.cell,
        "attack": attack,
        "defense": defense,
        "rounds": args.rounds,
        "seed": args.seed,
        "kernel_mode": mode,
        "profile": report,
        "result": result,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
