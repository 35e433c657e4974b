#!/usr/bin/env python3
"""Run the bundled reference sweeps and fit the empirical slopes.

Writes one CSV per campaign under results/ plus a manifest per config, then
prints the fitted antenna efficiency next to the closed-form reference for
every CSV that manifest names.  Figures can be reproduced by plotting ln(vep)
against m from the CSVs (the log_theory_* columns carry the bound overlays).
Each step runs as `mimodet sweep` or `mimodet fit`, with its exit codes: an
--out-dir that cannot be made exits 2 before any sweep runs.

Usage: python scripts/run_reference_sweeps.py [--threads K] [--out-dir results]
"""

import argparse
import json
import sys
from pathlib import Path

from mimodet import cli

CONFIGS = ["fig1.cfg", "fig2.cfg", "fig3.cfg"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threads", type=cli.positive_int, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = Path(args.out_dir)

    for name in CONFIGS:
        config = root / "configs" / name
        out = out_dir / (config.stem + ".csv")
        print(f"=== sweep {config.name} ===")
        status = cli.main(["sweep", "--config", str(config), "--out", str(out), "--threads", str(args.threads)])
        if status != 0:
            return status
        # fit the CSVs this sweep wrote, never one an earlier run left in out_dir
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        for campaign in manifest["campaigns"]:
            print(f"--- fit {campaign['csv']} ---")
            cli.main(["fit", "--csv", str(out_dir / campaign["csv"])])
    return 0


if __name__ == "__main__":
    sys.exit(main())
