#!/usr/bin/env python3
"""Regenerate reference_lambda.json: the CLI's Orlicz norm of f_alpha for
every alpha on the falpha_cli lattice, computed the way the workload does
(gen-falpha, then orlicz, through JSON files).

    python3 perfbench/make_reference.py

Run it only on the commit the references are meant to pin (3a6260b for the
recorded table): later commits are checked against these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads
    from orlicz4d import cli

    out = Path(workloads.__file__).with_name("reference_lambda.json")
    run.OUT.mkdir(exist_ok=True)
    lams = []
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="reference-") as tmp:
        f, o = str(Path(tmp) / "f.json"), str(Path(tmp) / "o.json")
        for a in workloads.ALPHAS:
            if cli.main(["gen-falpha", "--alpha", repr(a), "--out", f]) or \
                    cli.main(["orlicz", "--in", f, "--out", o]):
                print(f"CLI failed at alpha={a!r}", file=sys.stderr)
                return 1
            with open(o) as fh:
                lams.append(json.load(fh)["orlicz_norm"])
    table = {"commit": run.git_commit(), "lambda_tol": workloads.CLI_LAMBDA_TOL,
             "alphas": [repr(a) for a in workloads.ALPHAS], "lambda": lams}
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(lams)} reference norms to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
