#!/usr/bin/env python3
"""Regenerate ``expected.json``: the final populations of every ``trajectory``
and ``wide-model`` input variant at the full and smoke sizes, and the identity
rows of ``verify --suite all``.

Run from the root of a source checkout, on the commit whose outputs are to
be trusted: ``python3 perfbench/make_expected.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = wl.HERE.parent


def final_populations(cli, argv: list[str], out: Path) -> list[float]:
    if cli.run(argv) != 0:
        raise SystemExit(f"magstep failed on {argv}")
    last = out.read_text(encoding="ascii").splitlines()[-1].split(",")
    return [float(x) for x in last[1:-1]]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from magstep import cli

    expected = {"trajectory": {}, "wide-model": {}, "certify": {}}
    with tempfile.TemporaryDirectory(dir=wl.HERE, prefix="_work-") as tmp:
        out = Path(tmp) / "out.csv"
        for size in ("full", "smoke"):
            n = wl.SIZES["trajectory"][size]["n_steps"]
            expected["trajectory"][str(n)] = {
                f"{case}/{initial}": final_populations(cli, wl.trajectory_argv(case, initial, n, out), out)
                for case in wl.CASES
                for initial in (0, 1)
            }
            n = wl.SIZES["wide-model"][size]["n_steps"]
            table = expected["wide-model"][str(n)] = {}
            for variant in range(wl.WIDE_VARIANTS):
                model = Path(tmp) / "model.json"
                model.write_text(wl.wide_model_json(variant), encoding="utf-8")
                argv = wl.wide_argv(model, wl.wide_initial(variant), n, out)
                table[str(variant)] = final_populations(cli, argv, out)
        if cli.run(["verify", "--suite", "all", "--draws", "1", "--out", str(out)]) != 0:
            raise SystemExit("verify failed")
        rows = out.read_text(encoding="ascii").splitlines()[1:]
        expected["certify"]["identities"] = [row.split(",")[0] for row in rows]
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
