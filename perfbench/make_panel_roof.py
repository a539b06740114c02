"""Rewrite panel_roof.json: the roof values the package reaches on the analyze panel.

Run from the repository root:

    python3 perfbench/make_panel_roof.py

The analyze checks then require e_d2 and e_d3 of every d=3 panel state, and
searched_e32 of every qutrit-example panel op, to be at most the stored
value (plus the criterion-2 tolerance): a later search may go lower, not
higher.  Run it only on code whose roof search is trusted.  It takes about
10 s.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import teleport_ent  # noqa: E402
import teleport_ent.cli  # noqa: E402,F401
import workloads  # noqa: E402

ROOF_KEYS = {"analyze": ("e_d2", "e_d3"), "qutrit-example": ("searched_e32",)}


def main() -> int:
    stored = {}
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.analyze(teleport_ent, 0, workdir, ceilings={})
        for op in sorted(wl.ops, key=lambda o: o.label):
            outcome = op.run()
            problems = workloads.verify(op, outcome)
            if problems:
                sys.stderr.write(f"{op.label}: {problems}\n")
                return 1
            if op.label.startswith("analyze d2"):
                continue  # checked against the Wootters concurrence instead
            rep = workloads.parse_report(outcome.payload.decode())
            keys = ROOF_KEYS[op.label.split()[0]]
            stored[op.label] = {k: float(rep[k]) for k in keys}
    with open(workloads.PANEL_ROOF, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(stored, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
