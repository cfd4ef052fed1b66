"""Record the sweep reference values: every lattice point of every sweep family.

Run from the repository root at the commit whose values are the reference:

    python3 bench/record_reference.py

Writes bench/reference/sweep_values.json for the timed sweep families (the
known-defect families get range checks only and need no reference).  A point
that raises or leaves its range is stored as null with its error in "failures";
the benchmark gives such points only the finiteness and range checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings

from checks import REFERENCE, in_range
from lib import ROOT, build_model, import_levyruin
from workloads import LATTICE, sweep_families


def main() -> int:
    import_levyruin()
    from levyruin.registry import evaluate_identity

    warnings.simplefilter("ignore")
    values, failures = {}, {}
    for fam in sweep_families():
        model = build_model(fam.model)
        row = []
        for k in range(LATTICE):
            try:
                value, _ = evaluate_identity(fam.identity, model, fam.params(k))
                value = float(value)
                error = None if in_range(fam.identity, value) else f"out of range: {value!r}"
            except Exception as exc:  # recorded, not raised: a failing point is data here
                error = f"{type(exc).__name__}: {exc}"
            row.append(None if error else value)
            if error:
                failures.setdefault(fam.key, {})[str(k)] = error
        values[fam.key] = row
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w") as fh:
        fh.write('{"commit": %s, "lattice": %d,\n "failures": %s,\n "values": {\n'
                 % (json.dumps(commit), LATTICE, json.dumps(failures, indent=1, sort_keys=True)))
        fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(values.items())))
        fh.write("\n }\n}\n")
    nfail = sum(len(v) for v in failures.values())
    print(f"{len(values)} families, {nfail} failing points -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
