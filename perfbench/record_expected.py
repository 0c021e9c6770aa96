"""Rewrite expected.json: the engine's answer for every cell the workloads touch.

    python3 perfbench/record_expected.py

Run it only at a commit whose values are trusted.  It records from JSON
output, then replays every workload request through the gates against the
new file, and writes nothing if any answer fails a published gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import gates
import workloads
from run import OUT_DIR, call, import_engine


def distinct_requests():
    out = {}
    for workload in workloads.WORKLOADS.values():
        for req in workload.requests + workload.populate:
            req = replace(req, cached=False)
            out[req.label()] = req
    return list(out.values())


def record(cli, octagon: str) -> dict:
    expected = {"cells": {}, "stuck": {}, "appendix": {}, "identities": []}
    requests = distinct_requests()
    for req in requests:
        if req.kind == "compute":
            as_json = workloads.compute(req.polygon, req.genus, req.pairs, emit="json")
            _, out, _ = call(cli, as_json.resolve(octagon, ""))
            for (genus, pairs), cell in gates.parse_compute("json", out).items():
                expected["cells"][gates.cell_label(req.polygon, genus, pairs)] = cell
        elif req.kind == "stuck":
            _, _, err = call(cli, req.resolve(octagon, ""))
            expected["stuck"][gates.stuck_label(req)] = err.partition("\n")[0]
    _, out, _ = call(cli, workloads.appendix("json").argv)
    rows, _, _ = gates.parse_appendix("json", out)
    expected["appendix"] = rows
    _, out, _ = call(cli, workloads.verify("identities").argv)
    expected["identities"] = out.splitlines()
    return expected


def main() -> int:
    cli, _ = import_engine()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        octagon = Path(tmp) / "octagon.json"
        octagon.write_text(json.dumps({"vertices": workloads.OCTAGON_VERTICES}))
        expected = record(cli, str(octagon))
        failures = []
        for req in distinct_requests():
            code, out, err = call(cli, req.resolve(str(octagon), ""))
            failures += [f"{req.label()}: {e}" for e in gates.check(req, code, out, err, expected)]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(gates.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected['cells'])} cells to {gates.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
