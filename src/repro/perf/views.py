"""``BENCH_*.json``: the three perf-trajectory files, as views of one
zkbench result.

Nothing here measures.  :func:`project_views` reads a
``zkbench-result/v1`` document (what ``benchmarks/zkbench/run.py`` writes
after a suite run) and keeps, per workload, the attempted / failed op
totals and the unit, median and run count of every metric the result
holds; :func:`write_views` puts each view beside the result file.  A
workload the result does not hold is left out of its view, and a view
none of whose workloads ran is not written.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List

#: Shared schema tag of the three view files.
VIEW_SCHEMA = "zkml-bench-view/v1"

#: View file -> the zkbench workloads it projects.
VIEWS = {
    "BENCH_prover.json": ("zoo-cold", "deep-k"),
    "BENCH_serve.json": ("serve-stream", "serve-saturated"),
    "BENCH_verify.json": ("verify-mixed",),
}


def _project_workload(entry: dict) -> dict:
    out = {"attempted": sum(entry["attempted"]),
           "failed": sum(entry["failed"])}
    for section in ("end_to_end", "per_layer"):
        if entry[section]:  # per_layer is empty unless --traced
            out[section] = {
                name: {"unit": slot["unit"],
                       "median": statistics.median(slot["values"]),
                       "runs": len(slot["values"])}
                for name, slot in entry[section].items()}
    return out


def project_views(result: dict) -> Dict[str, dict]:
    """View file name -> view document, for every view with a workload
    in ``result``."""
    header = {"schema": VIEW_SCHEMA, "source": result["schema"]}
    header.update((key, result[key])
                  for key in ("seed", "runs", "seconds", "scale"))
    views = {}
    for filename, names in VIEWS.items():
        workloads = {name: _project_workload(result["workloads"][name])
                     for name in names if name in result["workloads"]}
        if workloads:
            views[filename] = {**header, "workloads": workloads}
    return views


def write_views(result_path: str) -> List[str]:
    """Write the views of the result file at ``result_path`` into its
    directory; returns the paths written."""
    with open(result_path) as fh:
        views = project_views(json.load(fh))
    directory = os.path.dirname(result_path)
    paths = []
    for filename, doc in views.items():
        path = os.path.join(directory, filename)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
