"""The metric catalogue: ``BENCHMARK.json`` is the single source of names.

Every metric the benchmark may print is declared once, in the repository's
``BENCHMARK.json`` (name, unit, direction, and for end-to-end metrics the
regression bound).  This module loads that file and derives the one thing the
file does not carry — the metric's *kind* — from its unit, so a record never
stores an error ratio in a ``seconds`` field again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: unit -> kind (``seconds|rate|ratio|count|bytes|percent``).
KIND_OF_UNIT = {
    "s": "seconds",
    "ms": "seconds",
    "us": "seconds",
    "model_s": "seconds",
    "1/s": "rate",
    "MB/s": "rate",
    "ratio": "ratio",
    "count": "count",
    "bytes": "bytes",
    "MB": "bytes",
    "%": "percent",
}


#: Units of measured times and rates: printed speed-normalised (see
#: ``common.SpeedReference``).  Modelled platform seconds (``model_s``) are the
#: cost model's output, not measurements, and are printed as they are.
TIME_UNITS = ("s", "ms", "us")
RATE_UNITS = ("1/s", "MB/s")


class Catalogue:
    """Declared workloads and metrics, as read from ``BENCHMARK.json``."""

    def __init__(self, path: Path = REPO_ROOT / "BENCHMARK.json") -> None:
        with open(path, "r", encoding="utf-8") as handle:
            self.spec = json.load(handle)
        self.run_seconds = int(self.spec["run_seconds"])
        self.workloads: List[str] = [w["name"] for w in self.spec["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            m["name"]: m for m in self.spec["end_to_end"]
        }
        self.per_layer: Dict[str, dict] = {
            m["name"]: m for m in self.spec["per_layer"]
        }

    def declared(self, traced: bool) -> Dict[str, dict]:
        """The metrics one run must print (``--trace 1``: the per-layer set)."""
        return self.per_layer if traced else self.end_to_end

    def describe(self, name: str) -> dict:
        """``unit`` / ``kind`` / ``direction`` (and ``bound``) of one metric."""
        entry = self.end_to_end.get(name) or self.per_layer[name]
        out = {
            "unit": entry["unit"],
            "kind": KIND_OF_UNIT[entry["unit"]],
            "direction": entry["better"],
        }
        if "bound" in entry:
            out["bound"] = entry["bound"]
        return out
