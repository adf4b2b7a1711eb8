"""Statistics, metric naming and result assembly for perfbench/run.py."""

import json
import re
import statistics
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The tail is the highest percentile that still has this many samples
# beyond it, so it is never read off one or two outliers.
TAIL_BEYOND = 10


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def load_spec(path=SPEC_PATH):
    """BENCHMARK.json, with every metric name and unit checked."""
    with open(path) as f:
        spec = json.load(f)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not valid_name(entry["name"]) or not valid_unit(entry["unit"]):
            raise ValueError("bad metric name or unit in %s: %r" % (path, entry))
    return spec


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, samples) of the highest percentile with at least
    `beyond` samples above it.

    With n sorted samples that is the sample at rank n - beyond (1-based),
    the 100 * (n - beyond) / n th percentile. With too few samples for any
    percentile to qualify, the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def result_line(spec, trace, correct, attempted, failed, values):
    """The benchmark's final JSON object: every metric BENCHMARK.json names
    for this kind of run (end_to_end untraced, per_layer traced), each with
    its declared unit. A missing or extra metric is a bug in the benchmark.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise KeyError("metrics do not match BENCHMARK.json: missing %s, extra %s"
                       % (missing, extra))
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }
