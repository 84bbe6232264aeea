"""Pure helpers of the benchmark: percentiles, the guards that refuse a
mis-sized workload, and answer checking with failure accounting.

Nothing here runs a process; run.py feeds it the load generator's
records and test_perfstats.py exercises it directly.
"""

import math
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
# ... and must sit at least this many percentile points inside one query
# class of the latency-sorted mix.
CLASS_MARGIN = 3.0


class Refused(Exception):
    """The workload is mis-sized or mis-configured where it runs; no
    figures are reported for it."""


def nearest_rank(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile's rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def class_bands(samples):
    """Bands of the latency-sorted mix: classes ordered by their median
    latency, each occupying its share of the percentile axis. `samples` is
    a list of (latency, class). Returns [(class, lo_pct, hi_pct)]."""
    by_class = {}
    for latency, cls in samples:
        by_class.setdefault(cls, []).append(latency)
    order = sorted(by_class, key=lambda c: (statistics.median(by_class[c]), c))
    bands, lo = [], 0.0
    for cls in order:
        hi = lo + 100.0 * len(by_class[cls]) / len(samples)
        bands.append((cls, lo, hi))
        lo = hi
    return bands


def check_percentile(samples, p, name):
    """Refuses percentile p of `samples` [(latency, class)] unless it has
    MIN_BEYOND samples beyond it and lies CLASS_MARGIN points inside one
    class band. Returns the nearest-rank value."""
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        raise Refused(f"{name}: {n} samples leave fewer than {MIN_BEYOND} "
                      f"beyond p{p:g}; measure longer or cheaper reads")
    for cls, lo, hi in class_bands(samples):
        if lo <= p <= hi:
            # The top band's upper edge is the end of the axis, not a
            # boundary with another class.
            hi_room = math.inf if hi >= 100.0 - 1e-9 else hi - p
            if p - lo < CLASS_MARGIN and lo > 1e-9 or hi_room < CLASS_MARGIN:
                raise Refused(f"{name}: p{p:g} is within {CLASS_MARGIN:g} "
                              f"points of the edge of class {cls} "
                              f"[{lo:.1f}, {hi:.1f}]")
            break
    return nearest_rank([s[0] for s in samples], p)


def check_cpu_to_wall(ratio, limit=1.05):
    """Offline reads run at one solver thread; CPU above wall means a
    thread count leaked in."""
    if ratio > limit:
        raise Refused(f"solver.cpu_to_wall {ratio:.3f} exceeds {limit} at "
                      "one solver thread")


def offline_read_failure(rec, refs):
    """Why an offline read failed, or None. `refs` maps (class, state) to
    the row-engine reference record."""
    if not rec.get("ok"):
        return "error"
    if not rec.get("exact"):
        return "not exact"
    ref = refs.get((rec["class"], rec["state"]))
    if ref is None:
        return "no reference"
    if rec["min"] != ref["min"] or rec["max"] != ref["max"]:
        return "bounds differ from reference"
    return None


def state_of_version(version):
    """Instances load at version 1 and every write toggles them, so the
    version's parity names the state (0 = as loaded, 1 = edited)."""
    return (version - 1) % 2


def service_failure(op, refs):
    """Why an svc-rw operation failed, or None. `op` is the load generator's op
    record (its `resp` is the parsed server reply); `refs` maps
    (instance, state, qnum) to the offline reference record."""
    resp = op["resp"]
    if not resp.get("ok"):
        return "overloaded" if resp.get("status") == "Overloaded" else "error"
    if op["kind"] == "w":
        if state_of_version(resp["version"]) != op["want_state"]:
            return "write landed on the wrong version"
        return None
    if resp.get("degraded"):
        return "degraded"
    if not (resp.get("min_exact") and resp.get("max_exact")):
        return "not exact"
    state = state_of_version(resp["version"])
    ref = refs.get((op["instance"], state, op["qnum"]))
    if ref is None:
        return "no reference"
    if resp["min"] != ref["min"] or resp["max"] != ref["max"]:
        return "bounds differ from reference"
    return None


def count_failures(records, failure_of):
    """(attempted, failed, reasons) over `records`."""
    reasons = {}
    for rec in records:
        why = failure_of(rec)
        if why is not None:
            reasons[why] = reasons.get(why, 0) + 1
    return len(records), sum(reasons.values()), reasons


# Warm-up failures that say the workload is too hard for its time limit
# where it runs, rather than that an answer is wrong.
SIZING_FAILURES = ("not exact", "degraded")


def account(warm, measured, failure_of):
    """(attempted, failed, reasons) over the warm-up and measured
    operations. Refuses the workload if a warm-up answer is not exact or
    degraded; every other failure, in warm-up too, is a failed operation."""
    sizing = {why: n for why, n in
              count_failures(warm, failure_of)[2].items()
              if why in SIZING_FAILURES}
    if sizing:
        raise Refused(f"warm-up answers not exact within their time limit: "
                      f"{sizing}")
    return count_failures(warm + measured, failure_of)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0
