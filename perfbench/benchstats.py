"""Arithmetic of the benchmark: medians, spreads, percentile choice, failure
shares, per-unit ratios and the gates every run must pass.

Kept apart from run.py so perfbench/tests can check it without building or
running anything.
"""

import math
import statistics
from fractions import Fraction

# Percentiles the SLO report computes, lowest first.
REPORTED_PERCENTILES = (Fraction(50), Fraction(99), Fraction(999, 10))

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_SAMPLES_BEYOND = 10

# The simulated counts a failed correctness check is reported with.
GATE_COUNTS = ("planned", "completed", "mismatches", "stuck_sessions", "seeds", "failed")


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles(values, n=4), the default 'exclusive'
    method). 0 for fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid != 0 else 0.0


def samples_beyond(n, percentile):
    """Samples ranked strictly above the `percentile` rank in a sample of
    n: n - ceil(percentile / 100 * n), computed exactly (a float
    percentile is read as its decimal text, so 99.9 means 999/10)."""
    if n < 0:
        raise ValueError("negative sample count")
    p = Fraction(str(percentile)) if isinstance(percentile, float) else Fraction(percentile)
    rank = math.ceil(p * n / 100)
    return n - rank


def top_percentile(n, candidates=REPORTED_PERCENTILES, min_beyond=MIN_SAMPLES_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it in a sample of n, or None when even the lowest has fewer."""
    best = None
    for p in sorted(candidates):
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


def failed_share(failed, attempted):
    """Failed units over attempted units; attempted must be positive."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempted unit")
    if failed < 0 or failed > attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def kv_failed(planned, completed, mismatches, stuck_sessions):
    """Failed KV requests: the unfinished ones plus the mismatched ones,
    capped at the planned count. The SLO report's mismatch total counts a
    session that never exits as one mismatch; its unfinished requests
    already count it, so those are taken out."""
    unfinished = max(0, planned - completed)
    return min(planned, unfinished + max(0, mismatches - stuck_sessions))


def per_unit(total, base, scale=1.0):
    """total * scale / base, returned with its base as (value, base); the
    value is 0 when the base is 0 so a layer with no work reads 0."""
    if base < 0:
        raise ValueError("negative base")
    return (total * scale / base if base else 0.0, base)


def combine(per_seed):
    """Folds per-seed value dicts into one: each value is the median across
    seeds of that seed's value."""
    return {key: median([v[key] for v in per_seed]) for key in per_seed[0]}


def pooled_rate(groups):
    """Units per second pooled over seeds. `groups` holds, per seed, the
    units one repetition completes and the run times of its repetitions;
    the rate is the total units over the total of the per-seed median run
    times, so every seed weighs by its work and one slow repetition moves
    nothing."""
    if not groups:
        raise ValueError("pooled_rate of no groups")
    seconds = sum(median(times) for _, times in groups)
    if seconds <= 0:
        raise ValueError("pooled_rate needs a positive run time")
    return sum(units for units, _ in groups) / seconds


def check_set(reps):
    """Gates over the repetitions of one run. Every repetition must pass
    its own correctness check, and every digest and every value exact for
    the seed ('sim') must be identical across repetitions, traced or not.
    Returns a list of failure messages, empty when the set passes."""
    problems = []
    if not reps:
        return ["no repetitions"]
    first = reps[0]
    for r in reps:
        if not r["ok"]:
            counts = ", ".join(f"{k}={r['sim'][k]:g}" for k in GATE_COUNTS if k in r["sim"])
            problems.append(f"rep {r['rep']}: correctness check failed ({counts})")
        if r["digest"] != first["digest"]:
            problems.append(
                f"rep {r['rep']}: digest {r['digest']} differs from rep {first['rep']} "
                f"digest {first['digest']}")
        for key in sorted(set(first["sim"]) | set(r["sim"])):
            if first["sim"].get(key) != r["sim"].get(key):
                problems.append(
                    f"rep {r['rep']}: sim value {key}={r['sim'].get(key)} differs from "
                    f"rep {first['rep']} ({first['sim'].get(key)})")
    return problems
