"""Timing discipline shared by every workload.

Host seconds come from ``time.perf_counter``.  Each sample is preceded
by ``gc.collect()``; the runner calls ``gc.freeze()`` after set-up so
those collections only walk what the measured ops allocate.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

#: Percentiles that may be reported above the median, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def summarize(values) -> dict:
    """Median, quartiles, min and ``n`` of a timing series, plus the
    highest percentile that has at least ten samples beyond it
    (``tail`` is ``None`` when the series is too short for any)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0],
           "q1": values[0], "q3": values[-1], "tail": None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    for p in _TAILS:
        beyond = int(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= 10:
            out["tail"] = {"percentile": p, "value": values[n - beyond - 1]}
            break
    return out


def format_summary(name: str, unit: str, s: dict) -> str:
    tail = s["tail"]
    tail_text = (
        f"p{tail['percentile']:g} {tail['value']:.6g}" if tail
        else "no percentile above the median has 10 samples beyond it"
    )
    return (
        f"{name:<28} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, "
        f"q3 {s['q3']:.6g}, min {s['min']:.6g}, n {s['n']}; {tail_text})"
    )


def timed(fn):
    """``(seconds, result)`` of one call, garbage collected beforehand."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
