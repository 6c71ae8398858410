"""ASCII Jumpshot — render a trace as per-rank timelines.

The paper inspects MPE logs with Jumpshot (Figures 9 and 12); this
renders the same information as text, one row per rank, one column per
time bucket, with the bucket's dominant category as the glyph::

    rank 0 |####=====~~~~####=====~~~~|
    rank 1 |####=====....####=====....|

    # compute   = active communication   . blocked wait   ~ idle
"""

from __future__ import annotations

from repro.trace.events import TraceLog

__all__ = ["render_timeline", "CATEGORY_GLYPHS"]

CATEGORY_GLYPHS = {
    "compute": "#",
    "comm": "=",
    "wait": ".",
    "idle": "~",
    "dvs": "v",
    None: " ",
}


def render_timeline(
    log: TraceLog,
    width: int = 100,
    t_begin: float | None = None,
    t_end: float | None = None,
) -> str:
    """Render the trace as fixed-width per-rank rows.

    Each column covers ``(t_end - t_begin) / width`` seconds and shows
    the category that occupied most of that bucket on that rank.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if len(log) == 0:
        return "(empty trace)"
    t0 = log.t_min if t_begin is None else t_begin
    t1 = log.t_max if t_end is None else t_end
    if t1 <= t0:
        raise ValueError("empty time window")
    dt = (t1 - t0) / width
    if dt == 0.0:
        raise ValueError("time window too narrow for the width")

    lines = []
    for rank in log.ranks:
        # Accumulate per-bucket seconds per category.
        buckets: list[dict[str, float]] = [dict() for _ in range(width)]
        for e in log.for_rank(rank):
            if e.t_end <= t0 or e.t_begin >= t1 or e.duration == 0:
                continue
            lo = max(e.t_begin, t0)
            hi = min(e.t_end, t1)
            first = int((lo - t0) / dt)
            last = min(width - 1, int((hi - t0) / dt))
            for b in range(first, last + 1):
                b_lo = t0 + b * dt
                b_hi = b_lo + dt
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    cat = e.category
                    buckets[b][cat] = buckets[b].get(cat, 0.0) + overlap
        glyphs = []
        for bucket in buckets:
            if not bucket:
                glyphs.append(CATEGORY_GLYPHS[None])
            else:
                dominant = max(bucket.items(), key=lambda kv: kv[1])[0]
                glyphs.append(CATEGORY_GLYPHS.get(dominant, "?"))
        lines.append(f"rank {rank:>3} |{''.join(glyphs)}|")

    legend = (
        "# compute   = active communication   . blocked wait   "
        "~ idle   v DVS call"
    )
    span = f"window: {t0:.3f}s .. {t1:.3f}s  ({dt:.4f}s per column)"
    return "\n".join(lines + ["", legend, span])
