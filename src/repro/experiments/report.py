"""Plain-text rendering of experiment results (the "figures" as tables).

The paper's figures are bar charts; a reproduction harness regenerates the
underlying numbers.  These helpers print them as aligned tables so the
bench targets produce readable, diffable output.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.1f}",
) -> str:
    """Render rows as a fixed-width table."""
    def fmt(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.1f}",
) -> None:
    print()
    print(format_table(headers, rows, title=title, float_fmt=float_fmt))
    print()


def app_metric_table(
    title: str,
    per_app: Mapping[str, Mapping[str, object]],
    metrics: Sequence[str],
    summary_row: Optional[Mapping[str, float]] = None,
    sort_rows: bool = False,
) -> str:
    """Table with one row per application and one column per metric.

    Float values render at one decimal; pass strings to choose another
    precision per column.

    ``sort_rows=True`` orders rows by application name instead of by dict
    insertion order.  Results assembled from a parallel sweep arrive in
    completion order, which varies run to run; sorted rows make the
    rendered table (and its golden-snapshot hash) order-independent.
    The figure tables keep insertion order: the paper lists applications
    in Figure 7/8 order, not alphabetically.
    """
    headers = ["benchmark"] + list(metrics)
    apps = sorted(per_app) if sort_rows else list(per_app)
    rows = [
        [app] + [per_app[app].get(metric, float("nan")) for metric in metrics]
        for app in apps
    ]
    if summary_row is not None:
        rows.append(
            ["GEOMEAN"] + [summary_row.get(m, float("nan")) for m in metrics]
        )
    return format_table(headers, rows, title=title)


def geomean_summary(
    per_app: Mapping[str, Mapping[str, float]],
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Per-metric geomean over applications, reduced in sorted-key order.

    Floating-point reduction is order-sensitive, so the value lists are
    always collected over ``sorted(per_app)``: two tables built from the
    same results -- whatever order a parallel sweep delivered them in --
    summarize bit-identically.
    """
    from repro.sim.stats import geomean

    if metrics is None:
        names = sorted({m for row in per_app.values() for m in row})
    else:
        names = list(metrics)
    return {
        metric: geomean(
            [
                per_app[app][metric]
                for app in sorted(per_app)
                if metric in per_app[app]
            ]
        )
        for metric in names
    }
