"""Text rendering of experiment results, row-for-row with the paper."""

from __future__ import annotations

from repro.harness.experiments import Series


def format_series_table(
    series_list: list[Series],
    value_format: str = "{:.2f}",
    aggregate: str = "geomean",
    title: str = "",
) -> str:
    """Render several series over the same benchmark set as a table."""
    if not series_list:
        return "(no data)"
    benchmarks = list(series_list[0].per_benchmark.keys())
    name_width = max(len(b) for b in benchmarks + ["benchmark"]) + 2
    col_width = max(max(len(s.name) for s in series_list) + 2, 10)

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "benchmark".ljust(name_width) + "".join(
        s.name.rjust(col_width) for s in series_list
    )
    lines.append(header)
    lines.append("-" * len(header))
    for uid in benchmarks:
        row = uid.ljust(name_width)
        for s in series_list:
            row += value_format.format(s.per_benchmark[uid]).rjust(col_width)
        lines.append(row)
    lines.append("-" * len(header))
    agg_row = aggregate.ljust(name_width)
    for s in series_list:
        value = s.geomean if aggregate == "geomean" else s.mean
        agg_row += value_format.format(value).rjust(col_width)
    lines.append(agg_row)
    return "\n".join(lines)


def format_mapping_table(
    data: dict[str, tuple],
    headers: tuple[str, ...],
    value_format: str = "{:.2f}",
    title: str = "",
) -> str:
    """Render ``{benchmark: (v1, v2, ...)}`` tables (Figures 24 / 26)."""
    name_width = max(len(k) for k in list(data) + ["benchmark"]) + 2
    col_width = max(max(len(h) for h in headers) + 2, 10)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "benchmark".ljust(name_width) + "".join(
        h.rjust(col_width) for h in headers
    )
    lines.append(header)
    lines.append("-" * len(header))
    for uid, values in data.items():
        row = uid.ljust(name_width)
        for value in values:
            row += value_format.format(value).rjust(col_width)
        lines.append(row)
    return "\n".join(lines)


def format_breakdown_table(
    breakdown: dict[str, dict[str, float]], title: str = "Store breakdown"
) -> str:
    """Figure 23's stacked percentages as a table."""
    from repro.harness.experiments import BREAKDOWN_CATEGORIES

    name_width = max(len(k) for k in list(breakdown) + ["benchmark"]) + 2
    lines = [title, "=" * len(title)]
    header = "benchmark".ljust(name_width) + "".join(
        cat[:12].rjust(13) for cat in BREAKDOWN_CATEGORIES
    )
    lines.append(header)
    lines.append("-" * len(header))
    for uid, cats in breakdown.items():
        row = uid.ljust(name_width)
        for cat in BREAKDOWN_CATEGORIES:
            row += f"{100 * cats[cat]:.1f}%".rjust(13)
        lines.append(row)
    return "\n".join(lines)


def format_table1(table1) -> str:
    """The paper's Table 1 as text."""
    lines = [
        "Table 1: cost comparison of Turnpike and a large SB design",
        f"{'structure':<45}{'area (um^2)':>14}{'access (pJ)':>14}",
        "-" * 73,
    ]
    for row in table1.rows():
        lines.append(
            f"{row.name:<45}{row.area_um2:>14.3f}{row.dynamic_energy_pj:>14.5f}"
        )
    area_ratio, energy_ratio = table1.turnpike_vs_sb4
    lines.append(
        f"{'Turnpike in total / 4-entry SB':<45}{100 * area_ratio:>13.1f}%"
        f"{100 * energy_ratio:>13.1f}%"
    )
    area_ratio, energy_ratio = table1.sb40_vs_sb4
    lines.append(
        f"{'40-entry SB / 4-entry SB':<45}{100 * area_ratio:>13.0f}%"
        f"{100 * energy_ratio:>13.0f}%"
    )
    return "\n".join(lines)


def format_figure_suite(results: dict[str, object]) -> str:
    """A ``figure_suite`` result as text: each figure in suite order,
    each followed by a blank line. ``repro sweep`` prints exactly this
    before its timing line."""
    renderers = {
        "fig04": lambda r: format_series_table(
            [r[40], r[4]], value_format="{:.3f}", aggregate="mean",
            title="Figure 4 - checkpoint ratio vs SB size"),
        "fig14_15": lambda r: "\n".join((
            format_series_table(
                [r["overhead"]["ideal"], r["overhead"]["compact"]],
                value_format="{:.3f}",
                title="Figure 14 - ideal vs compact CLQ overhead"),
            format_series_table(
                [r["warfree_ratio"]["ideal"], r["warfree_ratio"]["compact"]],
                value_format="{:.3f}",
                title="Figure 15 - WAR-free release ratio"),
        )),
        "fig18": lambda r: "\n".join(
            f"{clock} GHz: " + "  ".join(
                f"{n}->{lat:.1f}cy" for n, lat in points)
            for clock, points in r.items()),
        "fig19": lambda r: format_series_table(
            [r[w] for w in sorted(r)],
            title="Figure 19 - Turnpike overhead vs WCDL"),
        "fig20": lambda r: format_series_table(
            [r[w] for w in sorted(r)],
            title="Figure 20 - Turnstile overhead vs WCDL"),
        "fig21": lambda r: format_series_table(
            r, title="Figure 21 - optimization ablation"),
        "fig22": lambda r: format_series_table(
            [r["turnstile"][s] for s in sorted(r["turnstile"])]
            + [r["turnpike"][s] for s in sorted(r["turnpike"])],
            title="Figure 22 - SB sensitivity"),
        "fig23": format_breakdown_table,
        "fig24": lambda r: format_mapping_table(
            r, headers=("average", "maximum"),
            title="Figure 24 - CLQ occupancy"),
        "fig25": lambda r: format_series_table(
            [r[s] for s in sorted(r)], value_format="{:.3f}",
            title="Figure 25 - CLQ size sensitivity"),
        "fig26": lambda r: format_mapping_table(
            {k: (v[0], 100 * v[1]) for k, v in r.items()},
            headers=("region size", "growth %"),
            title="Figure 26 - region size / code growth"),
        "table1": format_table1,
    }
    return "".join(
        f"{renderers[name](result)}\n\n" for name, result in results.items()
    )
