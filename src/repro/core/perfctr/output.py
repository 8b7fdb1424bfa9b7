"""likwid-perfCtr result rendering (the paper's bordered tables).

Reproduces the listing format of §II.A: a header with CPU type and
clock, then per measurement (or per marker region) an event table with
one column per measured core, followed by a metric table when a
preconfigured group was measured.
"""

from __future__ import annotations

from repro.core.perfctr.measurement import MeasurementResult
from repro.hw.machine import SimMachine
from repro.tables import RULE, render_table
from repro.units import format_count, format_hz


def render_header(machine: SimMachine, group_name: str | None = None) -> str:
    lines = [RULE,
             f"CPU type:\t{machine.spec.cpu_name}",
             f"CPU clock:\t{format_hz(machine.spec.clock_hz)}",
             RULE]
    if group_name:
        lines.append(f"Measuring group {group_name}")
        lines.append(RULE)
    return "\n".join(lines)


def render_event_table(result: MeasurementResult) -> str:
    header = ["Event"] + [f"core {cpu}" for cpu in result.cpus]
    event_names: list[str] = []
    for cpu in result.cpus:
        for name in result.counts[cpu]:
            if name not in event_names:
                event_names.append(name)
    rows = []
    for name in event_names:
        rows.append([name] + [
            format_count(result.counts[cpu].get(name, 0.0))
            for cpu in result.cpus])
    return render_table(header, rows)


def render_metric_table(result: MeasurementResult) -> str:
    if not result.metrics:
        return ""
    header = ["Metric"] + [f"core {cpu}" for cpu in result.cpus]
    first = result.metrics[result.cpus[0]]
    rows = []
    for label in first:
        rows.append([label] + [
            f"{result.metrics[cpu][label]:.6g}" for cpu in result.cpus])
    return render_table(header, rows)


def render_statistics_table(result: MeasurementResult) -> str:
    """Cross-core Sum/Min/Max/Avg reduction (printed for multi-core
    measurements, as later likwid-perfctr releases do)."""
    if len(result.cpus) < 2:
        return ""
    header = ["Event", "Sum", "Min", "Max", "Avg"]
    event_names: list[str] = []
    for cpu in result.cpus:
        for name in result.counts[cpu]:
            if name not in event_names:
                event_names.append(name)
    rows = []
    for name in event_names:
        values = [result.counts[cpu].get(name, 0.0) for cpu in result.cpus]
        rows.append([name, format_count(sum(values)),
                     format_count(min(values)), format_count(max(values)),
                     format_count(sum(values) / len(values))])
    return render_table(header, rows)


def render_result(machine: SimMachine, result: MeasurementResult,
                  *, region: str | None = None,
                  statistics: bool = True) -> str:
    """Full report for one measurement (optionally one marker region)."""
    parts = []
    if region is not None:
        parts.append(f"Region: {region}")
    parts.append(render_event_table(result))
    if statistics:
        stats_table = render_statistics_table(result)
        if stats_table:
            parts.append(stats_table)
    metric_table = render_metric_table(result)
    if metric_table:
        parts.append(metric_table)
    return "\n".join(parts)
