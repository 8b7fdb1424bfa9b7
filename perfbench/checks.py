"""Output checks.  They run outside the timed regions and feed the
``failed`` count (and so ``error_rate``) of every workload."""

from __future__ import annotations

import math
import re
import statistics

# -- server workloads --------------------------------------------------------

TERMINAL_KEYS = ("completed", "timed_out", "rejected", "preempted",
                 "cancelled", "failed")


def accounting_errors(requests, docs, totals: dict,
                      expect_preempted: set[int]) -> list[str]:
    """Exact accounting for one round.

    ``requests`` were submitted in order; ``docs`` are the terminal
    documents the clients received, as ``(request index, document)``;
    ``totals`` is the server's own ``status()["total"]``; and
    ``expect_preempted`` holds the indices of requests that outlive
    their lease.  Every submission must reach exactly one terminal
    document, none may be pending or failed, and each must end in the
    state its input implies."""
    errors = []
    seen: dict[int, int] = {}
    for index, _doc in docs:
        seen[index] = seen.get(index, 0) + 1
    missing = [i for i in range(len(requests)) if i not in seen]
    dupes = [i for i, n in seen.items() if n > 1]
    if missing:
        errors.append(f"{len(missing)} submission(s) got no terminal "
                      f"document")
    if dupes:
        errors.append(f"{len(dupes)} submission(s) got more than one "
                      f"terminal document")
    ids = [(doc.get("node"), doc.get("session")) for _i, doc in docs]
    if len(set(ids)) != len(ids):
        errors.append("two terminal documents name the same session")
    terminal = sum(totals.get(k, 0) for k in TERMINAL_KEYS)
    if totals.get("submitted") != len(requests) \
            or terminal != len(requests):
        errors.append(f"server counts {totals} do not account for "
                      f"{len(requests)} submissions")
    if totals.get("pending") or totals.get("failed"):
        errors.append(f"pending={totals.get('pending')} "
                      f"failed={totals.get('failed')}")
    for index, doc in docs:
        want = "preempted" if index in expect_preempted else "completed"
        if doc.get("state") != want:
            errors.append(f"request {index}: state {doc.get('state')!r},"
                          f" expected {want!r}")
    return errors


# -- stream-pinning ----------------------------------------------------------

#: Fig. 5 pinned medians (MB/s) by thread count, and their tolerance.
PINNED_MEDIANS = {1: 9500.0, 2: 19000.0, 12: 42000.0}
PINNED_REL = 0.02
#: Fig. 4 unpinned spread at 2 threads must exceed this (MB/s).
UNPINNED_MIN_SPREAD = 5000.0
#: Samples per thread count in one Fig. 4 figure (the integration test's).
FIG4_SAMPLES = 40
#: Thread counts at which pinned must not lose to unpinned (Fig. 4/5).
DOMINANCE_THREADS = (2, 4, 8)


def stream_round_errors(samples: dict[tuple[int, bool], list[float]]
                        ) -> list[str]:
    """Checks on one round of the sweep: Fig. 5's pinned medians, and
    unpinned medians below the pinned plateau and no better than
    pinned at the same thread count."""
    errors = []
    for n, want in PINNED_MEDIANS.items():
        got = statistics.median(samples[(n, True)])
        if abs(got - want) > PINNED_REL * want:
            errors.append(f"pinned median at {n} threads: {got:.0f} "
                          f"MB/s, expected {want:.0f} +-2%")
    plateau = PINNED_MEDIANS[12] * (1 + PINNED_REL)
    for (n, pinned), values in samples.items():
        if pinned:
            continue
        median = statistics.median(values)
        if median > plateau:
            errors.append(f"unpinned median at {n} threads {median:.0f}"
                          f" MB/s above the pinned plateau")
        if n in DOMINANCE_THREADS and \
                median > statistics.median(samples[(n, True)]):
            errors.append(f"unpinned median beats pinned at {n} threads")
    return errors


def _median_block_spread(values: list[float]) -> float:
    """Median max-min spread over consecutive blocks of
    :data:`FIG4_SAMPLES` samples (the figure's sample count; the
    spread of a larger pool only grows with its size)."""
    n = max(1, len(values) // FIG4_SAMPLES)
    size = len(values) // n
    return statistics.median(
        max(b) - min(b) for b in (values[i * size:(i + 1) * size]
                                  for i in range(n)))


def stream_spread_errors(pooled: dict[tuple[int, bool], list[float]]
                         ) -> list[str]:
    """Fig. 4 over all rounds of a run: unpinned placement spreads
    widely at low thread counts, more than at full oversubscription.
    Judged on 40-sample figures, as the integration test draws them."""
    spread_low = _median_block_spread(pooled[(2, False)])
    spread_high = _median_block_spread(pooled[(24, False)])
    errors = []
    if spread_low <= UNPINNED_MIN_SPREAD:
        errors.append(f"unpinned spread at 2 threads {spread_low:.0f} "
                      f"MB/s, expected > {UNPINNED_MIN_SPREAD:.0f}")
    if spread_low <= 0.8 * spread_high:
        errors.append("unpinned spread at 2 threads not above 0.8x the "
                      "spread at 24 threads")
    return errors


# -- cli-cold ----------------------------------------------------------------

_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:nan|inf|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?![\w.])")


def _number(text: str) -> float | None:
    text = text.strip()
    if not _NUMBER.fullmatch(text):
        return None
    return float(text)


def parse_values(stdout: str) -> dict[str, list[float]]:
    """The numbers a front-end printed, keyed by what they label.

    Table rows (``| label | v1 | v2 |``) are keyed by the table's
    first header cell and the row label; any other line is keyed by
    its text with the numbers cut out.  Repeated keys get an
    occurrence suffix.  Column widths, padding, separators and number
    formatting do not enter the keys."""
    values: dict[str, list[float]] = {}
    occurrences: dict[str, int] = {}
    header = ""
    for line in stdout.splitlines():
        stripped = line.strip()
        if not stripped or set(stripped) <= set("+-*|= "):
            continue
        if stripped.startswith("|") and stripped.endswith("|"):
            cells = [c.strip() for c in stripped[1:-1].split("|")]
            nums = [_number(c) for c in cells[1:]]
            if not cells[1:] or any(n is None for n in nums):
                header = cells[0]
                continue
            label = f"{header}|{cells[0]}"
        else:
            nums = [float(m) for m in _NUMBER.findall(stripped)]
            if not nums:
                continue
            label = " ".join(_NUMBER.sub("#", stripped).split())
        count = occurrences.get(label, 0)
        occurrences[label] = count + 1
        values[f"{label}@{count}" if count else label] = nums
    return values


def to_json_values(values: dict[str, list[float]]) -> dict:
    """JSON form (NaN as null)."""
    return {k: [None if math.isnan(v) else v for v in vs]
            for k, vs in values.items()}


def from_json_values(doc: dict) -> dict[str, list[float]]:
    return {k: [math.nan if v is None else float(v) for v in vs]
            for k, vs in doc.items()}


def values_mismatch(got: dict[str, list[float]],
                    want: dict[str, list[float]],
                    rel: float = 1e-5) -> list[str]:
    """Differences between parsed and pinned values.  ``rel`` allows
    for a printed precision of six significant digits."""
    errors = []
    if sorted(got) != sorted(want):
        extra = sorted(set(got) - set(want))[:3]
        lost = sorted(set(want) - set(got))[:3]
        errors.append(f"value labels differ: new {extra}, missing {lost}")
        return errors
    for key, expected in want.items():
        actual = got[key]
        if len(actual) != len(expected) or not all(
                (math.isnan(a) and math.isnan(b))
                or math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
                for a, b in zip(actual, expected)):
            errors.append(f"{key}: {actual} != pinned {expected}")
    return errors
