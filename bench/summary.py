"""Small statistics and bookkeeping helpers shared by the benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Percentile:
    """A percentile of a sample, with the sample size it came from.

    `beyond` is how many samples lie strictly above the reported value; a
    tail percentile is only worth quoting when that is at least ten.
    """

    q: float
    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered[rank:] if v > value)
    return Percentile(q=q, value=value, samples=len(ordered), beyond=beyond)


@dataclass
class OpCounts:
    """Attempted and failed operations of one run.

    A failed operation is a sequence report with `error` set, a provider
    error, a raw message that matched no template, or a matched event that
    landed in no sequence.
    """

    attempted: int = 0
    failed: int = 0
    report_errors: int = 0
    provider_errors: int = 0
    unmatched_or_dropped: int = 0

    def add_reports(self, reports) -> None:
        """Count sequence reports (objects or their JSON form) as operations."""
        for r in reports:
            self.attempted += 1
            error = r["error"] if isinstance(r, dict) else r.error
            errors = r["counters"]["provider_errors"] if isinstance(r, dict) else r.counters.provider_errors
            if error is not None:
                self.report_errors += 1
                self.failed += 1
            if errors:
                self.provider_errors += errors
                self.failed += errors

    def add_ingest(self, raw_messages: int, events_in_sequences: int) -> None:
        """Count raw messages as operations; each one missing from the output failed."""
        if events_in_sequences > raw_messages:
            raise ValueError(
                f"{events_in_sequences} events in sequences from {raw_messages} raw messages"
            )
        self.attempted += raw_messages
        lost = raw_messages - events_in_sequences
        self.unmatched_or_dropped += lost
        self.failed += lost
