"""Secure Cache statistics and the stop-swap trigger (paper Section IV-E).

Under uniform (skew-free) workloads the Secure Cache hit ratio collapses and
every access pays the miss penalty (path verification plus eviction).  Aria
therefore monitors a windowed hit ratio and *stops swapping* when it falls
below a threshold (70 % in the paper), falling back to level pinning alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Running hit/miss counters plus a windowed stop-swap detector.

    ``patience`` adds hysteresis: swapping stops only after that many
    *consecutive* windows below the threshold, so a workload hovering near
    the threshold doesn't flap into pinning-only mode on one bad window.

    ``record_hit``/``record_miss`` are the definition of one access.  The
    Secure Cache does the same in place on its per-op path: bump ``hits``
    or ``misses``, count ``window_left`` down, and call ``close_window``
    when it reaches zero.
    """

    window: int = 4096
    threshold: float = 0.70
    patience: int = 1

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    clean_discards: int = 0

    #: Accesses left before the current window closes.
    window_left: int = field(default=0, init=False, repr=False)
    #: True once ``patience`` consecutive windows measured a hit ratio
    #: below the threshold; it latches.
    stop_swap_recommended: bool = field(default=False, init=False, repr=False)
    _window_start_hits: int = field(default=0, repr=False)
    _low_streak: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.window_left = self.window

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def record_hit(self) -> None:
        self.hits += 1
        self.window_left -= 1
        if not self.window_left:
            self.close_window()

    def record_miss(self) -> None:
        self.misses += 1
        self.window_left -= 1
        if not self.window_left:
            self.close_window()

    def close_window(self) -> None:
        ratio = (self.hits - self._window_start_hits) / self.window
        if ratio < self.threshold:
            self._low_streak += 1
            if self._low_streak >= self.patience:
                self.stop_swap_recommended = True
        else:
            self._low_streak = 0
        self._window_start_hits = self.hits
        self.window_left = self.window

    def reset_counts(self) -> None:
        """Zero the counters (but keep the stop-swap decision state).

        Called between an experiment's load and run phases so reported hit
        ratios describe the steady state only.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.clean_discards = 0
        self._window_start_hits = 0
        self.window_left = self.window

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "clean_discards": self.clean_discards,
        }
