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
    """

    window: int = 4096
    threshold: float = 0.70
    patience: int = 1

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    clean_discards: int = 0

    _window_hits: int = field(default=0, repr=False)
    _window_accesses: int = field(default=0, repr=False)
    _low_streak: int = field(default=0, repr=False)
    _stop_recommended: bool = field(default=False, repr=False)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def record_hit(self) -> None:
        self.hits += 1
        self._window_hits += 1
        self._window_accesses += 1
        if self._window_accesses >= self.window:
            self._close_window()

    def record_miss(self) -> None:
        self.misses += 1
        self._window_accesses += 1
        if self._window_accesses >= self.window:
            self._close_window()

    def _close_window(self) -> None:
        ratio = self._window_hits / self._window_accesses
        if ratio < self.threshold:
            self._low_streak += 1
            if self._low_streak >= self.patience:
                self._stop_recommended = True
        else:
            self._low_streak = 0
        self._window_hits = 0
        self._window_accesses = 0

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
        self._window_hits = 0
        self._window_accesses = 0

    @property
    def stop_swap_recommended(self) -> bool:
        """True once a full window measured a hit ratio below the threshold."""
        return self._stop_recommended

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "clean_discards": self.clean_discards,
        }
