"""Trace-driven timing model of the 2-issue in-order core.

Instead of ticking cycle by cycle, the model computes each committed
instruction's issue cycle analytically from (a) program order and issue
width, (b) operand readiness (in-order cores stall in decode until
sources are ready), (c) the single data-cache port, and (d) store-buffer
structural hazards — the effect at the heart of the paper. This keeps
full-suite sweeps tractable in pure Python while preserving every hazard
the figures depend on.

Resilience timing: region instances open at BOUNDARY commits; a closed
instance's quarantined stores receive release times ``end + WCDL`` (then
drain one per cycle through the L1 write port); the CLQ, coloring maps
and the prior-region-verified gate decide which stores bypass the buffer
entirely.

The model itself is the lane kernel of :mod:`repro.runtime.multisim`:
a solo run is a one-lane sweep, so the figure sweeps and every solo
caller evaluate the same code.
"""

from __future__ import annotations

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.runtime import multisim


class InOrderCore:
    """One simulated core configuration; :meth:`run` times one trace."""

    def __init__(
        self,
        core: CoreConfig,
        resilience: ResilienceHardwareConfig,
    ):
        self.core = core
        self.res = resilience

    def run(self, trace: list[tuple]) -> SimStats:
        (stats,) = multisim.run_lanes(trace, [(self.core, self.res)])
        return stats


def simulate_trace(
    trace: list[tuple],
    core: CoreConfig | None = None,
    resilience: ResilienceHardwareConfig | None = None,
) -> SimStats:
    """Convenience wrapper: fresh core, one run."""
    core = core or CoreConfig()
    resilience = resilience or ResilienceHardwareConfig.baseline()
    return InOrderCore(core, resilience).run(trace)
