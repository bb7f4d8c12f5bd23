"""The do-nothing control: free-running clocks.

Included so that comparisons have a floor to compare against — with no
synchronization the skew between nonfaulty clocks grows linearly at up to
``2ρ`` per unit of real time, starting from the initial spread β.
"""

from __future__ import annotations

from ..core.config import SyncParameters
from ..sim.process import Process, ProcessContext

__all__ = ["UnsynchronizedProcess", "free_running_skew_bound"]


class UnsynchronizedProcess(Process):
    """A process that never adjusts its clock (and never sends anything)."""

    def __init__(self, params: SyncParameters):
        self.params = params

    def on_start(self, ctx: ProcessContext) -> None:
        ctx.log("free_running", local_time=ctx.local_time())

    def label(self) -> str:
        return "Unsynchronized"


def free_running_skew_bound(params: SyncParameters, elapsed_real_time: float) -> float:
    """Worst-case skew of free-running clocks after ``elapsed_real_time``."""
    drift_spread = (1 + params.rho) - 1.0 / (1 + params.rho)
    return params.beta + drift_spread * elapsed_real_time
