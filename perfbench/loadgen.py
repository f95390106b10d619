"""Open-loop load generation on a seeded Poisson schedule.

Each wearer sends windows as an independent Poisson process, so the merged
stream is Poisson at ``n_wearers * rate_per_wearer_hz``.  The generator
thread sends each window when it is due, whether or not earlier windows
have completed, and records how late it ran; the serving benchmark times
every window from its due time, so a stall in the system also counts
against the windows queued behind it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


def poisson_schedule(
    rng: np.random.Generator, n_wearers: int, rate_per_wearer_hz: float, duration_s: float
) -> list[tuple[float, int]]:
    """``(due offset s, wearer)`` pairs in due order, all before ``duration_s``."""
    if rate_per_wearer_hz <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    mean_gap = 1.0 / rate_per_wearer_hz
    # Enough draws that every wearer's last arrival passes the horizon
    # with overwhelming probability; the loop below tops up if not.
    per_wearer = int(duration_s * rate_per_wearer_hz * 1.5) + 16
    due: list[tuple[float, int]] = []
    for wearer in range(n_wearers):
        times = np.cumsum(rng.exponential(mean_gap, per_wearer))
        while times[-1] < duration_s:
            more = times[-1] + np.cumsum(rng.exponential(mean_gap, per_wearer))
            times = np.concatenate([times, more])
        due.extend((float(t), wearer) for t in times[times < duration_s])
    due.sort()
    return due


@dataclass
class Sent:
    """One window the generator sent: who, when it was due, when it went."""

    wearer: int
    due_s: float
    sent_s: float
    handle: Any


class OpenLoopGenerator(threading.Thread):
    """Sends ``schedule`` through ``send(wearer)``, offsets measured from ``t0``.

    ``t0`` is a ``time.monotonic()`` reading, the clock the scheduler
    stamps its sessions with, so due and completion times compare.

    ``send`` returns a handle the caller later reads completion from.  An
    exception in ``send`` stops the generator and is re-raised by
    :meth:`result`.
    """

    def __init__(
        self,
        schedule: list[tuple[float, int]],
        send: Callable[[int], Any],
        t0: float,
    ) -> None:
        super().__init__(name="perfbench-loadgen", daemon=True)
        self.schedule = schedule
        self.send = send
        self.t0 = t0
        self.sent: list[Sent] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            for offset, wearer in self.schedule:
                due = self.t0 + offset
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent_s = time.monotonic()
                self.sent.append(Sent(wearer, due, sent_s, self.send(wearer)))
        except Exception as exc:  # noqa: BLE001 - re-raised by result()
            self.error = exc

    def result(self, timeout: float) -> list[Sent]:
        """Wait for the schedule to finish; the windows sent, in order."""
        self.join(timeout)
        if self.is_alive():
            raise TimeoutError(f"load generator still running after {timeout} s")
        if self.error is not None:
            raise self.error
        return self.sent


def lateness_ms(sent: list) -> dict[str, float]:
    """How late the generator sent windows: p99 and max, in ms.

    ``sent`` holds :class:`Sent` records, or anything else with ``due_s``
    and ``sent_s``.
    """
    late = np.array([max(0.0, s.sent_s - s.due_s) for s in sent], dtype=float) * 1e3
    if late.size == 0:
        return {"late_p99_ms": 0.0, "late_max_ms": 0.0}
    return {"late_p99_ms": float(np.percentile(late, 99)), "late_max_ms": float(late.max())}
