"""The serving loop's health model: fault signals -> reconfiguration gates.

Consumes the per-step fault signals the engine already produces
(whether a capacity fault struck, from the step's
:class:`~repro.obs.timeline.EpochRecord`, and
:meth:`~repro.faults.state.FaultState.health_summary`) and drives the
policy's online-reconfiguration hooks.  Three states::

    HEALTHY ----new fault/degraded capacity----> DEGRADED
    DEGRADED --fault bursts within flap window-> FLAPPING
    FLAPPING --window ages out------------------> DEGRADED/HEALTHY

* Entering **DEGRADED** on a capacity-changing fault (unit fail-stop or
  row quarantine) forces a re-placement at the next epoch boundary via
  :meth:`NdpExtPolicy.request_reconfigure` — the churn damper is
  bypassed because lost capacity must be re-spread even when the
  predicted gain is marginal.  Link-level degradation (lane down-train,
  CRC burst) marks the window but does not force a re-placement:
  placement capacity did not change.
* **FLAPPING** (>= ``flap_threshold`` fault-striking epochs within the
  last ``flap_window`` engine epochs) *pauses* reconfiguration entirely
  (:meth:`NdpExtPolicy.set_reconfig_enabled`): re-placing after every
  strike of a fault storm costs more in movements/invalidations than
  the placements gain.  When the storm ages out of the window the
  monitor re-enables reconfiguration and forces one catch-up
  re-placement for the accumulated damage.

State changes are emitted as ``serve_degraded`` recorder events and the
non-healthy intervals are reported as *degradation windows* —
``[start_epoch, end_epoch)`` pairs — in the :class:`ServeReport`.
"""

from __future__ import annotations

from collections import deque

HEALTHY = "healthy"
DEGRADED = "degraded"
FLAPPING = "flapping"


class HealthMonitor:
    """Tracks fault activity and gates the policy's reconfiguration."""

    def __init__(
        self,
        policy,
        recorder,
        flap_window: int = 8,
        flap_threshold: int = 3,
    ) -> None:
        if flap_window < 1 or flap_threshold < 2:
            raise ValueError("flap_window >= 1 and flap_threshold >= 2 required")
        self.policy = policy
        self.recorder = recorder
        self.flap_window = flap_window
        self.flap_threshold = flap_threshold
        self.state = HEALTHY
        self.reconfig_requests = 0
        self.windows: list[list[int | None]] = []
        self._fault_epochs: deque[int] = deque()
        self._last_epoch = -1

    # ------------------------------------------------------------------

    def _force_reconfig(self) -> None:
        request = getattr(self.policy, "request_reconfigure", None)
        if request is not None:
            request()
            self.reconfig_requests += 1

    def _set_enabled(self, enabled: bool) -> None:
        setter = getattr(self.policy, "set_reconfig_enabled", None)
        if setter is not None:
            setter(enabled)

    def observe(
        self, epoch: int, capacity_fault: bool, summary: dict | None
    ) -> str:
        """Fold one engine step's fault signals in; returns the state.

        ``capacity_fault`` is whether a unit failure or row quarantine
        struck at this step."""
        self._last_epoch = epoch
        if capacity_fault:
            self._fault_epochs.append(epoch)
        while self._fault_epochs and self._fault_epochs[0] <= epoch - self.flap_window:
            self._fault_epochs.popleft()

        degraded = bool(summary and summary.get("degraded"))
        if len(self._fault_epochs) >= self.flap_threshold:
            target = FLAPPING
        elif degraded or capacity_fault:
            target = DEGRADED
        else:
            target = HEALTHY

        previous = self.state
        if target != previous:
            if previous == FLAPPING:
                # Storm over: resume reconfiguration and re-place once
                # for everything that struck while it was paused.
                self._set_enabled(True)
                self._force_reconfig()
            if target == FLAPPING:
                self._set_enabled(False)
            self.state = target
            if target == HEALTHY:
                self._close_window(epoch)
            elif previous == HEALTHY:
                self.windows.append([epoch, None])
            self.recorder.event(
                "serve_degraded",
                state=target,
                previous=previous,
                epoch=epoch,
                fault_epochs_in_window=len(self._fault_epochs),
                summary=summary,
            )
        if capacity_fault and self.state != FLAPPING:
            self._force_reconfig()
        return self.state

    # ------------------------------------------------------------------

    def _close_window(self, epoch: int) -> None:
        if self.windows and self.windows[-1][1] is None:
            self.windows[-1][1] = epoch

    def windows_view(self) -> list[list[int]]:
        """The degradation windows as closed pairs *without* mutating
        anything — an open window is reported as ending now.  The live
        ``/metrics`` and ``/healthz`` snapshots use this; :meth:`finish`
        remains the end-of-run closer."""
        return [
            [int(a), int(b if b is not None else self._last_epoch + 1)]
            for a, b in self.windows
        ]

    def finish(self) -> list[list[int]]:
        """Close any open degradation window and return them all."""
        if self.windows and self.windows[-1][1] is None:
            self.windows[-1][1] = self._last_epoch + 1
        return [[int(a), int(b)] for a, b in self.windows]
