"""Live sweep progress: per-point lines and the campaign's status line.

:class:`SweepProgress` is a ready-made ``progress=`` callback for
:func:`~repro.core.sweep.explore`. The scheduler calls it once per
grid point, on its own thread, so the reporter needs no locking.

Three output layers, controlled by ``verbosity``:

* ``0`` (``--quiet``) — nothing per point.
* ``1`` (default) — one summary line per completed point, tagged when
  the front-end came from cache (the classic sweep output).
* ``2+`` (``-v``) — adds per-point stage wall times and attempt counts.

The status line ("``17/40 points  3.2 pt/s  eta 7.2s  1 failed  cache
84%``") is :meth:`~repro.obs.health.CampaignHealth.status_line` of the
running campaign's health snapshot, the one ``/campaign`` serves, so
the reporter keeps no count of its own. When ``err`` is a terminal it
is redrawn in place on stderr after every point, so a long campaign is
never silent; on non-terminals (CI logs, pipes) the live line is
suppressed and only :meth:`finish` returns the final status.
"""

from __future__ import annotations

import sys
from typing import IO, TYPE_CHECKING

from .health import CampaignHealth, campaign_health

if TYPE_CHECKING:  # pragma: no cover
    from ..core.results import RunResult

__all__ = ["SweepProgress"]


class SweepProgress:
    """Progress reporter / ``explore`` callback for one campaign."""

    def __init__(
        self,
        *,
        verbosity: int = 1,
        out: IO[str] | None = None,
        err: IO[str] | None = None,
    ):
        self.verbosity = verbosity
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self._live = bool(getattr(self.err, "isatty", lambda: False)())
        self._live_width = 0

    # -- the explore() callback --------------------------------------------

    def __call__(self, result: "RunResult") -> None:
        if self.verbosity >= 1:
            self._clear_live()
            engine_info = result.detail.get("engine", {})
            if not isinstance(engine_info, dict):
                engine_info = {}
            cached = engine_info.get("frontend_cache") == "hit"
            tag = "  [cached front-end]" if cached else ""
            self.out.write(result.summary() + tag + "\n")
            stage_s = engine_info.get("stage_s", {})
            if self.verbosity >= 2 and isinstance(stage_s, dict) and stage_s:
                stages = "  ".join(
                    f"{name} {seconds:.4f}s" for name, seconds in stage_s.items()
                )
                attempts = engine_info.get("attempts", 1)
                self.out.write(f"    stages: {stages}  (attempt(s): {attempts})\n")
        if self._live:
            self._draw_live()

    # -- rendering ---------------------------------------------------------

    def status_line(self) -> str:
        """The running campaign's status line (see the module doc)."""
        return (campaign_health() or CampaignHealth()).status_line()

    def _draw_live(self) -> None:
        line = self.status_line()
        pad = max(0, self._live_width - len(line))
        self.err.write("\r" + line + " " * pad)
        self.err.flush()
        self._live_width = len(line)

    def _clear_live(self) -> None:
        if self._live and self._live_width:
            self.err.write("\r" + " " * self._live_width + "\r")
            self.err.flush()
            self._live_width = 0

    def finish(self) -> str:
        """Clear the live line and return the final status summary."""
        self._clear_live()
        return self.status_line()
