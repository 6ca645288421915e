"""Deterministic fault injection for campaign-resilience testing.

A multi-hour DSE campaign has to survive the failure modes real
AOCL/SDAccel-class toolchains exhibit: transient build failures, flaky
kernel launches, points that stall for hours, and corrupted readbacks.
This module makes those failures *injectable and reproducible*, so the
retry/backoff, watchdog and journal machinery in
:mod:`repro.core.engine` / :mod:`repro.core.sweep` is itself testable.

A :class:`FaultPlan` is seeded and **keyed per point**: whether a fault
fires at a given ``(site, point, attempt)`` is derived by hashing the
plan seed with the point's parameter fingerprint — never from a shared
stream — so the decision is independent of execution order. A parallel
sweep, a serial sweep, and a killed-and-resumed sweep all see the same
faults at the same points, which is what makes byte-identical resumed
campaigns possible.

Injected errors carry the :class:`~repro.errors.TransientError` mixin:
the engine retries them with exponential backoff, and the build caches
refuse to memoize them.

Sites (see :data:`FAULT_SITES`):

``generate`` / ``compile`` / ``build``
    The staged pipeline's front half; ``build`` models a toolchain
    flake (a place-and-route crash, not a resource overflow — those
    are real failures and stay permanent).
``launch``
    ``enqueue_nd_range_kernel`` rejects the launch, as a wedged driver
    would.
``readback``
    The result transfer flips bits; STREAM validation catches it and
    the engine retries the point.
``stall``
    The point hangs (bounded by ``stall_s``), cooperatively checking
    the watchdog so a budget cancels it as a ``timeout`` failure.
``verify``
    A simulated *miscompile*: the differential re-execution inside the
    engine's optional verify stage (see :mod:`repro.verify`) has one
    word corrupted before comparison, so the verifier must flag the
    point. Unlike every other site this one is deliberately **not**
    transient — a miscompile reproduces on retry — and the engine
    records it as a permanent ``"verify_mismatch"`` failure.
``worker_crash``
    The whole *worker* dies mid-point (a segfaulting toolchain, an OOM
    kill) — consulted by the campaign executors
    (:mod:`repro.core.scheduler.executors`), not by the engine's
    ``check()``: the process backend hard-kills the worker process,
    the serial backend simulates the same death. The attempt number
    in the draw is the point's *restart count*, so requeue-then-succeed
    schedules are deterministic and backend-independent; exhausting the
    scheduler's restart budget records a permanent ``"worker_crash"``
    failure.
``journal_write``
    A *torn write*: the process dies mid-``write(2)`` while appending a
    journal record, leaving a truncated final line on disk — consulted
    by :class:`~repro.core.history.SweepJournal`, which writes a
    deterministic prefix of the record and hard-kills the process
    (:data:`~repro.core.history.TORN_WRITE_EXIT_CODE`). The attempt
    number in the draw is the journal *sequence number* (records ever
    appended), not a per-point retry count, so a resumed journal does
    not re-fire the same tear forever.
``journal_fsync``
    The per-record ``fsync`` of a ``--durable-journal`` fails
    (``EIO``-style) — the journal raises
    :class:`~repro.errors.JournalError` and the scheduler degrades to
    in-memory operation instead of aborting the campaign.
``disk_full``
    The journal append hits ``ENOSPC``
    (:class:`~repro.errors.DiskFullError`); like ``journal_fsync``,
    surfaces as a ``journal_degraded`` event, not a dead campaign.
    Also keyed on the journal sequence number.

Specs are parsed from compact CLI text::

    mp-stream sweep --inject-faults 'build=0.3,launch=0.2,seed=7'
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    BenchmarkError,
    BuildError,
    LaunchError,
    ReproError,
    TransientError,
    ValidationError,
)
from .rng import DEFAULT_SEED, make_rng

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "InjectedBuildFault",
    "InjectedLaunchFault",
    "InjectedReadbackFault",
]

#: every place a fault can be injected
FAULT_SITES = (
    "generate",
    "compile",
    "build",
    "launch",
    "readback",
    "stall",
    "verify",
    "vectorize",
    "worker_crash",
    "journal_write",
    "journal_fsync",
    "disk_full",
)

#: wall seconds a stalled point hangs when no watchdog cancels it
DEFAULT_STALL_S = 30.0


class InjectedFault(TransientError, ReproError):
    """An injected transient failure in the generate/compile stages."""


class InjectedBuildFault(TransientError, BuildError):
    """An injected transient toolchain failure during the device build."""


class InjectedLaunchFault(TransientError, LaunchError):
    """An injected flaky kernel launch."""


class InjectedReadbackFault(TransientError, ValidationError):
    """Validation caught an injected readback corruption."""


@dataclass(frozen=True)
class FaultSpec:
    """Parsed fault-injection specification.

    ``rates`` maps a site name to a per-point firing probability;
    ``seed`` drives every draw; ``stall_s`` bounds how long an injected
    stall hangs.
    """

    rates: tuple[tuple[str, float], ...] = ()
    seed: int = DEFAULT_SEED
    stall_s: float = DEFAULT_STALL_S

    def __post_init__(self) -> None:
        for site, rate in self.rates:
            if site not in FAULT_SITES:
                raise BenchmarkError(
                    f"unknown fault site {site!r}; valid: {', '.join(FAULT_SITES)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise BenchmarkError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate}"
                )
        if self.stall_s <= 0:
            raise BenchmarkError(f"stall_s must be > 0, got {self.stall_s}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``"build=0.3,launch=0.2,seed=7,stall_s=5"``."""
        rates: dict[str, float] = {}
        seed = DEFAULT_SEED
        stall_s = DEFAULT_STALL_S
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise BenchmarkError(
                    f"bad fault spec token {token!r}: expected SITE=RATE"
                )
            key, _, value = token.partition("=")
            key = key.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "stall_s":
                    stall_s = float(value)
                else:
                    rates[key] = float(value)
            except ValueError as exc:
                raise BenchmarkError(
                    f"bad fault spec value {token!r}: {exc}"
                ) from exc
        return cls(rates=tuple(sorted(rates.items())), seed=seed, stall_s=stall_s)

    def describe(self) -> str:
        parts = [f"{site}={rate:g}" for site, rate in self.rates]
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


class FaultPlan:
    """Executable fault schedule derived from a :class:`FaultSpec`.

    Stateless and thread-safe: every decision is a pure function of
    ``(seed, site, point_key, attempt)``, so one plan is shared by all
    worker engines of a parallel sweep.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._rates: Mapping[str, float] = dict(spec.rates)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        return cls(FaultSpec.parse(text))

    # -- decisions ---------------------------------------------------------------

    def _draw(self, site: str, point_key: str, attempt: int) -> float:
        payload = f"{self.spec.seed}\x1f{site}\x1f{attempt}\x1f{point_key}"
        digest = hashlib.sha256(payload.encode()).digest()
        derived = int.from_bytes(digest[:8], "little")
        return float(make_rng(derived).random())

    def should_fire(self, site: str, point_key: str, attempt: int) -> bool:
        """Does ``site`` fault at this point/attempt? Order-independent."""
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._draw(site, point_key, attempt) < rate

    # -- effects -----------------------------------------------------------------

    def check(self, site: str, point_key: str, attempt: int) -> None:
        """Raise the site's transient error if the fault fires."""
        if not self.should_fire(site, point_key, attempt):
            return
        note = f"injected {site} fault (attempt {attempt})"
        if site == "build":
            raise InjectedBuildFault(
                "transient toolchain failure", device="<injected>", log=note
            )
        if site == "launch":
            raise InjectedLaunchFault(f"flaky kernel launch: {note}")
        raise InjectedFault(note)

    def corrupt_readback(
        self,
        point_key: str,
        attempt: int,
        arrays: "Mapping[str, np.ndarray] | np.ndarray",
    ) -> bool:
        """Flip one word of the readback if the fault fires.

        Accepts either the observed-array mapping of the device-stream
        path or the single destination array of the host-stream path;
        returns whether corruption was injected (the caller converts
        the resulting validation failure into a transient error).
        """
        if not self.should_fire("readback", point_key, attempt):
            return False
        self._flip_word("corrupt", point_key, attempt, arrays)
        return True

    def corrupt_verify(
        self,
        point_key: str,
        attempt: int,
        arrays: "Mapping[str, np.ndarray] | np.ndarray",
    ) -> bool:
        """Flip one word of the verifier's differential outputs.

        Models a miscompile: the recompiled reference execution the
        verify stage compares against disagrees with the device, and
        the verifier must report a ``verify_mismatch`` — permanently,
        since the same wrong code would come back on every retry.
        Returns whether corruption was injected.
        """
        if not self.should_fire("verify", point_key, attempt):
            return False
        self._flip_word("verify-corrupt", point_key, attempt, arrays)
        return True

    def corrupt_vectorize(
        self,
        point_key: str,
        attempt: int,
        arrays: "Mapping[str, np.ndarray] | np.ndarray",
    ) -> bool:
        """Flip one word of the *observed* arrays after validation.

        Models an array-lane miscompile below the STREAM validation
        tolerance: the engine applies this strictly after
        ``validate_solution`` passed and before the verify stage runs,
        so the only detector is strict differential verification —
        which must classify the point as a permanent
        ``verify_mismatch``, identically on every scheduler backend.
        Returns whether corruption was injected.
        """
        if not self.should_fire("vectorize", point_key, attempt):
            return False
        self._flip_word("vectorize-corrupt", point_key, attempt, arrays)
        return True

    def _flip_word(
        self,
        label: str,
        point_key: str,
        attempt: int,
        arrays: "Mapping[str, np.ndarray] | np.ndarray",
    ) -> None:
        """XOR one deterministically chosen byte of one array."""
        if isinstance(arrays, np.ndarray):
            victims = [arrays]
        else:
            victims = [arrays[name] for name in sorted(arrays)]
        rng = make_rng(
            int.from_bytes(
                hashlib.sha256(
                    f"{self.spec.seed}\x1f{label}\x1f{attempt}\x1f{point_key}".encode()
                ).digest()[:8],
                "little",
            )
        )
        victim = victims[int(rng.integers(len(victims)))]
        flat = victim.reshape(-1).view(np.uint8)
        if flat.size:
            flat[int(rng.integers(flat.size))] ^= 0xFF

    def torn_write(self, point_key: str, attempt: int, nbytes: int) -> int | None:
        """How many bytes of an ``nbytes``-byte journal record survive a tear.

        Returns ``None`` when the ``journal_write`` fault does not fire
        at this ``(point_key, sequence-number)`` draw, otherwise a
        deterministic prefix length in ``[1, nbytes - 1]`` — the torn
        record is always *partial*: never empty (that would be
        indistinguishable from "not written"), never whole (that would
        be a clean append). Records of fewer than 2 bytes cannot tear.
        """
        if nbytes < 2 or not self.should_fire("journal_write", point_key, attempt):
            return None
        rng = make_rng(
            int.from_bytes(
                hashlib.sha256(
                    f"{self.spec.seed}\x1ftear\x1f{attempt}\x1f{point_key}".encode()
                ).digest()[:8],
                "little",
            )
        )
        return 1 + int(rng.integers(nbytes - 1))

    def stall(
        self,
        point_key: str,
        attempt: int,
        checkpoint: Callable[[], None] | None = None,
    ) -> float:
        """Hang the point (bounded by ``stall_s``) if the fault fires.

        Sleeps in short slices, calling ``checkpoint`` between them so
        a watchdog budget can cancel the stall by raising
        :class:`~repro.errors.PointTimeoutError`; returns the wall
        seconds actually stalled.
        """
        if not self.should_fire("stall", point_key, attempt):
            return 0.0
        deadline = time.monotonic() + self.spec.stall_s
        t0 = time.monotonic()
        while True:
            if checkpoint is not None:
                checkpoint()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return time.monotonic() - t0
            time.sleep(min(0.01, remaining))
