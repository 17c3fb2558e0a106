"""Every environment setting the program reads, parsed in one place.

:func:`settings` parses ``os.environ`` through the :data:`KNOBS` table
into a frozen :class:`Settings`.  An unset or empty variable takes its
default; a malformed one raises :class:`SettingsError` naming the
variable, the value and the form expected.  No cache: each call reads
the environment as it is, and no caller runs per simulated cycle.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

#: The scheduler modes (``batch`` was removed; naming it raises saying so).
KERNEL_MODES = ("event", "tick")

#: The ``REPRO_RUNNER_FAULT`` modes (see the runner's fault hook).
RUNNER_FAULT_MODES = ("crash", "crash-once", "exit", "hang-once")


class SettingsError(ValueError):
    """A malformed environment setting."""


def check_kernel_mode(mode: str, source: str = "kernel mode") -> str:
    """``mode`` if it names a scheduler; otherwise a ValueError naming
    the value (and, for ``batch``, saying the mode was removed)."""
    if mode == "batch":
        raise ValueError(f"{source} 'batch' was removed: the event kernel "
                         "runs the native router sweep; use 'event' or 'tick'")
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown {source} {mode!r}: expected 'event' or 'tick'")
    return mode


# Parsers take the stripped, non-empty raw value; ValueError: malformed.


def _at_least(low: int) -> Callable[[str], int]:
    return lambda raw: max(low, int(raw))


def _seconds_or_off(raw: str) -> Optional[float]:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value if value > 0 else None


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _path(raw: str) -> Path:
    # A control character (a newline from a captured command, say) is a
    # pasting mistake, never a path anyone meant.
    if any(ord(char) < 32 for char in raw):
        raise ValueError(raw)
    return Path(raw).expanduser()


def _log_level(raw: str) -> int:
    level = int(raw) if raw.isdigit() else logging.getLevelName(raw.upper())
    if not isinstance(level, int):
        raise ValueError(raw)
    return level


def _runner_fault(raw: str) -> str:
    mode, *target = raw.split(":", 3)
    if mode not in RUNNER_FAULT_MODES or len(target) < 2 or "" in target[:2]:
        raise ValueError(raw)
    return raw


class Knob(NamedTuple):
    name: str
    field: str
    parse: Callable[[str], object]
    default: Optional[str]
    form: str


_SECONDS = "seconds (0 disables)"
_DIR = "a directory path"
_FILE = "a file path"

#: Every variable the program reads, in the README's order: its field,
#: parser, the raw value an unset variable stands for (``None``: the
#: field is ``None``) and the form a valid value takes.
KNOBS = (
    Knob("REPRO_JOBS", "jobs", _at_least(1), None, "an integer"),
    Knob("REPRO_CACHE_DIR", "cache_dir", _path, "~/.cache/repro-disco", _DIR),
    Knob("REPRO_DISK_CACHE", "disk_cache", _switch, "1", "0 or 1"),
    Knob("REPRO_KERNEL_MODE", "kernel_mode", check_kernel_mode, "event",
         "'event' or 'tick' ('batch' was removed)"),
    Knob("REPRO_LOG_LEVEL", "log_level", _log_level, "WARNING",
         "a logging level name or number"),
    Knob("REPRO_SPEC_TIMEOUT", "spec_timeout", _seconds_or_off, "600",
         _SECONDS),
    Knob("REPRO_RETRY_BACKOFF", "retry_backoff", _seconds_or_off, "0.1",
         _SECONDS),
    Knob("REPRO_QUARANTINE_AFTER", "quarantine_after", _at_least(1), "3",
         "an integer"),
    Knob("REPRO_WATCHDOG_SECONDS", "watchdog_seconds", _seconds_or_off, None,
         _SECONDS),
    Knob("REPRO_HEARTBEAT_DIR", "heartbeat_dir", _path, None, _DIR),
    Knob("REPRO_CHECKPOINT_INTERVAL", "checkpoint_interval", _at_least(0),
         "0", "an integer number of cycles (0 disables)"),
    Knob("REPRO_CHECKPOINT_DIR", "checkpoint_dir", _path, None, _DIR),
    Knob("REPRO_RESUME", "resume", _switch, "0", "0 or 1"),
    Knob("REPRO_FLIGHT_DIR", "flight_dir", _path, None, _DIR),
    Knob("REPRO_PROFILE_OUT", "profile_out", _path, None, _FILE),
    Knob("REPRO_RUNNER_FAULT", "runner_fault", _runner_fault, None,
         "mode:scheme:workload[:marker] with mode one of "
         + ", ".join(RUNNER_FAULT_MODES)),
    Knob("REPRO_SIM_LOG", "sim_log", _path, None, _FILE),
    Knob("XDG_CACHE_HOME", "xdg_cache_home", _path, None, _DIR),
)


@dataclass(frozen=True)
class Settings:
    """The parsed environment, one field per :data:`KNOBS` row (``None``:
    off, or for ``jobs`` the CPU count, ``checkpoint_dir`` the cache's
    ``checkpoints``, ``xdg_cache_home`` ``~/.cache``).  ``heartbeat_dir``
    falls back to the cache's ``heartbeats`` while the watchdog is on."""

    jobs: Optional[int]
    cache_dir: Path
    disk_cache: bool
    kernel_mode: str
    log_level: int
    spec_timeout: Optional[float]
    retry_backoff: Optional[float]
    quarantine_after: int
    watchdog_seconds: Optional[float]
    heartbeat_dir: Optional[Path]
    checkpoint_interval: int
    checkpoint_dir: Optional[Path]
    resume: bool
    flight_dir: Optional[Path]
    profile_out: Optional[Path]
    runner_fault: Optional[str]
    sim_log: Optional[Path]
    xdg_cache_home: Optional[Path]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready fields (paths as strings): the echo in
        ``/health/ready``, flight records and ``profile.json``."""
        return {
            name: str(value) if isinstance(value, Path) else value
            for name, value in vars(self).items()
        }


def settings() -> Settings:
    """Parse the environment; raises :class:`SettingsError` on the first
    malformed variable."""
    values = {}
    for knob in KNOBS:
        raw = os.environ.get(knob.name, "").strip() or knob.default
        try:
            values[knob.field] = None if raw is None else knob.parse(raw)
        except ValueError:
            raise SettingsError(
                f"{knob.name} {raw!r}: expected {knob.form}"
            ) from None
    if values["heartbeat_dir"] is None and values["watchdog_seconds"]:
        values["heartbeat_dir"] = values["cache_dir"] / "heartbeats"
    return Settings(**values)
