"""The one settings reader (:mod:`repro.settings`).

Every environment variable the program reads is a row of
:data:`repro.settings.KNOBS`; these tests drive each row through unset,
well-formed and malformed values, check the meanings a well-formed value
keeps (0 disables, clamps to 1, the derived heartbeat directory), and
the places the parsed settings surface: the service's command line,
``/health/ready``, flight records and ``profile.json``.
"""

import json
import logging
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from repro.service import CampaignService, ServiceClient, serve
from repro.service.__main__ import main as service_main
from repro.settings import KNOBS, Settings, SettingsError, settings
from repro.telemetry import flight
from repro.telemetry.profiler import RunProfile, write_profile

#: (variable, default, well-formed value, its parsed value, malformed value)
CASES = [
    ("REPRO_JOBS", None, "4", 4, "four"),
    ("REPRO_CACHE_DIR", Path("~/.cache/repro-disco").expanduser(),
     "/srv/cache", Path("/srv/cache"), "/srv/\ncache"),
    ("REPRO_DISK_CACHE", True, "0", False, "no"),
    ("REPRO_KERNEL_MODE", "event", "tick", "tick", "evnet"),
    ("REPRO_LOG_LEVEL", logging.WARNING, "info", logging.INFO, "bogus"),
    ("REPRO_SPEC_TIMEOUT", 600.0, "2.5", 2.5, "10s"),
    ("REPRO_RETRY_BACKOFF", 0.1, "0.5", 0.5, "soon"),
    ("REPRO_QUARANTINE_AFTER", 3, "5", 5, "x"),
    ("REPRO_WATCHDOG_SECONDS", None, "5", 5.0, "5s"),
    ("REPRO_HEARTBEAT_DIR", None, "/srv/hb", Path("/srv/hb"), "/srv/\thb"),
    ("REPRO_CHECKPOINT_INTERVAL", 0, "100000", 100000, "100k"),
    ("REPRO_CHECKPOINT_DIR", None, "/srv/ck", Path("/srv/ck"), "/srv/\nck"),
    ("REPRO_RESUME", False, "1", True, "yes"),
    ("REPRO_FLIGHT_DIR", None, "/srv/fl", Path("/srv/fl"), "/srv/\nfl"),
    ("REPRO_PROFILE_OUT", None, "p.json", Path("p.json"), "p\n.json"),
    ("REPRO_RUNNER_FAULT", None, "crash-once:disco:dedup:/tmp/m",
     "crash-once:disco:dedup:/tmp/m", "crash:disco"),
    ("REPRO_SIM_LOG", None, "/srv/sims", Path("/srv/sims"), "/srv/\rsims"),
    ("XDG_CACHE_HOME", None, "/srv/xdg", Path("/srv/xdg"), "/srv/\nxdg"),
]

FIELD = {knob.name: knob.field for knob in KNOBS}


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for knob in KNOBS:
        monkeypatch.delenv(knob.name, raising=False)


def test_the_table_covers_every_field():
    assert [case[0] for case in CASES] == [knob.name for knob in KNOBS]
    assert [knob.field for knob in KNOBS] == [f.name for f in fields(Settings)]
    assert sum(knob.name.startswith("REPRO_") for knob in KNOBS) == 17


@pytest.mark.parametrize(
    "name, default, good, value, bad", CASES, ids=[case[0] for case in CASES]
)
def test_unset_good_and_malformed(monkeypatch, name, default, good, value, bad):
    field = FIELD[name]
    assert getattr(settings(), field) == default
    monkeypatch.setenv(name, "  ")
    assert getattr(settings(), field) == default  # empty is unset
    monkeypatch.setenv(name, good)
    assert getattr(settings(), field) == value
    monkeypatch.setenv(name, bad)
    with pytest.raises(SettingsError) as excinfo:
        settings()
    assert f"{name} {bad!r}" in str(excinfo.value)


@pytest.mark.parametrize(
    "name",
    ["REPRO_SPEC_TIMEOUT", "REPRO_RETRY_BACKOFF", "REPRO_WATCHDOG_SECONDS"],
)
def test_zero_or_negative_seconds_disable(monkeypatch, name):
    for raw in ("0", "-1"):
        monkeypatch.setenv(name, raw)
        assert getattr(settings(), FIELD[name]) is None


def test_zero_disables_checkpoints(monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "0")
    assert settings().checkpoint_interval == 0
    monkeypatch.setenv("REPRO_CHECKPOINT_INTERVAL", "-5")
    assert settings().checkpoint_interval == 0


@pytest.mark.parametrize("name", ["REPRO_JOBS", "REPRO_QUARANTINE_AFTER"])
def test_counts_clamp_to_one(monkeypatch, name):
    for raw in ("0", "-3"):
        monkeypatch.setenv(name, raw)
        assert getattr(settings(), FIELD[name]) == 1


def test_log_level_takes_a_name_or_a_number(monkeypatch):
    monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
    assert settings().log_level == logging.DEBUG
    monkeypatch.setenv("REPRO_LOG_LEVEL", "15")
    assert settings().log_level == 15


def test_removed_batch_mode_says_so(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_MODE", "batch")
    with pytest.raises(SettingsError, match="'batch' was removed"):
        settings()


def test_non_finite_seconds_are_malformed(monkeypatch):
    monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "nan")
    with pytest.raises(SettingsError, match="REPRO_SPEC_TIMEOUT 'nan'"):
        settings()


def test_heartbeat_dir_is_derived(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert settings().heartbeat_dir is None
    monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "0")
    assert settings().heartbeat_dir is None
    monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "30")
    assert settings().heartbeat_dir == tmp_path / "heartbeats"
    monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(tmp_path / "pinned"))
    assert settings().heartbeat_dir == tmp_path / "pinned"


def test_settings_are_frozen():
    with pytest.raises(AttributeError):
        settings().jobs = 2


def test_service_refuses_a_malformed_value_before_starting(
    monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "5s")
    threads = threading.active_count()
    assert service_main(["--port", "0"]) != 0
    assert threading.active_count() == threads
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "REPRO_WATCHDOG_SECONDS '5s'" in err


def test_ready_probe_flight_dump_and_profile_echo_the_settings(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
    monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "4")
    expected = settings().as_dict()
    assert json.loads(json.dumps(expected)) == expected
    service = CampaignService(workers=1).start()
    server = serve(service, "127.0.0.1", 0)
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
        )
        _, detail = client.health("ready")
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=False, timeout=10.0)
    assert detail["settings"] == expected
    flight.reset_for_tests()
    try:
        path = flight.recorder(role="worker").dump("settings_echo")
    finally:
        flight.reset_for_tests()
    assert json.loads(path.read_text())["settings"] == expected
    profile = tmp_path / "profile.json"
    write_profile(str(profile), RunProfile())
    assert json.loads(profile.read_text())["settings"] == expected


def test_readme_lists_every_setting():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Settings", 1)[1].split("\n## ", 1)[0]
    for knob in KNOBS:
        assert f"`{knob.name}`" in table, knob.name
