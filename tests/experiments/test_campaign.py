"""Full-campaign report generation (tiny class), and the CLI that
prints the same sections."""

import hashlib
import json
import re

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.cli import main

#: sha256 of ``run_campaign(klass="T")`` without its wall-time footer.
#: Any change to a table, figure, chart or heading moves it.
REPORT_T_SHA256 = (
    "6318ab34284c010f334fbcba7e0a61d887f43bad5c6909018ef173496ac3cdb9"
)

STATS = re.compile(r"cache: (\d+) hits / (\d+) misses")


def _body(text: str) -> str:
    """The report without its wall-time footer."""
    return text[: text.rindex("\n---\n")]


def _sections(text: str) -> list[str]:
    """Every ``## `` section of a report, verbatim."""
    return ["## " + s for s in _body(text).split("\n## ")[1:]]


def _lookups(text: str) -> int:
    hits, misses = STATS.search(text).groups()
    return int(hits) + int(misses)


@pytest.fixture(scope="module")
def report_text():
    return run_campaign(klass="T", codes=["EP", "FT"])


def test_contains_every_section(report_text):
    for heading in (
        "Table 1",
        "Table 2",
        "Fidelity",
        "Figure 1",
        "Figure 2",
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Figure 8",
        "Figure 9",
        "Figure 11",
        "Figure 12",
        "Figure 14",
    ):
        assert f"## {heading}" in report_text, heading


def test_charts_included(report_text):
    assert "swim crescendo" in report_text
    assert "* delay   o energy" in report_text


def test_wall_time_footer(report_text):
    assert "Campaign wall time" in report_text


def test_report_body_digest():
    body = _body(run_campaign(klass="T"))
    assert hashlib.sha256(body.encode()).hexdigest() == REPORT_T_SHA256


def test_write_report_creates_file(tmp_path, capsys):
    path = tmp_path / "R.md"
    assert main(["report", "--class", "T", "--codes", "EP", "--no-cache",
                 "--out", str(path)]) == 0
    assert path.exists()
    assert path.read_text().startswith("# Reproduction report")


def test_cli_report_target(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--class", "T", "--codes", "EP",
                 "--no-cache"]) == 0
    text = (tmp_path / "REPORT.md").read_text()
    assert text.startswith("# Reproduction report")
    # The stats printed are those of the runner that built the report.
    footer = text[text.rindex("\n---\n"):]
    stats = re.search(r"worker, (.*)\); mean Table 2", footer).group(1)
    out = capsys.readouterr().out
    assert f"[{stats}]" in out
    assert _lookups(out) > 0


def test_cli_report_under_faults(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--class", "T", "--codes", "EP", "--no-cache",
                 "--faults", "mild"]) == 0
    assert "## Fault injection" in (tmp_path / "REPORT.md").read_text()


def test_cli_report_archives_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--class", "T", "--codes", "EP", "--no-cache",
                 "--json", "sweeps.json"]) == 0
    assert list(json.loads((tmp_path / "sweeps.json").read_text())) == ["EP"]


def test_cli_report_optimal_honours_delta(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--class", "T", "--codes", "EP", "--no-cache",
                 "--optimal", "--delta", "0.2"]) == 0
    text = (tmp_path / "REPORT.md").read_text()
    assert "## Computed frontier — FT" in text
    assert "delay cap 1.200" in text


def test_cli_all_prints_every_report_section(capsys):
    """``all`` and the report render the same sections from the same
    builders, and ``all`` asks the runner for no more points."""
    report = run_campaign(klass="T", codes=["EP"])
    assert main(["all", "--class", "T", "--codes", "EP", "--no-cache"]) == 0
    out = capsys.readouterr().out
    sections = _sections(report)
    assert len(sections) == 13
    missing = [s.splitlines()[0] for s in sections if s not in out]
    assert not missing
    assert _lookups(out) <= _lookups(report)


def test_campaign_parallel_cached_smoke(tmp_path):
    """Tiny campaign with two workers and a cold-then-warm cache."""
    cache = tmp_path / "cache"
    cold = run_campaign(klass="T", codes=["EP"], jobs=2, cache_dir=cache)
    assert "2 workers" in cold
    warm = run_campaign(klass="T", codes=["EP"], jobs=2, cache_dir=cache)
    # Every cacheable point hits on the warm pass...
    assert "0 misses" in warm
    # ...and the science (everything but the wall-time footer) matches.
    assert _body(warm) == _body(cold)
