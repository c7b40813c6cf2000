"""CLI commands and the full-text report builders."""

import pytest

import repro
from repro.analysis.report import global_report, longitudinal_report, reference_report
from repro.cli import build_parser, main
from repro.pipeline.vantage import run_distributed


# ----------------------------------------------------------------------
# Report builders
# ----------------------------------------------------------------------
def test_reference_report_contains_all_tables(reference_run, ipv6_run):
    text = reference_report(reference_run, ipv6_run)
    for marker in (
        "Table 1",
        "Table 2",
        "Table 3",
        "Table 4",
        "Table 5",
        "Table 6",
        "Table 7",
        "Parking",
    ):
        assert marker in text
    assert "Cloudflare" in text
    assert "Arelion" in text


def test_reference_report_without_traces_skips_table4(shape_world):
    run = repro.run_weekly_scan(
        shape_world, shape_world.config.reference_week, populations=("toplist",)
    )
    text = reference_report(run)
    assert "Table 4" not in text
    assert "Table 1" in text


def test_longitudinal_report(campaign):
    text = longitudinal_report(campaign)
    assert "Figure 3" in text
    assert "Figure 4" in text
    assert "Figure 8" in text
    assert "LiteSpeed" in text


def test_global_report(shape_world, reference_run):
    dist = run_distributed(
        shape_world, main_run=reference_run, vantage_ids=["main-aachen", "aws-frankfurt"]
    )
    text = global_report(shape_world, dist)
    assert "Figure 7" in text
    assert "aws-frankfurt" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("scan", "campaign", "distributed", "trace", "l4s", "grease"):
        args = parser.parse_args(
            [command]
            + (["--provider", "Cloudflare"] if command == "trace" else [])
        )
        assert args.command == command


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_l4s_runs(capsys):
    assert main(["l4s", "--rounds", "50"]) == 0
    out = capsys.readouterr().out
    assert "penalty" in out


def test_cli_trace_runs(capsys):
    code = main(
        ["trace", "--provider", "Server Central", "--scale", "20000", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "impairment: cleared" in out
    assert "AS1299" in out


def test_cli_trace_unknown_provider_fails(capsys):
    code = main(["trace", "--provider", "NoSuchOrg", "--scale", "20000"])
    assert code == 1


def test_cli_grease_runs(capsys):
    code = main(["grease", "--scale", "20000", "--max-sites", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "visibility gain" in out


def test_cli_scan_runs(capsys):
    code = main(["scan", "--scale", "20000", "--no-tracebox"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 5" in out


# ----------------------------------------------------------------------
# --week parsing (regression: malformed weeks used to escape as a bare
# ``ValueError: not enough values to unpack`` traceback)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad_week", ["2023-15", "2023W15", "W15", "2023-W", "15"])
def test_cli_rejects_malformed_week_with_usage_error(capsys, bad_week):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--week", bad_week])
    assert excinfo.value.code == 2  # argparse usage error, not a traceback
    err = capsys.readouterr().err
    assert "invalid week" in err
    assert "2023-W15" in err  # the error teaches the expected form


def test_cli_rejects_out_of_range_week(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--week", "2023-W54"])
    assert excinfo.value.code == 2
    assert "1..53" in capsys.readouterr().err


def test_cli_accepts_valid_week_forms():
    parser = build_parser()
    args = parser.parse_args(["scan", "--week", "2023-W15"])
    assert args.week == repro.Week(2023, 15)
    args = parser.parse_args(["scan", "--week", "2022-w9"])
    assert args.week == repro.Week(2022, 9)


# ----------------------------------------------------------------------
# --week applies to the IPv6 leg (regression: it always scanned the
# configured ipv6_week, silently ignoring the user's week)
# ----------------------------------------------------------------------
def _capture_scan_weeks(monkeypatch):
    calls = []

    def fake_scan(world, week, vantage_id="main-aachen", **kwargs):
        calls.append((week, kwargs.get("ip_version", 4)))
        return object()

    monkeypatch.setattr(repro, "run_weekly_scan", fake_scan)
    import repro.cli as cli_module

    monkeypatch.setattr(cli_module, "reference_report", lambda run, ipv6=None: "ok")
    return calls


def test_cli_scan_ipv6_leg_honours_explicit_week(monkeypatch, capsys):
    calls = _capture_scan_weeks(monkeypatch)
    assert main(["scan", "--scale", "40000", "--ipv6", "--week", "2023-W10"]) == 0
    assert calls == [
        (repro.Week(2023, 10), 4),
        (repro.Week(2023, 10), 6),
    ]


def test_cli_scan_ipv6_leg_defaults_to_ipv6_week(monkeypatch, capsys):
    calls = _capture_scan_weeks(monkeypatch)
    assert main(["scan", "--scale", "40000", "--ipv6"]) == 0
    from repro.web.spec import WorldConfig

    config = WorldConfig()
    assert calls == [
        (config.reference_week, 4),
        (config.ipv6_week, 6),
    ]


# ----------------------------------------------------------------------
# Telemetry flags: --metrics-out / --trace-out / --progress / --quiet
# ----------------------------------------------------------------------
def test_cli_campaign_diagnostics_go_to_stderr(capsys):
    assert main(["campaign", "--scale", "20000", "--cadence", "26"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3" in captured.out  # the report stays on stdout
    assert "exchange cache:" in captured.err
    assert "exchange cache:" not in captured.out


def test_cli_quiet_silences_diagnostics(capsys):
    assert main(["campaign", "--scale", "20000", "--cadence", "26", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "Figure 3" in captured.out
    assert captured.err == ""


def test_cli_campaign_metrics_and_trace_out(tmp_path, capsys):
    import json

    from repro.obs import load_metrics

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "campaign",
            "--scale", "20000",
            "--cadence", "26",
            "--shards", "2",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"metrics: {metrics_path}" in captured.err
    assert f"trace: {trace_path}" in captured.err

    report = load_metrics(metrics_path)  # schema-checked load
    metrics = report["metrics"]
    # The report reproduces every counter the CLI prints as diagnostics.
    for name in (
        "campaign.weeks",
        "campaign.domains",
        "campaign.exchange_cache.hits",
        "campaign.exchange_cache.misses",
        "campaign.exchange_cache.hit_rate",
    ):
        assert name in metrics, name
    gone = ("campaign.supervision.", "worker.")
    assert not [name for name in metrics if name.startswith(gone)]
    assert metrics["campaign.weeks"]["value"] > 0
    assert report["spans"]["campaign.campaign"]["count"] == 1

    document = json.loads(trace_path.read_text())
    events = document["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    assert {"campaign", "week", "shard"} <= {event["name"] for event in events}


def test_cli_scan_metrics_out(tmp_path, capsys):
    from repro.obs import load_metrics

    metrics_path = tmp_path / "metrics.json"
    code = main(
        ["scan", "--scale", "20000", "--no-tracebox",
         "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    metrics = load_metrics(metrics_path)["metrics"]
    assert "campaign.exchange_cache.hit_rate" in metrics
    assert metrics["campaign.phase.site_seconds"]["value"] > 0


def test_cli_progress_heartbeat(capsys):
    assert main(
        ["campaign", "--scale", "20000", "--cadence", "26", "--progress"]
    ) == 0
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("[progress]")]
    assert lines, "expected [progress] heartbeat lines on stderr"
    assert "week" in lines[-1] and "dom/s" in lines[-1]
    assert "retries" not in lines[-1]
    assert "[progress]" not in captured.out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--cadence", "0"], "--cadence must be >= 1"),
        (["--cadence", "-4"], "--cadence must be >= 1"),
        (["--shards", "0"], "--shards must be >= 1"),
        (["--shards", "-2"], "--shards must be >= 1"),
    ],
)
def test_cli_campaign_rejects_non_positive_cadence_and_shards(capsys, flags, message):
    # Rejected before any world is built: a zero cadence used to loop
    # forever, a negative one or zero shards died with a traceback.
    assert main(["campaign", "--scale", "20000", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"{message}, got {flags[1]}"]


@pytest.mark.parametrize(
    "flag", ["--workers", "--ticket-sites", "--shard-timeout", "--shard-retries"]
)
def test_cli_campaign_has_no_worker_pool_flags(capsys, flag):
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    assert flag not in capsys.readouterr().out
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", flag, "2"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# --world-cache
# ----------------------------------------------------------------------
def test_cli_world_cache_persists_and_rehydrates(tmp_path, capsys):
    from repro.web import snapshot

    snapshot.clear_memory_cache()
    args = ["scan", "--scale", "40000", "--no-tracebox",
            "--world-cache", str(tmp_path)]
    assert main(args) == 0
    cold_out = capsys.readouterr().out
    cached = list(tmp_path.glob("world-*.ecnw"))
    assert len(cached) == 1
    snapshot.clear_memory_cache()
    assert main(args) == 0  # rehydrates from disk
    assert capsys.readouterr().out == cold_out
    snapshot.clear_memory_cache()
