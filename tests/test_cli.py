"""Tests for the ``knactor`` CLI."""

import pytest

from repro.cli.main import main


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "knactor" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "c / f / b / d" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--orders", "3"]) == 0
        out = capsys.readouterr().out
        assert "K-apiserver" in out and "K-redis-udf" in out

    def test_demo_retail(self, capsys):
        assert main(["demo", "retail", "--orders", "1", "--profile", "K-redis"]) == 0
        out = capsys.readouterr().out
        assert "status=fulfilled" in out

    def test_demo_retail_telemetry_judges_the_exchange_spans(self, capsys):
        """``--telemetry`` builds the app with the obs plane: its SLO line
        reads the exchange spans, and the snapshot gains its ``obs``
        section."""
        assert main(["demo", "retail", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert out.count("status=fulfilled") == 3
        assert '\n  "obs": {\n' in out
        assert out.splitlines()[-1] == (
            "SLO exchange-latency [trace-latency]: p99 4.35 ms vs "
            "100.00 ms over 12 spans -> MET")

    def test_demo_smarthome(self, capsys):
        assert main(["demo", "smarthome"]) == 0
        out = capsys.readouterr().out
        assert "lamp changes" in out

    def test_describe_retail(self, capsys):
        assert main(["describe", "retail"]) == 0
        out = capsys.readouterr().out
        assert "knactor checkout" in out and "grant" in out

    def test_analyze_valid_dxg(self, tmp_path, capsys):
        dxg = tmp_path / "good.dxg"
        dxg.write_text(
            "Input:\n  A: app/v1/A/sa\n  B: app/v1/B/sb\n"
            "DXG:\n  B:\n    x: A.y\n"
        )
        assert main(["analyze", str(dxg)]) == 0
        out = capsys.readouterr().out
        assert "analysis   : ok" in out and "plan:" in out

    def test_analyze_cyclic_dxg_fails(self, tmp_path, capsys):
        dxg = tmp_path / "bad.dxg"
        dxg.write_text(
            "Input:\n  A: app/v1/A/sa\n  B: app/v1/B/sb\n"
            "DXG:\n  A:\n    x: B.y\n  B:\n    y: A.x\n"
        )
        assert main(["analyze", str(dxg)]) == 1

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.dxg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "export", str(out_file), "--orders", "1"]) == 0
        import json

        data = json.loads(out_file.read_text())
        assert len(data["traceEvents"]) > 10
        # Spans, and each span's annotations as instants on its track.
        phases = {entry["ph"] for entry in data["traceEvents"]}
        assert phases == {"X", "i"}

    def test_trace_requires_subcommand(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "trace.json")])

    def test_trace_request(self, capsys):
        assert main(["trace", "request", "o00001", "--orders", "1"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "place-order" in out
        assert "order/o00001" in out

    def test_trace_request_unknown_order(self, capsys):
        assert main(["trace", "request", "o99999", "--orders", "1"]) == 1
        err = capsys.readouterr().err
        assert "no trace" in err and "order/o00001" in err

    def test_top(self, capsys):
        assert main(["top", "--orders", "1"]) == 0
        out = capsys.readouterr().out
        assert "store_ops_total" in out
        assert "traces 1" in out

    def test_top_slo(self, capsys):
        assert main(["top", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO report: sensorfleet" in out
        assert "burn rates" in out
        assert "budget left" in out
        # The flash crowd burns the availability budget hard enough to
        # trip both multi-window alerts.
        assert "[ALERT]" in out
        assert "alerts firing: 2 -- sensorfleet-availability" in out

    def test_bench_names_resolve_to_modules(self):
        from pathlib import Path

        from repro.cli.main import BENCHMARKS, build_parser

        benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
        for name, module in BENCHMARKS.items():
            args = build_parser().parse_args(["bench", name])
            assert args.bench == name
            assert (benchmarks / f"{module}.py").is_file()

    def test_unknown_bench_exits(self):
        with pytest.raises(SystemExit):
            main(["bench", "frobnicate"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
