"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 100_000
        args = build_parser().parse_args(["rates", "--loads", "0.5"])
        assert args.loads == [0.5]

    @pytest.mark.parametrize("batches", ["0", "-3"])
    def test_client_rejects_empty_zipf_run(self, batches):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "--batches", batches])

    @pytest.mark.parametrize("command", ["bench", "rates", "demo", "trace"])
    def test_size_flag_rejects_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--n", "0"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--loads", "0"],
            ["rates", "--loads", "1.5"],
            ["rates", "--groups", "0"],
            ["rates", "--groups", "3"],
            ["demo", "--topology", "p100:0"],
            ["trace", "--topology", "p100:0"],
            ["trace", "--topology", "bogus"],
            ["bench", "--smoke", "--topology", "p100:9"],
            ["serve", "--topology", "cluster:0x4"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        flag = next(a for a in argv if a.startswith("--") and a != "--smoke")
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "trace", "serve"])
    def test_m_flag_is_gone(self, command):
        """``--topology`` is the only spelling of the GPU set."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--m", "2"])
        assert exc.value.code == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla P100" in out
        assert "calibration" in out
        subsystems = next(
            line for line in out.splitlines() if line.startswith("subsystems:")
        ).split()
        assert {"serve", "obs"} <= set(subsystems)

    def test_rates_accepts_full_load(self, capsys):
        assert main(["rates", "--n", "1024", "--loads", "1.0", "--groups", "4"]) == 0
        assert "1.00" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "demo OK" in out
        assert "G inserts/s" in out

    def test_demo_labels_the_resolved_topology(self, capsys):
        assert main(["demo", "--n", "5000", "--topology", "pcie:2"]) == 0
        out = capsys.readouterr().out
        assert "2x P100" in out and "4x P100" not in out

    def test_rates(self, capsys):
        assert main(["rates", "--n", "2048", "--loads", "0.5", "--groups", "4"]) == 0
        out = capsys.readouterr().out
        assert "INSERTION" in out and "WD|g|=4" in out

    def test_rates_zipf(self, capsys):
        assert (
            main(
                ["rates", "--n", "2048", "--loads", "0.8", "--groups", "2",
                 "--distribution", "zipf"]
            )
            == 0
        )
        assert "zipf" in capsys.readouterr().out

    def test_figures_quick(self, capsys):
        """The quick figure regeneration runs end to end from the CLI."""
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for marker in ("Fig. 7", "Fig. 9", "Fig. 11", "A1", "A4"):
            assert marker in out

    def test_bench_smoke_distribution(self, capsys, tmp_path):
        out_path = tmp_path / "dist.json"
        assert (
            main(
                ["bench", "--smoke", "--out", str(out_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "distribution total speedup" in out
        assert "vs reference" in out
        assert out_path.exists() and '"cpus"' in out_path.read_text()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--suite", "distribution"],
            ["--engines", "serial"],
            ["--workers", "2"],
            ["--kernels", "compiled"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_bench_rejects_removed_flags(self, flag):
        """`repro bench` runs only the distribution suite; the flags of
        the deleted engine/serving suites are gone."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--smoke", *flag])
        assert exc.value.code == 2
