"""Unit tests for the experiment CLI."""

import pytest

from repro.cli import COMMANDS, build_parser, run


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_commands(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure7"])

    def test_every_command_is_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_repeats_flag(self):
        args = build_parser().parse_args(["figure6-top", "--repeats", "7"])
        assert args.repeats == 7

    @pytest.mark.parametrize(
        "command",
        ["figure1", "lower-bounds", "message-complexity", "ablations",
         "show-run", "log-complexity"],
    )
    def test_repeats_is_rejected_where_ignored(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--repeats", "3"])

    @pytest.mark.parametrize(
        "command",
        ["figure1", "lower-bounds", "message-complexity", "ablations",
         "show-run", "figure6-top", "figure6-bottom", "weaker-memory"],
    )
    def test_operations_is_rejected_where_ignored(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--operations", "3"])

    def test_all_still_takes_both_flags(self):
        args = build_parser().parse_args(
            ["all", "--repeats", "3", "--operations", "4"]
        )
        assert (args.repeats, args.operations) == (3, 4)

    @pytest.mark.parametrize(
        "argv",
        [["bench"], ["kv-bench"], ["trace-bench"], ["recovery-bench"],
         ["soak", "--output-dir", "x"], ["fleet", "--output-dir", "x"],
         ["fleet", "--scaling", "1,2"]],
    )
    def test_legacy_bench_surface_is_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestExecution:
    def test_figure1(self):
        text = run(["figure1"])
        assert "persistent" in text and "transient" in text

    def test_figure6_top_fast(self):
        text = run(["figure6-top", "--repeats", "2"])
        assert "N (workstations)" in text

    def test_figure6_bottom_fast(self):
        text = run(["figure6-bottom", "--repeats", "1"])
        assert "payload (bytes)" in text
        assert "R^2" in text

    def test_lower_bounds(self):
        text = run(["lower-bounds"])
        assert "rho1" in text and "rho4" in text

    def test_log_complexity_fast(self):
        text = run(["log-complexity", "--operations", "6"])
        assert "bound" in text

    def test_weaker_memory_fast(self):
        text = run(["weaker-memory", "--repeats", "2"])
        assert "regular" in text

    def test_ablations(self):
        text = run(["ablations"])
        assert "writer-prelog" in text

    def test_message_complexity(self):
        text = run(["message-complexity"])
        assert "steps" in text
        assert "persistent" in text

    def test_show_run(self):
        text = run(["show-run"])
        assert "W(v1)" in text
        assert "X" in text  # the crash marker
