"""Unit tests for the experiment CLI."""

import hashlib
import os
import subprocess
import sys

import pytest

import repro

from repro.cli import COMMANDS, build_parser, main, run

#: The ``src`` directory this ``repro`` was imported from.
SRC = os.path.dirname(os.path.dirname(repro.__file__))


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


#: SHA-256 (first 16 hex digits) of each harness's full output.  The
#: experiments are seeded, so any change to what a simulated run does
#: -- an extra kernel event, a moved RNG draw -- shows up here.
EXPERIMENT_DIGESTS = [
    (["figure6-top", "--repeats", "5"], "2eef00175ab357b7"),
    (["figure6-bottom", "--repeats", "5"], "15e397d562615832"),
    (["figure1"], "8aabe273e9248d7e"),
    (["lower-bounds"], "5095f027606cdff8"),
    (["log-complexity", "--operations", "20"], "d8cac92482942bea"),
    (["message-complexity"], "ac5a0d6862e1cc95"),
    (["ablations"], "c270291a4aa8a470"),
    (["weaker-memory", "--repeats", "5"], "bb980407ba6a02f4"),
    (["show-run"], "fb86dff8acca1954"),
]


@pytest.mark.parametrize(
    "argv, digest", EXPERIMENT_DIGESTS, ids=[argv[0] for argv, _ in EXPERIMENT_DIGESTS]
)
def test_experiment_output_is_pinned(argv, digest):
    text = run(argv)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["soak", "nosuch"], "unknown scenario 'nosuch'"),
        (["trace", "nosuch"], "unknown scenario 'nosuch'"),
        (["fleet", "--seeds", "5..1"], "bad seed range '5..1': 1 < 5"),
        (["soak", "--quick", "--ops", "1"], "operations"),
        (["soak", "--quick", "--workers", "0"], "workers must be >= 1, got 0"),
        (["fleet", "--quick", "--workers", "0"],
         "workers must be >= 1, got 0"),
    ],
    ids=["soak-unknown", "trace-unknown", "fleet-seeds", "soak-ops",
         "soak-workers", "fleet-workers"],
)
def test_input_errors_end_in_one_line(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("sys.argv", ["repro", *argv])
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_a_reader_that_stops_early_gets_no_traceback():
    """``repro trace ... | head -2``: the output outgrows the pipe's buffer."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "trace", "steady-state", "--quick",
         "--format", "text"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    lines = [child.stdout.readline() for _ in range(2)]
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert lines[0].startswith(b"seed:")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
