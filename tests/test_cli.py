from __future__ import annotations

import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bwlist.arith import CVector, QComplex, format_vector
from bwlist.cli import EXIT_INTERNAL, EXIT_MAX_LIST, EXIT_OK, EXIT_USAGE, main
from bwlist.rmcode import lower_bound_instance
from srcenv import SRC_ENV

DEEP_HOLE_2 = "1/2,1/2 1/2,1/2"


def _run(argv: list[str], capsys, stdin: str | None = None,
         monkeypatch=None) -> tuple[int, str, str]:
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_from_stdin(capsys, monkeypatch) -> None:
    code, out, err = _run(["decode", "--eta", "1/2"], capsys,
                          stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith("\t1/2") for line in lines)
    assert "1,0 0,1\t1/2" in lines


def test_decode_matches_oracle_output(capsys, monkeypatch, tmp_path) -> None:
    word = tmp_path / "word.txt"
    word.write_text("3/4,-1/2 0,2 1,0 -1/4,1/4\n", encoding="utf-8")
    code, decoded, _ = _run(
        ["decode", "--eta", "3/4", "--input", str(word)], capsys)
    assert code == EXIT_OK
    code, oracled, _ = _run(
        ["oracle", "--eta", "3/4", "--input", str(word)], capsys)
    assert code == EXIT_OK
    assert decoded == oracled


def test_decode_writes_output_file(capsys, monkeypatch, tmp_path) -> None:
    dest = tmp_path / "out.txt"
    code, out, _ = _run(["decode", "--eta", "1/2", "--output", str(dest)],
                        capsys, stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert out == ""
    assert len(dest.read_text(encoding="utf-8").strip().splitlines()) == 8


def test_decode_level_check(capsys, monkeypatch) -> None:
    code, _, err = _run(["decode", "--eta", "1/2", "--n", "2"], capsys,
                        stdin="0,0 0,0", monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert "level" in err


def test_decode_workers_flag(capsys, monkeypatch) -> None:
    code, out, _ = _run(["decode", "--eta", "1/2", "--workers", "2"], capsys,
                        stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 8
    code, _, err = _run(["decode", "--eta", "1/2", "--workers", "0"], capsys,
                        stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    # the help says what the count does: nothing, as every decode runs in
    # one process
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--workers WORKERS accepted for callers that pass it; every "
            "decode runs in one process") in text


def test_decode_max_list_exit_code(capsys, monkeypatch) -> None:
    code, _, err = _run(["decode", "--eta", "1/2", "--max-list", "3"], capsys,
                        stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_MAX_LIST
    assert "exceeds cap" in err


def test_decode_cap_ignores_a_skipped_subtree(capsys, monkeypatch) -> None:
    # at 1/4 both halves of the level-2 deep hole decode empty, so the
    # transformed halves' lists of one member, which a cap of 0 would
    # refuse, are never built
    code, out, err = _run(["decode", "--eta", "1/4", "--max-list", "0"],
                          capsys, stdin=f"{DEEP_HOLE_2} {DEEP_HOLE_2}",
                          monkeypatch=monkeypatch)
    assert (code, out, err) == (EXIT_OK, "", "")


def test_decode_prints_a_level_zero_word(capsys, monkeypatch) -> None:
    # a one-coordinate point is formatted on its own path: each line starts
    # with the coordinate's text, not with its characters spaced out
    code, out, err = _run(["decode", "--eta", "1"], capsys,
                          stdin="1/4,-1/3", monkeypatch=monkeypatch)
    assert (code, out, err) == (
        EXIT_OK, "0,-1\t73/144\n0,0\t25/144\n1,0\t97/144\n", "")


def test_decode_cap_message_is_the_same_at_every_worker_count(
        capsys, monkeypatch) -> None:
    # the crafted word translated by the lattice member (1, ..., 1) has
    # 5210 members at 3/4, all found by its top combine; every child list
    # fits under the cap, and the root's scan must stop at the same size at
    # 1 and 2 workers
    r = lower_bound_instance(5, Fraction(1, 4)).received
    word = format_vector(r + CVector([QComplex(1)] * len(r)))
    runs = [_run(["decode", "--eta", "3/4", "--max-list", "5000",
                  "--workers", workers], capsys, stdin=word,
                 monkeypatch=monkeypatch)
            for workers in ("1", "2")]
    assert runs[0] == runs[1] == (
        EXIT_MAX_LIST, "", "error: list size 5001 exceeds cap 5000\n")


def test_bad_eta_is_usage_error(capsys, monkeypatch) -> None:
    code, _, err = _run(["decode", "--eta", "0.5"], capsys,
                        stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert "malformed rational: '0.5'" in err
    # integer flags take an optional minus and ASCII digits, as rationals do
    for flag, value in (("--workers", " 1_0 "), ("--workers", "\u0662"),
                        ("--n", "+1"), ("--max-list", "1_000")):
        code, out, err = _run(["decode", "--eta", "1/2", flag, value], capsys,
                              stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
        assert (code, out) == (EXIT_USAGE, ""), (flag, value)
        assert "malformed integer" in err


def test_negative_max_list_is_usage_error(capsys, monkeypatch) -> None:
    code, out, err = _run(["decode", "--eta", "1/100", "--max-list", "-1"],
                          capsys, stdin="5,0 0,0", monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert out == ""
    assert "max_list must be >= 0" in err


def test_missing_subcommand_is_usage_error(capsys) -> None:
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["bench", "--eta", "1/4"]) == EXIT_USAGE
    capsys.readouterr()


def test_member_true_false(capsys, monkeypatch) -> None:
    code, out, _ = _run(["member"], capsys, stdin="1,0 0,1",
                        monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_OK, "true\n")
    code, out, _ = _run(["member"], capsys, stdin="1,0 0,0",
                        monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_OK, "false\n")


def test_gen_prints_generator_rows(capsys) -> None:
    code, out, _ = _run(["gen", "2"], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "1,0 1,0 1,0 1,0",
        "0,0 1,1 0,0 1,1",
        "0,0 0,0 1,1 1,1",
        "0,0 0,0 0,0 0,2",
    ]


def test_kissing_output(capsys) -> None:
    code, out, _ = _run(["kissing", "1"], capsys)
    assert (code, out) == (EXIT_OK, "2\t24\n")
    code, out, _ = _run(["kissing", "0"], capsys)
    assert (code, out) == (EXIT_OK, "1\t4\n")


def test_kissing_respects_cap(capsys) -> None:
    code, _, err = _run(["kissing", "3", "--cap", "2"], capsys)
    assert code == EXIT_USAGE
    assert err != ""
    for argv in (["kissing", "\u0662"], ["kissing", "1", "--cap", "4_0"],
                 ["gen", " +1"], ["rm-mindist", "3", "\uff11"],
                 ["bounds", "1", "--trials", "+2"]):
        code, out, err = _run(argv, capsys)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert "malformed integer" in err
    # a negative trial count is refused, not read as no random words
    code, out, err = _run(["bounds", "1", "--trials", "-1"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: trials must be >= 0\n")


def test_oracle_depth_limit_is_a_usage_error() -> None:
    # a level-10 word is refused with an error line, not a RecursionError
    # traceback
    zero_word = " ".join(["0,0"] * 1024)
    for argv, stdin in ((["oracle", "--eta", "0", "--cap", "10"], zero_word),
                        (["kissing", "10", "--cap", "10"], "")):
        proc = subprocess.run([sys.executable, "-m", "bwlist.cli", *argv],
                              input=stdin, env=SRC_ENV, capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, ""), argv
        assert proc.stderr == (
            "error: level 10 exceeds the oracle's depth limit 9\n"), argv


def test_lower_bound_output(capsys) -> None:
    code, out, _ = _run(["lower-bound", "2", "1/2"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "r\t1,1 0,0 0,0 0,0"
    assert lines[1] == "k\t1"
    assert lines[2] == "count\t3"
    assert len(lines) == 6


def test_rm_mindist_output(capsys) -> None:
    code, out, _ = _run(["rm-mindist", "3", "1"], capsys)
    assert (code, out) == (EXIT_OK, "4\n")


def test_rm_mindist_refuses_a_code_too_large_to_enumerate(capsys) -> None:
    code, out, err = _run(["rm-mindist", "5", "3"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert "2^26 codewords" in err


def test_bounds_reports_and_exit(capsys) -> None:
    code, out, _ = _run(["bounds", "1", "--trials", "2"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n\teta\tword\tmeasured\tlower\tupper\tformula\tok"
    assert len(lines) > 1
    assert all(line.endswith("\ttrue") for line in lines[1:])


def test_failed_self_check_is_an_internal_error(capsys, monkeypatch) -> None:
    # the oracle re-checks every point it emits; a failed check exits 3
    monkeypatch.setattr("bwlist.oracle.member_pairs", lambda pairs: False)
    code, out, err = _run(["oracle", "--eta", "1/2"], capsys,
                          stdin=DEEP_HOLE_2, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal error: oracle emitted non-member")


def test_console_script_entry_point() -> None:
    proc = subprocess.run([sys.executable, "-m", "bwlist.cli", "gen", "1"],
                          env=SRC_ENV, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "1,0 1,0\n0,0 1,1\n"


def test_closed_output_pipe_is_not_an_error() -> None:
    # the reader's end is closed before the command starts.  Unbuffered,
    # the first write fails; buffered (PYTHONUNBUFFERED empty), `gen 6`
    # fails on a write and `gen 1` only when its output is flushed
    for unbuffered, level in (("1", "1"), ("", "1"), ("", "6")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bwlist.cli", "gen", level],
                env=dict(SRC_ENV, PYTHONUNBUFFERED=unbuffered),
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), (
            unbuffered, level)


def test_cli_import_leaves_the_pool_unloaded() -> None:
    # every decode runs in one process, so no command imports a process
    # pool; every value type is a tuple, so nothing loads dataclasses
    # either; and the bounds, oracle and rmcode modules load only in the
    # subcommands that use them
    script = ("import sys, bwlist.cli\n"
              "for name in ('concurrent.futures.process', 'multiprocessing',\n"
              "             'dataclasses', 'bwlist.bounds', 'bwlist.oracle',\n"
              "             'bwlist.rmcode'):\n"
              "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
