"""One benchmark run: set up, check, measure, report.

The load is a closed loop with one client: each `bwlist decode` starts
only after the previous one has exited.  A run alternates a --workers 1
and a --workers 2 decode of the same word until --seconds have passed,
and reports medians over those decodes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bwlist.rmcode import lower_bound_instance

from tracing import Tracer, seconds, traced_run
from verify import (
    CheckFailed,
    gate,
    oracle_crosscheck,
    parse_output,
    verify_independently,
)
from workloads import Input, Workload, build_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = json.loads((BENCH / "pins.json").read_text())
OUT = BENCH / "out"
CLI = [sys.executable, "-m", "bwlist.cli"]

# one setup takes milliseconds, less than the machine's speed swings last:
# time it in batches of this length, one before the first decode and one
# before each decode pair, and report the median of the batch means
SETUP_BATCH_SECONDS = 0.1

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def git_sha() -> str:
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


class Decoder:
    """Runs `bwlist decode` as a subprocess and checks each output."""

    def __init__(self, workload: Workload, inp: Input, pin: dict, work: Path,
                 env: dict) -> None:
        self.workload, self.inp, self.pin, self.env = workload, inp, pin, env
        self.word_path = work / "word.txt"
        self.work = work
        self.verified: bytes | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def decode(self, workers: int):
        """(wall seconds, rusage) of one decode; counts it and checks it."""
        out = self.work / f"out_w{workers}.txt"
        err = self.work / f"err_w{workers}.txt"
        out.unlink(missing_ok=True)
        cmd = CLI + ["decode", "--eta", str(self.workload.eta),
                     "--workers", str(workers),
                     "--input", str(self.word_path), "--output", str(out)]
        with open(err, "wb") as err_file:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_file)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(f"w{workers} exit {proc.returncode}: "
                      f"{err.read_text().strip()[-300:]}")
        else:
            self.check(out.read_bytes(), f"w{workers}")
        return wall, usage

    def check(self, data: bytes, label: str) -> None:
        """Every output must equal the run's first output that passed the
        gate and the independent verification."""
        if self.verified is not None:
            if data != self.verified:
                self.fail(f"{label} output differs from the verified output")
            return
        try:
            entries = parse_output(data.decode())
        except ValueError as exc:
            self.fail(f"{label}: malformed output: {exc}")
            return
        problems = gate(self.workload, self.inp, entries, self.pin)
        problems += verify_independently(self.inp.text, entries,
                                         self.workload.eta)
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:5]))
        else:
            self.verified = data

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run(workload: Workload, seed: int, run_seconds: float, trace: int,
        pin: dict | None = None) -> int:
    """One run; prints the report and returns the exit status.

    `pin` defaults to the workload's entry in pins.json.
    """
    work = OUT / f"{workload.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    setup_times = []

    def set_up():
        builds = 0
        start = time.perf_counter()
        while not builds or elapsed < SETUP_BATCH_SECONDS:
            inp = build_input(workload, seed)
            (work / "word.txt").write_text(inp.text)
            builds += 1
            elapsed = time.perf_counter() - start
        setup_times.append(elapsed / builds)
        return inp

    inp = set_up()
    (work / "zero.txt").write_text("0,0\n")
    member = CLI + ["member", "--input", str(work / "zero.txt")]
    dec = Decoder(workload, inp, pin or PINS[workload.name], work, env)

    # untimed: fills the bytecode caches a user's later runs would have
    subprocess.run(member, env=env, capture_output=True, check=False)
    dec.attempted += 1
    for problem in oracle_crosscheck(workload, seed):
        dec.fail(problem)

    w1, w2, cpu_w2, rss = [], [], [], []
    deadline = time.perf_counter() + run_seconds
    while not w1 or (not trace and time.perf_counter() < deadline):
        set_up()
        wall, usage = dec.decode(1)
        w1.append(wall)
        rss.append(usage.ru_maxrss / 1024)
        wall, usage = dec.decode(2)
        w2.append(wall)
        cpu_w2.append(usage.ru_utime + usage.ru_stime)

    report = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "trace": trace, "seconds": run_seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "samples": {"decode_w1": len(w1), "decode_w2": len(w2),
                    "setup": len(setup_times)},
        "raw": {"decode_s": w1, "decode_w2_s": w2, "cpu_w2_s": cpu_w2,
                "peak_rss_mb": rss, "setup_s": setup_times},
    }
    if trace:
        # with tracing on, the decodes above only check the output and give
        # the untraced wall that the tracing overhead is measured against
        metrics = traced_metrics(dec, member, deadline, report)
        if metrics:
            traced = sum(metrics[name] for name in (
                "cli.startup_s", "arith.parse_s", "decode.seq_s",
                "arith.format_s"))
            report["tracing_overhead"] = {
                "traced_s": traced, "untraced_decode_s": w1[0],
                "share": traced / w1[0] - 1,
            }
    else:
        metrics = {
            name: statistics.median(values)
            for name, values in report["raw"].items()
        }
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if metrics and set(metrics) != declared:
        dec.fail(f"metrics {sorted(set(metrics) ^ declared)} do not match "
                 "BENCHMARK.json")
    report["metrics"] = metrics
    report["error_rate"] = dec.failed / dec.attempted
    report["problems"] = dec.problems
    (work / f"result-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"# {workload.name} seed={seed} trace={trace}: {workload.why}")
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:24s} {shown} {UNITS[name]}")
    print(f"{'error_rate':24s} {report['error_rate']:>16.6g} ratio "
          f"({dec.failed} of {dec.attempted})")
    if "rmcode.instance_s" in report:
        print(f"{'rmcode.instance_s':24s} {report['rmcode.instance_s']:>16.6g} s")
    if "levels" in report:
        print("levels: " + ", ".join(
            f"{name}=L{level}" for name, level in report["levels"].items()))
    print(f"samples: {report['samples']}")
    for problem in dec.problems:
        print(f"FAILED: {problem}")
    correct = not dec.problems
    print(json.dumps({
        "correct": correct, "attempted": dec.attempted, "failed": dec.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(dec: Decoder, member: list[str], deadline: float,
                   report: dict) -> dict:
    """Median per-layer metrics over traced passes made until `deadline`.

    Counts must repeat exactly from pass to pass.  Spans go to spans.json.
    """
    tracer = Tracer()
    passes: list[dict] = []
    while not passes or time.perf_counter() < deadline:
        dec.attempted += 1
        try:
            metrics, lines, levels = traced_run(
                tracer, dec.word_path, dec.workload.eta, member, dec.env)
            check_layers(dec, metrics, levels, lines)
        except CheckFailed as exc:
            dec.fail(f"traced run: {exc}")
            break
        passes.append(metrics)
        report["levels"] = {name: stat["level"]
                            for name, stat in levels.items()}
    if dec.workload.kind == "crafted":
        with tracer.span("rmcode.lower_bound_instance") as sp:
            lower_bound_instance(dec.workload.n, 1 - dec.workload.eta)
        report["rmcode.instance_s"] = seconds(sp)
    tracer.write(dec.work / "spans.json")
    report["samples"]["traced_passes"] = len(passes)

    metrics = {}
    for name in passes[0] if passes else ():
        values = [m[name] for m in passes]
        if UNITS[name] != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            dec.fail(f"{name} differs between traced passes: {values}")
    return metrics


def check_layers(dec: Decoder, metrics: dict, levels: dict, lines) -> None:
    """The traced decode must match the pins and the CLI's verified output."""
    pin = dec.pin
    if metrics["decode.ops"] != pin["ops"]:
        raise CheckFailed(f"ops {metrics['decode.ops']}, pinned {pin['ops']}")
    if metrics["decode.list_size"] != pin["list_size"]:
        raise CheckFailed(f"list size {metrics['decode.list_size']}, "
                          f"pinned {pin['list_size']}")
    envelope = sum(stat["pairs"] << stat["level"] for stat in levels.values())
    if envelope > metrics["decode.ops"]:
        raise CheckFailed(f"per-level pairs x 2^k sum to {envelope}, more "
                          f"than the {metrics['decode.ops']} counted ops")
    pairs = {name: stat["pairs"] for name, stat in levels.items()}
    if pairs != pin["pairs"]:
        raise CheckFailed(f"per-level pairs {pairs}, pinned {pin['pairs']}")
    text = "".join(line + "\n" for line in lines).encode()
    if dec.verified is not None and text != dec.verified:
        raise CheckFailed("in-process output differs from the CLI output")
