"""Benchmark for the decltrace CLI on seeded, generated process files.

    python3 bench/run.py --workload enum-sparse --seed 1 --seconds 55 --trace 0

With ``--trace 0`` every op is one ``python -m decltrace ...`` child, run one
at a time from this process (a closed loop with one client), timed from
launch until the child is reaped, and checked by the referee.  The children
are started and reaped by spawner.py, so that their peak RSS is their own.
Between the ops, calibrate.py children measure the host's speed, and the
reported times are scaled to a fixed reference speed.  With
``--trace 1`` the same commands call ``decltrace.cli.main`` in-process,
alternating untraced and traced passes, and the per-layer figures come from
spans around the calls between the package's modules (tracing.py).  A run
makes whole passes over every instance and command until the measured op
and calibration time is as near to ``--seconds`` as whole passes allow.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibrate import CHECKSUM

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

OP_TIMEOUT_S = 60
# Median wall time of one calibrate.py child on a 2-core x86-64 VM with
# CPython 3.11.7, midway between that host's fast and slow periods.  It fixes
# the reference speed that reported times are scaled to; changing it changes
# every reported time, so it stays as it is.
CALIBRATION_S = 0.14

COMMAND_ARGS = {
    "traces": ["traces"],
    "traces-json": ["traces", "--format", "json"],
    "traces-head": ["traces"],
    "count": ["count"],
    "possim": ["possim"],
    "classify": ["classify"],
}


@dataclass
class Op:
    label: str
    command: str
    wall: float
    first_line: float | None
    lines: int
    rss_kib: int
    error: str | None  # why the op failed, or None
    wrong: bool  # the referee rejected the output


class Ledger:
    """Every op of a run, with the failures reported once each on stderr."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._reported: set[tuple[str, str, str]] = set()

    def add(self, op: Op) -> None:
        self.ops.append(op)
        key = (op.label, op.command, op.error or "")
        if op.error and key not in self._reported:
            self._reported.add(key)
            print(f"op failed: {op.command} {op.label}: {op.error}", file=sys.stderr)

    def typical(self, commands: tuple[str, ...], value=lambda op: op.wall) -> float:
        """Each file's median ``value`` over its ops of ``commands``, geometric mean over files.

        The files of a workload need not cost the same (the precedence-only
        chain's ``traces`` takes half the time of the others), so pooling
        their ops into one median would let it jump between files.  The
        per-file medians get fixed, equal weights instead.
        """
        by_file: dict[str, list[float]] = {}
        for op in self.ops:
            if op.command in commands:
                by_file.setdefault(op.label, []).append(value(op))
        return statistics.geometric_mean(statistics.median(v) for v in by_file.values())

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def correct(self) -> bool:
        return not any(op.wrong for op in self.ops)


def _failure(returncode: int, stderr: bytes, verdict: str | None) -> str | None:
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [b""]
        return f"exit code {returncode}: {last[0].decode(errors='replace')}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return verdict


def _stop(spent: float, last_pass: float, seconds: float) -> bool:
    """Stop unless one more pass would end nearer to ``seconds`` of measured time."""
    return abs(spent + last_pass - seconds) >= abs(spent - seconds)


class Spawner:
    """Runs CLI children through spawner.py, so their peak RSS is their own."""

    def __init__(self, env: dict) -> None:
        self.requests, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "spawner.py"), str(OP_TIMEOUT_S)],
                stdin=theirs,
                stdout=subprocess.DEVNULL,
                env=env,
                cwd=ROOT,
            )

    def start(self, argv: list[str], stdout: int, stderr: int) -> None:
        socket.send_fds(self.requests, [json.dumps(argv).encode()], [stdout, stderr])

    def reaped(self) -> tuple[int, int]:
        """Blocks until the child has been reaped; returns its exit code and peak RSS in KiB."""
        reply = self.requests.recv(1 << 16)
        if not reply:
            raise RuntimeError(f"spawner.py ended with exit code {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["exit_code"], reply["rss_kib"]

    def close(self) -> None:
        self.requests.close()  # the spawner reads end of file and exits
        self.proc.wait()


def run_cli(spawner: Spawner, instance, referee, command: str, path: Path) -> Op:
    """One CLI child: launch, read stdout (10 lines for traces-head), reap."""
    argv = [sys.executable, "-m", "decltrace", *COMMAND_ARGS[command], str(path)]
    read_end, write_end = os.pipe()
    with tempfile.TemporaryFile(dir=WORK) as err, open(read_end, "rb") as out:
        start = time.perf_counter()
        try:
            spawner.start(argv, write_end, err.fileno())
        finally:
            os.close(write_end)
        first = out.readline()
        first_at = time.perf_counter() - start
        if command == "traces-head":
            rest = b"".join(out.readline() for _ in range(9))
        else:
            rest = out.read()
        out.close()  # before the reap: the early-close reader stops here
        returncode, rss_kib = spawner.reaped()
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read()
    stdout = first + rest
    verdict = referee.check(command, stdout)
    return Op(
        instance.label,
        command,
        wall,
        first_at if command in ("traces", "traces-head") else None,
        stdout.count(b"\n"),
        rss_kib,
        _failure(returncode, stderr, verdict),
        verdict is not None,
    )


def run_calibration(spawner: Spawner) -> float:
    """Wall time of one calibrate.py child, started and reaped like a CLI op."""
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as out:
        start = time.perf_counter()
        try:
            spawner.start([sys.executable, str(BENCH / "calibrate.py")], write_end, write_end)
        finally:
            os.close(write_end)
        output = out.read()
        returncode, _ = spawner.reaped()
        wall = time.perf_counter() - start
    if returncode != 0 or output.strip() != str(CHECKSUM).encode():
        raise RuntimeError(f"calibrate.py: exit code {returncode}, output {output[-300:]!r}")
    return wall


def cli_run(instances, referees, paths, seconds: float) -> tuple[Ledger, dict]:
    # The children run as a user's shell would run them, whatever the caller's
    # PYTHON* settings: PYTHONUNBUFFERED, for one, makes every printed trace
    # line its own write.  Bytecode is cached under WORK, not in SRC.
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    ledger = Ledger()
    passes: list[float] = []  # op time of each pass
    spent: list[float] = []  # op and calibration time of each pass
    calibration: list[float] = []
    spawner = Spawner(env)
    try:
        # Untimed warm-up: compiles the bytecode cache and loads the interpreter
        # and sources into the page cache before the first timed op.
        first = instances[0]
        run_cli(spawner, first, referees[first.label], "classify", paths[first.label])
        while True:
            wall = calibrated = 0.0
            for instance in instances:
                calibration.append(run_calibration(spawner))
                calibrated += calibration[-1]
                for command in instance.commands:
                    op = run_cli(spawner, instance, referees[instance.label], command, paths[instance.label])
                    ledger.add(op)
                    wall += op.wall
            passes.append(wall)
            spent.append(wall + calibrated)
            if _stop(sum(spent), spent[-1], seconds):
                break
    finally:
        spawner.close()
    measured = {
        "setup_s": (ledger.typical(("classify",)), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "traces_p50_s": (ledger.typical(("traces",)), "s"),
        "traces_json_p50_s": (ledger.typical(("traces-json",)), "s"),
        "first_line_s": (ledger.typical(("traces", "traces-head"), lambda op: op.first_line), "s"),
        "count_p50_s": (ledger.typical(("count",)), "s"),
        "possim_p50_s": (ledger.typical(("possim",)), "s"),
        "traces_per_s": (ledger.typical(("traces",), lambda op: op.lines / op.wall), "1/s"),
        "peak_rss_mib": (max(op.rss_kib for op in ledger.ops) / 1024, "MiB"),
    }
    # The host's speed moves by up to 40 % over minutes, all ops together
    # (see README.md).  Times are reported at the reference speed, at which
    # one calibrate.py child takes CALIBRATION_S.
    slowness = statistics.median(calibration) / CALIBRATION_S
    exponent = {"s": -1, "1/s": 1}
    metrics = {
        name: (value * slowness ** exponent.get(unit, 0), unit) for name, (value, unit) in measured.items()
    }
    print(f"passes: {len(passes)}, ops: {len(ledger.ops)}, failed: {ledger.failed}")
    print(f"failed_ops: {ledger.failed / len(ledger.ops):.4f} (ratio)")
    print(
        f"calibration: {len(calibration)} children, median {statistics.median(calibration):.4f} s, "
        f"host slowness {slowness:.4f} (reference {CALIBRATION_S} s)"
    )
    print("as measured, before scaling to the reference speed:")
    for name, (value, unit) in measured.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    return ledger, metrics


def inprocess_pass(instances, referees, paths, ledger: Ledger, tracer) -> tuple[float, int]:
    """Every command once through ``cli.main``; returns CLI seconds and bytes out."""
    from decltrace import cli

    total = 0.0
    written = 0
    for instance in instances:
        for command in instance.commands:
            if command == "traces-head":  # same work as traces in-process
                continue
            argv = [*COMMAND_ARGS[command], str(paths[instance.label])]
            out = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        code = tracer.call(f"cli.main {command}", cli.main, (argv,), {})
            except (Exception, SystemExit) as exc:
                code = None
                error = "".join(traceback.format_exception_only(exc)).strip()
            total += time.perf_counter() - start
            stdout = out.getvalue().encode()
            written += len(stdout)
            verdict = referees[instance.label].check(command, stdout) if error is None else None
            if error is None and code != 0:
                error = f"exit code {code}"
            ledger.add(
                Op(instance.label, command, 0.0, None, 0, 0, error or verdict, verdict is not None)
            )
    return total, written


def traced_run(instances, referees, paths, seconds: float) -> tuple[Ledger, dict]:
    from tracing import LAYERS, Tracer, traced

    ledger = Ledger()
    untraced, traced_totals, samples = [], [], []
    while True:
        untraced.append(inprocess_pass(instances, referees, paths, ledger, None)[0])
        tracer = Tracer()
        with traced(tracer):
            total, written = inprocess_pass(instances, referees, paths, ledger, tracer)
        traced_totals.append(total)
        figures = {f"{layer}.failed": 0.0 for layer in LAYERS}
        figures.update(tracer.counters)
        figures.update(tracer.layer_times())
        figures["cli.bytes_out"] = written
        samples.append(figures)
        if _stop(sum(untraced) + sum(traced_totals), untraced[-1] + total, seconds):
            break

    def median_of(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in samples)

    def rate(count: str, seconds_name: str) -> float:
        return statistics.median(
            s.get(count, 0.0) / s[seconds_name] if s.get(seconds_name) else 0.0 for s in samples
        )

    seconds_metrics = [
        "model.parse_s", "relations.occurrence_s", "quotient.condense_s", "possim.context_s",
        "possim.walk_s", "linext.generate_s", "linext.count_s", "traces.assemble_s",
        "traces.single_kind_s", "cli.format_s", "cli.possim_format_s",
    ]
    metrics = {name: (median_of(name), "s") for name in seconds_metrics}
    for name in ("quotient.classes", "possim.images", "linext.extensions"):
        metrics[name] = (median_of(name), "count")
    metrics["cli.bytes_out"] = (median_of("cli.bytes_out"), "B")
    metrics["possim.images_per_s"] = (rate("possim.images", "possim.walk_s"), "1/s")
    metrics["linext.extensions_per_s"] = (rate("linext.extensions", "linext.generate_s"), "1/s")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (median_of(f"{layer}.failed"), "count")
    metrics["trace.untraced_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_s"] = (statistics.median(traced_totals), "s")
    print(f"passes: {len(samples)} untraced + {len(samples)} traced, in-process ops: {len(ledger.ops)}")
    return ledger, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from referee import Referee
    from workloads import WORKLOADS

    instances = WORKLOADS[name](seed)
    referees = {instance.label: Referee(instance) for instance in instances}
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for instance in instances:
            paths[instance.label] = workdir / f"{instance.label}.txt"
            paths[instance.label].write_text(instance.text(), encoding="utf-8")
        run = traced_run if trace else cli_run
        ledger, metrics = run(instances, referees, paths, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name}, seed {seed}, trace {int(trace)}:")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:26s} {value:14.6g} {unit}")
    return {
        "correct": ledger.correct,
        "attempted": len(ledger.ops),
        "failed": ledger.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decltrace" / "__init__.py").is_file():
        print(f"error: no decltrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import decltrace

    if Path(decltrace.__file__).resolve().parent != (SRC / "decltrace").resolve():
        print(f"error: imported decltrace from {decltrace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
