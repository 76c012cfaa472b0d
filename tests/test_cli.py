import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import weakref

import pytest

import decltrace.cli as cli
from decltrace import DeclarativeProcess, make_process, parse_process, traces
from decltrace.cli import main
from decltrace.possim import PossimContext

MIXED_THREE = "activities a b c\nresp c a\nprec b a\n"
MIXED_FIVE = (
    "activities a b c d e\n"
    "resp b a\nresp c a\nresp d e\nresp e c\n"
    "prec a d\nprec b d\nprec d e\n"
)
PREC_SIX = "activities a b c d e f\nprec a c\nprec b c\nprec c d\nprec d e\nprec e d\nprec d f\n"
# Two components, {a, b} and {c, d}; no trace has length 1 inside {a, b}.
SPLIT_FOUR = "activities a c b d\nsucc a b\nprec c d\n"


@pytest.fixture
def proc_file(tmp_path):
    def write(text, name="input.proc"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestTraces:
    def test_text_output(self, proc_file, capsys):
        assert main(["traces", proc_file(MIXED_THREE)]) == 0
        assert capsys.readouterr().out == "-\nb\nb a\nb c a\nc b a\n"

    def test_json_output_encodes_the_same_traces(self, proc_file, capsys):
        assert main(["traces", "--format", "json", proc_file(MIXED_THREE)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [[], ["b"], ["b", "a"], ["b", "c", "a"], ["c", "b", "a"]]

    def test_streamed_output_matches_the_whole_list_format(self, proc_file, capsys):
        # Seven unconstrained activities: 13,700 traces, several write batches.
        names = [f"a{i}" for i in range(7)]
        expected = [[names[i] for i in t] for t in traces(make_process(names))]
        assert len(expected) == 13_700 > cli.WRITE_BATCH
        path = proc_file("activities " + " ".join(names) + "\n")
        assert main(["traces", path]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines == [" ".join(t) or "-" for t in expected] + [""]
        assert main(["traces", "--format", "json", path]) == 0
        payload = capsys.readouterr().out
        assert payload == json.dumps(expected) + "\n"
        assert json.loads(payload) == expected

    def test_writes_hold_more_than_one_batch_of_lines_at_most(self, proc_file, monkeypatch):
        # Seven unconstrained activities: 13,700 lines, written in blocks of
        # at most BLOCK lines; the frame's head and tail are writes of their own.
        path = proc_file("activities " + " ".join(f"a{i}" for i in range(7)) + "\n")
        for fmt, lines_in in (
            ("text", lambda chunk: chunk.count("\n") + (not chunk.startswith("\n"))),
            ("json", lambda chunk: chunk.count("]")),
        ):
            writes = []
            write = sys.stdout.write
            monkeypatch.setattr(
                sys.stdout, "write", lambda chunk: writes.append(chunk) or write(chunk)
            )
            assert main(["traces", "--format", fmt, path]) == 0
            monkeypatch.undo()
            counts = [lines_in(chunk) for chunk in writes[1:-1]]
            assert sum(counts) == 13_700
            assert len(counts) > 1
            assert max(counts) <= cli.WRITE_BATCH

    def test_only_the_empty_trace(self, proc_file, capsys):
        path = proc_file("activities a b\nprec a b\nprec b a\n")
        assert main(["traces", path]) == 0
        assert capsys.readouterr().out == "-\n"
        assert main(["traces", "--format", "json", path]) == 0
        assert capsys.readouterr().out == "[[]]\n"

    def test_parallel_flag_does_not_change_bytes(self, proc_file, capsys):
        assert main(["traces", proc_file(MIXED_FIVE)]) == 0
        plain = capsys.readouterr().out
        assert main(["traces", "--parallel", proc_file(MIXED_FIVE)]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize(
        "command, contexts",
        [
            (["traces"], 0),
            (["traces", "--format", "json"], 0),
            (["count"], 0),
            (["count", "--by-length"], 0),
            (["possim"], 0),
            (["classify"], 0),
            (["check"], 0),
        ],
    )
    def test_no_command_builds_a_possim_context(self, proc_file, monkeypatch, command, contexts):
        # Every command reads the rows of relations._graphs; PossimContext
        # stays a public referee for is_independent only.
        built = []
        build = PossimContext.of.__func__

        def counting(cls, process):
            built.append(process)
            return build(cls, process)

        path = proc_file(MIXED_FIVE)
        monkeypatch.setattr(PossimContext, "of", classmethod(counting))
        assert main(command + [path]) == 0
        assert len(built) == contexts


class TestCount:
    def test_count_without_enumeration(self, proc_file, capsys):
        for text, out in ((PREC_SIX, "7\n"), (MIXED_FIVE, "6\n"), (SPLIT_FOUR, "13\n")):
            assert main(["count", proc_file(text)]) == 0
            assert capsys.readouterr().out == out

    def test_count_equals_traces_line_count(self, proc_file, capsys):
        for text in (MIXED_THREE, MIXED_FIVE, PREC_SIX, SPLIT_FOUR, "activities a\n"):
            path = proc_file(text)
            assert main(["count", path]) == 0
            count = int(capsys.readouterr().out)
            assert main(["traces", path]) == 0
            assert count == len(capsys.readouterr().out.splitlines())

    def test_by_length_lists_every_length(self, proc_file, capsys):
        assert main(["count", "--by-length", proc_file(MIXED_FIVE)]) == 0
        assert capsys.readouterr().out == "0 1\n1 1\n2 2\n3 2\n"
        assert main(["count", "--by-length", proc_file("activities a b\nsucc a b\n")]) == 0
        assert capsys.readouterr().out == "0 1\n1 0\n2 1\n"

    def test_by_length_sums_to_the_count(self, proc_file, capsys):
        for text in (MIXED_THREE, MIXED_FIVE, PREC_SIX, SPLIT_FOUR, "activities a b c\n"):
            path = proc_file(text)
            assert main(["count", path]) == 0
            count = int(capsys.readouterr().out)
            assert main(["count", "--by-length", path]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [int(line.split()[0]) for line in lines] == list(range(len(lines)))
            assert sum(int(line.split()[1]) for line in lines) == count

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_counts_past_the_int_string_limit_print_every_digit(self, proc_file, capsys):
        # e * 330! has 690 digits.  A lowered limit keeps the case cheap; the
        # default limit of 4300 digits is passed from about 1560 activities.
        path = proc_file("activities " + " ".join(f"a{i}" for i in range(330)) + "\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["count", path]) == 0
            assert main(["count", "--by-length", path]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        lines = capsys.readouterr().out.splitlines()
        by_length = [math.perm(330, k) for k in range(331)]
        assert lines[0] == str(sum(by_length))
        assert lines[1:] == [f"{k} {c}" for k, c in enumerate(by_length)]


class TestPossim:
    def test_five_activity_example(self, proc_file, capsys):
        assert main(["possim", proc_file(MIXED_FIVE)]) == 0
        assert capsys.readouterr().out == (
            "{}\n"
            "{a}\n"
            "{a,b} b<a\n"
            "{a,c} c<a\n"
            "{a,b,c} b<a c<a\n"
        )

    def test_long_chain(self, proc_file, capsys):
        # Each prefix of the chain is an image, so covers read from each
        # image's closed order would take cubic time here.
        n = 1000
        names = [f"a{i}" for i in range(n)]
        text = f"activities {' '.join(names)}\n"
        text += "".join(f"prec {a} {b}\n" for a, b in zip(names, names[1:]))
        assert main(["possim", proc_file(text)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == n + 1
        assert lines[0] == "{}"
        covers = " ".join(f"{a}<{b}" for a, b in zip(names, names[1:]))
        assert lines[-1] == "{" + ",".join(names) + "} " + covers


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (PREC_SIX, "precedence-only"),
            ("activities a b\nresp a b\n", "response-only"),
            ("activities a b\nsucc a b\n", "successor-only"),
            (MIXED_THREE, "general"),
            ("activities a\n", "precedence-only"),
        ],
    )
    def test_labels(self, proc_file, capsys, text, expected):
        assert main(["classify", proc_file(text)]) == 0
        assert capsys.readouterr().out == expected + "\n"


class TestCheck:
    def test_agreement(self, proc_file, capsys):
        assert main(["check", proc_file(MIXED_THREE)]) == 0
        assert capsys.readouterr().out == "ok: 5 traces\n"

    def test_size_limit(self, proc_file, capsys):
        names = " ".join("abcdefghi")
        assert main(["check", proc_file(f"activities {names}\n")]) == 3
        assert "error" in capsys.readouterr().err

    def test_mismatch_exits_two(self, proc_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "traces", lambda process, parallel=False: [])
        assert main(["check", proc_file(MIXED_THREE)]) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_mismatch_names_traces_and_broken_constraints(self, proc_file, capsys, monkeypatch):
        # MIXED_THREE has traces -, b, b a, b c a, c b a; indices a=0, b=1, c=2.
        wrong = [(), (1,), (0,), (2, 0), (1, 2, 0)]
        monkeypatch.setattr(cli, "traces", lambda process, parallel=False: wrong)
        assert main(["check", proc_file(MIXED_THREE)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "mismatch: 5 computed vs 5 reference (2 missing, 2 extra)",
            "missing: b a (breaks no constraint)",
            "missing: c b a (breaks no constraint)",
            "extra: a (breaks prec b a)",
            "extra: c a (breaks prec b a)",
        ]

    def test_mismatch_lists_at_most_five_per_side(self, proc_file, capsys, monkeypatch):
        names = " ".join("abcd")
        monkeypatch.setattr(cli, "traces", lambda process, parallel=False: [])
        assert main(["check", proc_file(f"activities {names}\n")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "mismatch: 0 computed vs 65 reference (65 missing, 0 extra)"
        assert err[1:] == [
            "missing: - (breaks no constraint)",
            "missing: a (breaks no constraint)",
            "missing: b (breaks no constraint)",
            "missing: c (breaks no constraint)",
            "missing: d (breaks no constraint)",
        ]


class TestFailureModes:
    def test_parse_error_exits_one(self, proc_file, capsys):
        assert main(["traces", proc_file("activities a b\nprec a a\n")]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["count", "/nonexistent/path.proc"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.proc"
        path.write_bytes(b"activities a b\nprec a \xff\n")
        assert main(["count", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # Some Windows editors start a UTF-8 file with a byte-order mark.
        plain, marked = tmp_path / "plain.proc", tmp_path / "marked.proc"
        plain.write_bytes(MIXED_THREE.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + MIXED_THREE.encode())
        for command, out in (("count", "5\n"), ("possim", "{}\n{b}\n{a,b} b<a\n{a,b,c} b<a c<a\n")):
            for path in (plain, marked):
                assert main([command, str(path)]) == 0
                assert capsys.readouterr() == (out, "")

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["not-a-command"])
        assert info.value.code == 1

    @pytest.mark.parametrize("command", ["traces", "count", "possim", "classify", "check"])
    def test_closed_stdout_exits_one(self, proc_file, capsys, monkeypatch, command):
        path = proc_file(MIXED_THREE)
        monkeypatch.setattr(sys, "stdout", None)
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["traces", "count", "possim", "classify", "check"])
    def test_full_disk_exits_one(self, proc_file, tmp_path, capsys, monkeypatch, command):
        class FullDisk(io.TextIOWrapper):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = proc_file(MIXED_THREE)
        # Backed by a real file, as stdout is, so its descriptor can be redirected.
        with FullDisk(open(tmp_path / "stdout", "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main([command, path]) == 1
            monkeypatch.undo()
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize(
        "raised, code, line",
        [(MemoryError, 1, "error: out of memory\n"), (KeyboardInterrupt, 130, "error: interrupted\n")],
    )
    @pytest.mark.parametrize("command, name", [("count", "count_traces"), ("traces", "_listing")])
    def test_memory_and_interrupt_exit_with_one_line(
        self, proc_file, tmp_path, capsys, monkeypatch, raised, code, line, command, name
    ):
        def fail(*args):
            raise raised

        path = proc_file(MIXED_THREE)
        monkeypatch.setattr(cli, name, fail)
        # Backed by a real file, as stdout is, so its descriptor can be redirected.
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main([command, path]) == code
            monkeypatch.undo()
        err = capsys.readouterr().err
        assert err == line
        assert "Traceback" not in err

    def test_out_of_memory_is_reported_once_the_search_is_freed(
        self, proc_file, tmp_path, monkeypatch
    ):
        # The traceback of a MemoryError holds the search's frames, and they
        # hold its layers: the report is written only once those are gone.
        class Layers:
            pass

        held = []
        freed_at_report = []

        def listing(*args):
            layers = Layers()
            held.append(weakref.ref(layers))
            raise MemoryError
            yield

        class Stderr(io.StringIO):
            def write(self, text):
                freed_at_report.append(held[0]() is None)
                return super().write(text)

        path = proc_file(MIXED_THREE)
        monkeypatch.setattr(cli, "_listing", listing)
        stderr = Stderr()
        with open(tmp_path / "stdout", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            monkeypatch.setattr(sys, "stderr", stderr)
            assert main(["traces", path]) == 1
            monkeypatch.undo()
        assert stderr.getvalue() == "error: out of memory\n"
        assert freed_at_report == [True]

    def test_one_process_per_run(self, proc_file, monkeypatch):
        # The parse builds the only process; the pipeline reads succ as it is.
        built = []
        construct = DeclarativeProcess.__init__

        def counting(process, *args, **kwargs):
            built.append(process)
            construct(process, *args, **kwargs)

        path = proc_file(SPLIT_FOUR)
        monkeypatch.setattr(DeclarativeProcess, "__init__", counting)
        for command in (["traces"], ["count"], ["count", "--by-length"], ["possim"]):
            built.clear()
            assert main(command + [path]) == 0
            assert len(built) == 1


def test_module_entry_point(tmp_path):
    path = tmp_path / "p.proc"
    path.write_text(MIXED_THREE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "decltrace", "count", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "5\n"


def run_without_site(probe, *args):
    """Run ``probe`` in a fresh interpreter without site, on this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", probe, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_cli_import_loads_no_heavy_modules():
    # Every run pays for what the CLI imports.  A fresh interpreter without
    # site shows only the package's imports; the baseline is what the
    # package needs anyway, so a stdlib that loads more on its own still passes.
    probe = (
        "import sys, argparse, re, enum, heapq, collections.abc\n"
        "before = set(sys.modules)\n"
        "import decltrace.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = run_without_site(probe)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "decltrace.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "typing", "pathlib"}


def test_json_output_loads_no_json_module(tmp_path):
    # Names are [A-Za-z0-9_]+, so quoting one needs no encoder.
    path = tmp_path / "p.proc"
    path.write_text(MIXED_FIVE, encoding="utf-8")
    probe = (
        "import sys\n"
        "from decltrace.cli import main\n"
        "code = main(['traces', '--format', 'json', sys.argv[1]])\n"
        "sys.stdout.flush()\n"
        "print(code, 'json' in sys.modules, file=sys.stderr)\n"
    )
    result = run_without_site(probe, str(path))
    assert result.stderr == "0 False\n"
    process = parse_process(MIXED_FIVE)
    expected = [[process.names()[i] for i in t] for t in traces(process)]
    assert result.stdout == json.dumps(expected) + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_writing_into_a_full_device_exits_one_quietly(tmp_path):
    path = tmp_path / "p.proc"
    path.write_text(MIXED_THREE, encoding="utf-8")
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "decltrace", "traces", str(path)],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_interrupt_exits_130_quietly(tmp_path):
    # Twelve unconstrained activities have about 1.3e9 traces, so the
    # listing is still running when the first line has been read.
    path = tmp_path / "p.proc"
    path.write_text("activities " + " ".join(f"a{i}" for i in range(12)) + "\n", encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "decltrace", "traces", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"-\n"
        child.send_signal(signal.SIGINT)
        # Its one stderr line fits in the pipe, so it can exit unread.
        assert child.wait(timeout=60) == 130
        stderr = child.stderr.read()
    finally:
        child.kill()
        child.stdout.close()
        child.stderr.close()
    assert stderr == b"error: interrupted\n"


def test_early_close_of_stdout_exits_zero_quietly(tmp_path):
    # Every output is far more than a pipe holds, so the writer meets the
    # closed read end: seven unconstrained activities print 13,700 traces,
    # about 170 KB, thirteen have 8192 images, about 120 KB, and 1,500 have
    # counts per length of up to 4,000 digits, about 3 MB.
    path = tmp_path / "p.proc"
    for command, names, first_line in (
        (["traces"], "a b c d e f g", b"-\n"),
        (["possim"], "a b c d e f g h i j k l m", b"{}\n"),
        (["count", "--by-length"], " ".join(f"a{i}" for i in range(1500)), b"0 1\n"),
    ):
        path.write_text(f"activities {names}\n", encoding="utf-8")
        child = subprocess.Popen(
            [sys.executable, "-m", "decltrace", *command, str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.readline() == first_line
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 0
        child.stderr.close()
        assert stderr == b""
