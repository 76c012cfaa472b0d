import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
code_lines = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["code_lines"]


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""Module docstring,\n\nthree lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment counts as code\n"
        "\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        '        text = """a string\n        spans two lines"""\n'
        "        return (\n"
        "            text\n"
        "        )\n",
        encoding="utf-8",
    )
    # import, class, def, the two lines of text, and the three of return
    assert code_lines(module) == 8


def test_bench_call_sites_resolve():
    # bench/tracing.py wraps these names by attribute; a renamed or dropped
    # one would otherwise surface only in a traced bench run.
    tracing = runpy.run_path(str(ROOT / "bench" / "tracing.py"))
    for module, attr, _, _ in tracing["CALL_SITES"]:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert isinstance(tracing["possim"].PossimContext.__dict__["of"], classmethod)
