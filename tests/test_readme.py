"""The README's examples run and print what their comments say."""

import contextlib
import io
import pathlib
import shlex

from ringoids.cli import run

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _blocks(lang):
    """The fenced code blocks of the README with the given info string."""
    blocks = []
    info = body = None
    for line in README.splitlines(keepends=True):
        if body is None and line.startswith("```"):
            info, body = line[3:].strip(), []
        elif body is not None and line.rstrip() == "```":
            if info == lang:
                blocks.append("".join(body))
            info = body = None
        elif body is not None:
            body.append(line)
    return blocks


def _rgd_snippet():
    [block] = [b for b in _blocks("") if b.startswith("ringoid ")]
    return block


def _cli_examples():
    """(argv, commented lines) for each `ringoids ...` line of the CLI block."""
    [block] = [b for b in _blocks("sh") if b.startswith("ringoids ")]
    examples = []
    for line in block.splitlines():
        if line.startswith("ringoids "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


def test_python_example_prints_its_comments():
    [code] = _blocks("python")
    comments = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 3
    for line, comment in zip(printed, comments):
        # a comment may explain the value after a colon
        assert comment == line or comment.startswith(line + ":"), (line, comment)


def test_rgd_snippet_validates_clean(tmp_path, capsys):
    path = tmp_path / "f2.rgd"
    path.write_text(_rgd_snippet(), encoding="utf-8")
    code = run(["validate", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "ringoid F2: clean" in captured.out


def test_cli_examples_print_their_comments(tmp_path, capsys, monkeypatch):
    (tmp_path / "f2.rgd").write_text(_rgd_snippet(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = _cli_examples()
    assert [argv[0] for argv, _ in examples] == ["k0", "oracle-compare"]
    for argv, lines in examples:
        code = run(argv)
        assert (code, capsys.readouterr().out.splitlines()) == (0, lines), argv
