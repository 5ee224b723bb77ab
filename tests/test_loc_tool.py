"""``tools/loc.py`` counts code as lines with a token outside comments and docstrings."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import loc  # noqa: E402


def test_code_lines_skip_comments_docstrings_and_blanks(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """One line."""\n'
        "    return (x +\n"
        "            1)\n"
        'TEXT = """a string\n'
        'over two lines"""\n'
    )
    assert loc.count(source) == (11, 5)
    assert loc.main([str(tmp_path)]) == 0
