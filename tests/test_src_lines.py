"""The line classifier of tools/src_lines.py."""

import importlib.util
from pathlib import Path

import cbrsim

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SYNTHETIC = '''"""Module docstring,
over two lines."""

# a full-line comment
import os  # a trailing comment makes this line code


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring

        with a blank line inside it."""
        text = """not a docstring

        """
        return os.sep + text
'''


def test_a_synthetic_module_is_counted_exactly():
    assert src_lines.count_lines(SYNTHETIC) == {
        "code": 7,  # import, class, def, the three lines of text, return
        "docstring": 6,
        "comment": 1,
        "blank": 4,
        "total": 18,
    }


def test_the_classes_sum_to_each_module_line_count():
    modules = sorted(Path(cbrsim.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        source = path.read_text(encoding="utf-8")
        counts = src_lines.count_lines(source)
        assert counts["total"] == source.count("\n"), path.name  # as wc -l counts
        assert sum(counts[c] for c in src_lines.CLASSES) == counts["total"], path.name
        assert counts["code"] > 0, path.name
