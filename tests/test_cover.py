"""The line gate of ``tools/cover.py`` counts the lines it must see run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cover.py"
_SPEC = importlib.util.spec_from_file_location("cover", _PATH)
cover = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cover)


def source_and_lines(name):
    path = cover.SRC / name
    source = path.read_text()
    return source, cover.executable_lines(compile(source, str(path), "exec"))


def test_every_statement_of_the_package_entry_point_is_counted():
    # The docstring, the import and the raise: a gate that found no lines in
    # a module would pass it without any test running it.
    _, lines = source_and_lines("__main__.py")
    assert lines == {1, 3, 5}


def test_the_cli_entry_point_is_counted():
    source, lines = source_and_lines("cli.py")
    assert source.splitlines().index("    sys.exit(main())") + 1 in lines
