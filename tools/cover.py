"""Line coverage of ``src/desim`` under the tier-1 suite, with the stdlib alone.

Needs Python 3.12 or later (``sys.monitoring``) and an importable pytest. From
the repository root:

    PYTHONPATH=src python tools/cover.py -q

The arguments go to pytest, which runs in this process while a ``LINE``
callback records each source line the first time it runs. Then every line of
every code object in ``src/desim`` that no test ran is listed. There are no
exemptions: code that only a subprocess or a pool worker runs is not seen, so
every line needs a test that reaches it in this process. Exit status 1 means
the suite failed or a line went unrun.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "desim"


def executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}  # 0 is RESUME's
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main(argv):
    mon = sys.monitoring
    hits = set()

    def on_line(code, line):
        hits.add((code.co_filename, line))
        return mon.DISABLE

    mon.use_tool_id(mon.COVERAGE_ID, "tools/cover.py")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    try:
        failed = pytest.main(argv) != 0
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    ran = {(str(Path(name).resolve()), line) for name, line in hits}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(executable_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in ran:
                failed = True
                print(f"not run: src/desim/{path.name}:{line}: {text[line - 1].strip()}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
