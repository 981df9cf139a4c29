"""The README's library example runs as printed, and the README holds no measured figures."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_unchanged():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    # The example's closing comment: the sudden quench is the equality case.
    assert abs(report.w_irr - report.bound) <= 1e-12


def test_no_line_holds_a_measured_time_or_memory_figure():
    # Timings and peak memory belong to the benchmark records and CHANGES.md, which say
    # on what machine they were taken; binary sizes of design constants (KiB, MiB) stay.
    measured = re.compile(r"\d(?:\s|-)?(?:ms|µs|s|MB|GB)\b")
    lines = README.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if measured.search(line)] == []
