"""The repository's command-line tools."""

import subprocess
import sys
from pathlib import Path

SAME_REPORTS = Path(__file__).resolve().parent.parent / "tools" / "same_reports.py"

LINE = '{{"relation": "a", "tuple": [1, 2, 3], "passed": true, "residual_terms": {terms}, "ms": {ms}}}\n'
SUMMARY = '{{"summary": true, "passed": 1, "failed": 0, "elapsed_s": {elapsed}}}\n'


def _same_reports(tmp_path, *texts):
    paths = []
    for index, text in enumerate(texts):
        path = tmp_path / f"report{index}.jsonl"
        path.write_text(text)
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SAME_REPORTS), *paths], capture_output=True, text=True).returncode


def test_same_reports_ignores_timing_and_sees_residual_terms(tmp_path):
    first = LINE.format(terms=0, ms=1.25) + SUMMARY.format(elapsed=0.5)
    timing = LINE.format(terms=0, ms=3.5e-05) + SUMMARY.format(elapsed=12.0)
    changed = LINE.format(terms=7, ms=1.25) + SUMMARY.format(elapsed=0.5)
    assert _same_reports(tmp_path, first, timing, timing) == 0
    assert _same_reports(tmp_path, first, timing, changed) == 1
    assert _same_reports(tmp_path, first) == 2
