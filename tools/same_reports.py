"""Check that racah-verify reports agree once their timing fields are stripped.

Every ``, "ms": <number>`` and ``, "elapsed_s": <number>`` field is
removed from each file's text, and the remainders are compared.

    python3 tools/same_reports.py FILE FILE...

exits 0 when every file matches the first, 1 naming the first file
that differs, and 2 when given fewer than two files.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_TIMING = re.compile(r', "(ms|elapsed_s)": [0-9.e+-]+')


def stripped(path: str) -> str:
    """The text of the file at path without its timing fields."""
    return _TIMING.sub("", Path(path).read_text())


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: same_reports.py FILE FILE...", file=sys.stderr)
        return 2
    first = stripped(argv[0])
    for path in argv[1:]:
        if stripped(path) != first:
            print(f"{path} differs from {argv[0]} outside the timing fields", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
