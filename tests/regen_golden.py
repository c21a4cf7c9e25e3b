"""Rewrite tests/golden.json from the current code.

    PYTHONPATH=src python tests/regen_golden.py

Run it only for a change that moves artifact bytes on purpose, and name each
moved invocation in CHANGES.md.  Before it writes, it prints the invocations
added, removed and moved (a changed exit code or digest) against the current
table.  pytest does not collect this file, and the golden test never rewrites
the table.
"""

import json
import tempfile

import numpy as np

from test_golden import CASES, ROWS, TABLE, TABLE_PATH, record

FIELDS = ("exit", "stdout", "stderr", "artifact")


def table_changes(old: dict, rows: list) -> dict:
    """Lines naming each invocation of `rows` not in `old`, each of `old` not in `rows`, and each
    in both whose recorded fields differ, under "added", "removed" and "moved"; `old` maps an
    argv tuple to its row."""
    new = {tuple(row["argv"]): row for row in rows}
    return {
        "added": [" ".join(argv) for argv in new if argv not in old],
        "removed": [" ".join(argv) for argv in old if argv not in new],
        "moved": [
            f"{' '.join(argv)}  ({', '.join(k for k in FIELDS if new[argv][k] != old[argv][k])})"
            for argv in new
            if argv in old and new[argv] != old[argv]
        ],
    }


def main():
    with tempfile.TemporaryDirectory() as outdir:
        rows = [record(argv, outdir) for argv in CASES]
    if TABLE["numpy"] != np.__version__:
        print(f"numpy {TABLE['numpy']} -> {np.__version__}")
    for kind, lines in table_changes(ROWS, rows).items():
        print(f"{kind}: {len(lines)}", *(f"  {line}" for line in lines), sep="\n")
    # one invocation a line, so a moved artifact shows as one changed line
    cases = ",\n".join(f"  {json.dumps(row)}" for row in rows)
    TABLE_PATH.write_text(f'{{\n "numpy": {json.dumps(np.__version__)},\n "cases": [\n{cases}\n ]\n}}\n')
    print(f"wrote {TABLE_PATH}: {len(CASES)} invocations, numpy {np.__version__}")


if __name__ == "__main__":
    main()
