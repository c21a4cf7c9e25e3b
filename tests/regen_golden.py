"""Rewrite tests/golden.json from the current code.

    PYTHONPATH=src python tests/regen_golden.py

Run it only for a change that moves artifact bytes on purpose, and name each
moved invocation in CHANGES.md.  pytest does not collect this file, and the
golden test never rewrites the table.
"""

import json
import tempfile

import numpy as np

from test_golden import CASES, TABLE_PATH, record


def main():
    with tempfile.TemporaryDirectory() as outdir:
        rows = [record(argv, outdir) for argv in CASES]
    # one invocation a line, so a moved artifact shows as one changed line
    cases = ",\n".join(f"  {json.dumps(row)}" for row in rows)
    TABLE_PATH.write_text(f'{{\n "numpy": {json.dumps(np.__version__)},\n "cases": [\n{cases}\n ]\n}}\n')
    print(f"wrote {TABLE_PATH}: {len(CASES)} invocations, numpy {np.__version__}")


if __name__ == "__main__":
    main()
