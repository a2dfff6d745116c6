"""A behaviour lock on the command line: one output hash per query.

``data/cli_queries.txt`` holds one argv list a line, as JSON.  Lines 1-912 are
the benchmark's cli-queries workload for seeds 1 to 8, frozen so that a later
change to the benchmark's generator does not move the lock.  They were written
from the repository root by

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'bench');
    from workloads import generate_queries
    print(*(json.dumps(q['argv']) for s in range(1, 9) for q in generate_queries(s)), sep='\\n')"
    > tests/data/cli_queries.txt

Every one of them exits 0, so the lines after them are written by hand: one
query per kind of refusal (exit 2), so that a changed message moves the lock,
then one query per parsing defect mended later, appended in that order, and
then two products too large to build, refused before either factor is built,
a generator of ZZ that trial division cannot factor, and five queries on Z_n
above 256 elements (Z1021, Z512, Z4096, Z1000 and a localization of Z4096),
which print a lattice or a classification read off Z_n's views of 2-byte cells.

``data/cli_queries.sha256`` holds, line for line, the first 16 hex digits of
the SHA-256 of (exit code, stdout, stderr) of each query, all run in one
process, with ``COLUMNS=80`` so that argparse wraps its usage lines the same
way in every terminal.  A change that alters an output on purpose rewrites
it from the repository root with

    PYTHONPATH=src python tests/test_cli_lock.py

and states in its change log which lines moved (``git diff``).
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from deltan.cli import main

DATA = Path(__file__).resolve().parent / "data"
QUERIES = DATA / "cli_queries.txt"
HASHES = DATA / "cli_queries.sha256"


def _queries():
    return [json.loads(line) for line in QUERIES.read_text(encoding="utf-8").splitlines()]


def _output_hash(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_every_query_prints_what_it_printed_when_locked(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    queries = _queries()
    expected = HASHES.read_text(encoding="utf-8").split()
    assert len(queries) == len(expected) > 912
    moved = [f"line {k}: deltan {' '.join(argv)}"
             for k, (argv, want) in enumerate(zip(queries, expected), 1)
             if _output_hash(argv) != want]
    assert not moved, f"{len(moved)} queries changed output:\n" + "\n".join(moved)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HASHES.write_text("".join(_output_hash(argv) + "\n" for argv in _queries()),
                      encoding="utf-8")
