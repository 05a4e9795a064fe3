"""The fixed-behaviour corpus: each CLI call listed in ``golden/forms.txt``
runs through ``cli.main`` in-process, and its exit code, stdout and stderr
must equal the record ``golden/<command>-<hash>.txt`` line for line.  A
record's header names the Python and numpy versions it was made with, so
other versions fail rather than skip.  Running this file as a script,

    PYTHONPATH=src python tests/test_golden.py

is the only way to write the records: it rewrites them, deletes those of
forms no longer listed, and prints each form whose output changed.
"""

import contextlib
import hashlib
import io
import os
import platform
import shlex
import warnings
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np

from isoppp import cli

GOLDEN = Path(__file__).with_name("golden")
HEADER = f"# python {platform.python_version()} numpy {np.__version__}"
FORMS = [shlex.split(line) for line in (GOLDEN / "forms.txt").read_text("utf-8").splitlines()
         if line.strip() and not line.startswith("#")]


def record_path(argv):
    digest = hashlib.sha1("\0".join(argv).encode()).hexdigest()[:10]
    return GOLDEN / f"{argv[0]}-{digest}.txt"


def render(argv):
    """The record of one call: header, command line, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to COLUMNS; any warning fails the form
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return (f"{HEADER}\n$ isoppp {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def first_difference(argv):
    """None, or the form and its first line that differs from its record."""
    path = record_path(argv)
    want = path.read_text("utf-8").split("\n") if path.exists() else []
    for number, (now, recorded) in enumerate(zip_longest(render(argv).split("\n"), want), 1):
        if now != recorded:
            return (f"isoppp {shlex.join(argv)} ({path.name}) differs at line {number}:\n"
                    f"  recorded: {recorded!r}\n  now:      {now!r}")


def test_one_record_per_form():
    paths = [record_path(argv) for argv in FORMS]
    assert len(set(paths)) == len(paths), "forms.txt lists a form twice"
    stale = sorted(path.name for path in set(GOLDEN.glob("*-*.txt")) - set(paths))
    assert not stale, f"records of no listed form: {stale}; run tests/test_golden.py"


def test_forms_match_records():
    differences = [d for d in map(first_difference, FORMS) if d]
    assert not differences, f"{len(differences)} of {len(FORMS)} forms differ:\n" + \
        "\n".join(differences)


if __name__ == "__main__":
    for argv in FORMS:
        path, text = record_path(argv), render(argv)
        if not path.exists() or path.read_text("utf-8") != text:
            print(f"{'changed' if path.exists() else 'new'}: isoppp {shlex.join(argv)}")
            path.write_text(text, "utf-8")
    for stale in sorted(set(GOLDEN.glob("*-*.txt")) - {record_path(argv) for argv in FORMS}):
        print(f"deleted: {stale.name}")
        stale.unlink()
