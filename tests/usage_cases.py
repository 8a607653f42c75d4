"""Command lines that stop in the argument parser, and their output.

``main`` builds the parser of the command that its first argument names
and no other.  ``outputs(argv)`` gives ``main``'s exit status, standard
output and standard error; with ``every=True``, ``main`` builds every
command's parser, as ``build_parser()`` does, and each argv in ``ARGVS``
must give the same three either way.

Runs without pytest, so that interpreters without it can check the same
cases::

    PYTHONPATH=src python tests/usage_cases.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from epiflow import cli

_FLAGS = {
    "check": ["--program", "x", "--policy", "y"],
    "model": ["--program", "x"],
    "diff": ["--program", "x", "--policy", "y"],
    "knowledge": ["--program", "x", "--policy", "y"],
    "fuzz": [],
}

# fuzz has no required flag, so its "missing" case leaves out a flag's value
_MISSING = {
    "check": ["check", "--policy", "y"],
    "model": ["model"],
    "diff": ["diff", "--program", "x"],
    "knowledge": ["knowledge", "--policy", "y"],
    "fuzz": ["fuzz", "--count"],
}

ARGVS = [
    *([name, "-h"] for name in _FLAGS),
    *_MISSING.values(),
    *([name, *flags, "--bogus"] for name, flags in _FLAGS.items()),
    *([name, *flags, "extra"] for name, flags in _FLAGS.items()),
    ["check", "--policy", "p", "--formula", "f"],
    [],
    ["-h"],
    ["chek"],
    ["Check"],
]


def outputs(argv: list[str], every: bool = False) -> tuple[int, str, str]:
    """``main(argv)``'s exit status, standard output and standard error."""
    build = cli.build_parser
    if every:
        cli.build_parser = lambda command=None: build()
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(argv))
    finally:
        cli.build_parser = build
    return status, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    differ = [argv for argv in ARGVS if outputs(argv) != outputs(argv, every=True)]
    for argv in differ:
        print("differs:", " ".join(["epiflow", *argv]))
    print(f"Python {sys.version.split()[0]}: {len(ARGVS) - len(differ)} of {len(ARGVS)} "
          "command lines give the same status and output with one parser as with all")
    sys.exit(1 if differ else 0)
