"""Run the tier-1 workflow's ``run:`` steps here, on the interpreter that
runs this script::

    python3.12 tools/ci_local.py

Each step runs as the workflow runs it, from the repository root under
``bash --noprofile --norc -eo pipefail``, with ``RUNNER_TEMP`` (a fresh
directory) and ``GITHUB_WORKSPACE`` set.  In place of the installed
package, ``python`` and an ``epiflow`` script (``epiflow.cli:entry`` with
``src`` on ``PYTHONPATH``) that both run this interpreter lead ``PATH``.
A step that installs packages is skipped, as it needs the network, and a
step that runs pytest is reported as not run where pytest is not
installed.  As on GitHub, the steps after a failing one do not run.  Exits 1
when a step fails.  Stdlib only; it reads only the workflow's plain
``key: value`` and ``key: |`` lines, and refuses a ``${{ }}`` expression
in a step it runs.
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def workflow_steps(text: str) -> list[dict[str, str]]:
    """The steps of the workflow's job, each its keys with a value; a
    ``|`` value is its block's text.  Nested mappings (``with:``) are left
    out."""
    lines = text.splitlines()
    i = next(n for n, line in enumerate(lines) if line.strip() == "steps:") + 1
    steps: list[dict[str, str]] = []
    keys = None  # the indent of a step's keys
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if keys is not None and _indent(line) > keys:
            continue
        if line.lstrip().startswith("- ") and (keys is None or _indent(line) == keys - 2):
            steps.append({})
            keys = _indent(line) + 2
            line = " " * keys + line.lstrip()[2:]
        elif keys is None or _indent(line) < keys:
            break
        key, _, value = line.strip().partition(":")
        value = value.strip()
        if value == "|":
            block = []
            while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > keys):
                block.append(lines[i])
                i += 1
            depth = min(_indent(b) for b in block if b.strip())
            value = "\n".join(b[depth:] for b in block).rstrip("\n") + "\n"
        if value:
            steps[-1][key] = value
    return steps


def _shims(directory: Path) -> None:
    python, src = shlex.quote(sys.executable), shlex.quote(str(ROOT / "src"))
    entry = shlex.quote("from epiflow.cli import entry; entry()")
    scripts = {
        "python": f'exec {python} "$@"\n',
        "epiflow": f'PYTHONPATH={src} exec {python} -c {entry} "$@"\n',
    }
    for name, body in scripts.items():
        path = directory / name
        path.write_text("#!/bin/sh\n" + body, encoding="utf-8")
        path.chmod(0o755)


def main() -> int:
    steps = [s for s in workflow_steps(WORKFLOW.read_text(encoding="utf-8")) if "run" in s]
    has_pytest = importlib.util.find_spec("pytest") is not None
    results = []
    with tempfile.TemporaryDirectory() as work:
        shims, runner_temp = Path(work, "bin"), Path(work, "runner")
        shims.mkdir()
        runner_temp.mkdir()
        _shims(shims)
        env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
               "RUNNER_TEMP": str(runner_temp), "GITHUB_WORKSPACE": str(ROOT)}
        failed = False
        for step in steps:
            name, run = step.get("name", step["run"].splitlines()[0]), step["run"]
            if failed:
                results.append(("not run: an earlier step failed", name))
            elif "pip install" in run:
                results.append(("skipped: installs packages", name))
            elif "-m pytest" in run and not has_pytest:
                results.append(("not run: pytest is not installed", name))
            elif "${{" in run:
                raise SystemExit(f"step {name!r} holds an expression this script cannot expand")
            else:
                print(f"== {name}", flush=True)
                start = time.perf_counter()
                done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail",
                                       "-c", run], cwd=ROOT, env=env)
                took = time.perf_counter() - start
                failed = done.returncode != 0
                state = f"FAILED with exit {done.returncode}" if failed else "passed"
                results.append((f"{state} in {took:.1f} s", name))
    print(f"\nPython {sys.version.split()[0]} ({sys.executable}):")
    for state, name in results:
        print(f"  {name}: {state}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
