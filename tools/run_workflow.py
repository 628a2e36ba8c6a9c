"""Run the steps of the CI workflow's Python 3.11 job with the Python that runs this script.

Reads ``.github/workflows/tests.yml`` and takes the first matrix entry of
its job whose ``python`` is 3.11.  Every ``run:`` block of that entry is
run except ``Install``: the running interpreter and its packages stand in
for it.  A step whose ``if:`` is false for the entry is skipped.

Each block runs under ``bash -e``, the shell of a ``run:`` step, in a fresh
temporary copy of the working tree (the files git tracks or does not
ignore), with ``PYTHONPATH`` set to the copy's ``src`` and a ``symqm``
script on ``PATH`` that runs ``symqm.cli`` with this interpreter, as the
installed entry point would.  Each step's exit code is printed, and the
script exits 1 if any step failed.  Reading the workflow needs PyYAML,
which no extra of the package names; without it the script exits with a
one-line message.

Usage, from the root of a checkout::

    python3 tools/run_workflow.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    import yaml
except ImportError:
    sys.exit("tools/run_workflow.py needs PyYAML to read the workflow file (import yaml failed)")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PYTHON = "3.11"
SKIPPED = ("Install",)
CONDITION = re.compile(r"^matrix\.(\w+) == '([^']*)'$")


def applies(condition, entry: dict) -> bool:
    """The value of a step's ``if:``, which may only compare one matrix key with a string."""
    if condition is None:
        return True
    match = CONDITION.match(str(condition).strip())
    if match is None:
        raise SystemExit(f"cannot evaluate the condition {condition!r}")
    key, value = match.groups()
    return str(entry.get(key)) == value


def copy_tree(dest: Path) -> None:
    """Copy the files git tracks or does not ignore into ``dest``."""
    listing = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                             check=True, capture_output=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_step(script: str) -> int:
    with tempfile.TemporaryDirectory(prefix="symqm-workflow-") as tmp:
        work, bin_dir = Path(tmp) / "work", Path(tmp) / "bin"
        work.mkdir()
        bin_dir.mkdir()
        copy_tree(work)
        shim = bin_dir / "symqm"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m symqm.cli "$@"\n')
        shim.chmod(0o755)
        env = {**os.environ, "PYTHONPATH": str(work / "src"),
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
        return subprocess.run(["bash", "-e", "-c", script], cwd=work, env=env).returncode


def main() -> int:
    (job,) = yaml.safe_load(WORKFLOW.read_text())["jobs"].values()
    entry = next(e for e in job["strategy"]["matrix"]["include"] if str(e["python"]) == PYTHON)
    results = []
    for step in job["steps"]:
        if "run" not in step or step.get("name") in SKIPPED or not applies(step.get("if"), entry):
            continue
        print(f"== {step['name']}", flush=True)
        start = time.monotonic()
        code = run_step(step["run"])
        results.append((step["name"], code))
        print(f"== {step['name']}: exit {code} in {time.monotonic() - start:.1f} s", flush=True)
    print()
    for name, code in results:
        print(f"{code:4d}  {name}")
    return 0 if all(code == 0 for _, code in results) else 1


if __name__ == "__main__":
    sys.exit(main())
