#!/usr/bin/env python3
"""A standing mutation audit: does tier-1 fail when a checked behaviour changes?

    python tools/mutants.py

The working tree's tracked files (`git ls-files`, as they are on disk) are
copied into a temporary directory.  The unmutated copy must pass first.
Then each mutant replaces its exact old text, which must occur once in its
file, with the new text, runs

    python -m pytest -x -q -k "not criterion_4 and not criterion_5" \\
        --deselect tests/test_tools.py::test_each_mutant_text_occurs_once_in_its_file

in the copy, and puts the file back.  The deselected test checks this table
against the unmutated sources, so it would fail under every mutant.  Each
mutant prints killed (with the first failing test), survived, or
equivalent: a mutant with an `equivalent` note cannot change any output, and
the note says why.  The exit code is 1 if a mutant not marked equivalent
survives, 2 if the unmutated copy fails.  The directory is removed at the
end, on SIGTERM too.  Standard library only; about half a minute per mutant
on 2 cores, and two minutes for the unmutated run.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-k", "not criterion_4 and not criterion_5",
          "--deselect", "tests/test_tools.py::test_each_mutant_text_occurs_once_in_its_file"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str   # occurs exactly once in file
    new: str
    equivalent: str | None = None  # why no output can change, if none can


MUTANTS = (
    Mutant("gate-sample-cap", "src/highwaynet/analysis.py",
           "MAX_SAMPLES = 10000", "MAX_SAMPLES = 1000"),
    Mutant("sparsity-threshold", "src/highwaynet/analysis.py",
           "SPARSE_BELOW = 0.1", "SPARSE_BELOW = 0.05"),
    Mutant("correlation-guard-bias-only", "src/highwaynet/analysis.py",
           "if bias.std() == 0 or act.std() == 0:", "if bias.std() == 0:",
           "np.corrcoef of a constant activity is NaN too (with a RuntimeWarning), "
           "the value the guard returns"),
    Mutant("short-last-batch-dropped", "src/highwaynet/data.py",
           "for start in range(0, ds.count, batch_size):",
           "for start in range(0, ds.count - batch_size + 1, batch_size):"),
    Mutant("subset-seed", "src/highwaynet/data.py",
           "Rng(derive_seed(seed, 90))", "Rng(derive_seed(seed, 91))"),
    Mutant("subset-sorted", "src/highwaynet/data.py",
           "idx = rng.permutation(ds.count)[:n]", "idx = np.sort(rng.permutation(ds.count)[:n])"),
    Mutant("search-counter-left-open", "src/highwaynet/search.py",
           "            counter.value = space.trials\n", "            pass\n"),
    Mutant("ranking-ties", "src/highwaynet/search.py",
           "r.best_loss, r.trial))", "r.best_loss, -r.trial))"),
    Mutant("checkpoint-8-trailing-bytes", "src/highwaynet/checkpoint.py",
           "if stored > 8 * count:", "if stored > 8 * count + 8:"),
    Mutant("manifest-seed-from-config", "src/highwaynet/cli.py",
           '"seed": seed, "version"', '"seed": cfg.get("seed", 0), "version"',
           "seed is require_int(..., cfg.get('seed', 0), ...), which returns that very value"),
)


def copy_tracked(into: str) -> None:
    """Copy every tracked file of the working tree, as it is on disk, into `into`."""
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z"], check=True,
                           capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a tracked file deleted on disk is left out
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(into, name))


def run_tests(root: str) -> tuple[int, str | None]:
    """pytest's exit code in root and the first test it reports failing."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(PYTEST, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2):  # 2: interrupted, as by a collection error
        raise RuntimeError(f"pytest exited {proc.returncode} in {root}:\n{proc.stdout[-2000:]}")
    first = next((line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), None)
    return proc.returncode, first


def audit(root: str, mutant: Mutant) -> tuple[str, str]:
    """(killed | survived | equivalent, the first failing test or the note)."""
    path = os.path.join(root, mutant.file)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {source.count(mutant.old)} times "
                         f"in {mutant.file}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(source.replace(mutant.old, mutant.new))
    try:
        code, first = run_tests(root)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
    if code:
        return "killed", first or f"pytest exit {code}"
    return ("equivalent", mutant.equivalent) if mutant.equivalent else ("survived", "")


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the finally below runs
    root = tempfile.mkdtemp(prefix="mutants-")
    try:
        copy_tracked(root)
        code, first = run_tests(root)
        if code:
            print(f"the unmutated copy fails ({first}); no mutant was run")
            return 2
        survivors = 0
        for mutant in MUTANTS:
            start = time.monotonic()
            status, detail = audit(root, mutant)
            survivors += status == "survived"
            print(f"{mutant.name:30} {status:10} {time.monotonic() - start:5.0f} s  {detail}",
                  flush=True)
        return 1 if survivors else 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
