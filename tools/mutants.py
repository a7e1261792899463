"""Run the committed mutant catalogue: every mutant must turn its tests red.

Each ``tests/mutants/*.patch`` is one deliberate bug: a unified diff
against ``src/`` preceded by a header naming what it breaks and the test
ids that must catch it::

    Mutant: the one-line description
    Origin: where the mutant was first recorded
    Kill: tests/test_x.py::TestY::test_z
    Kill: ...
    --- a/src/repro/...
    +++ b/src/repro/...
    @@ ... @@

The runner copies the tree (``src/``, ``tests/``, ``conftest.py``,
``pyproject.toml``) to a temporary directory, checks that every named id
passes there unmutated, then applies each patch in turn, runs its ids with
a fixed Hypothesis seed and no example database, and restores the files.
It exits 0 only when the baseline is green and every mutant is killed (a
test failure or a timeout); a patch that no longer applies, an id that is
not collected, or a surviving mutant exits 1.

    python tools/mutants.py                  # the whole catalogue
    python tools/mutants.py --only flexpass- # names starting with a prefix

Standard library only; pytest and Hypothesis are needed to run the tests.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants"
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")
#: the Hypothesis seed of every run
SEED = 0
#: seconds per pytest run; a mutant that hangs its tests this long is killed
TIMEOUT_S = 300

#: a pytest plugin loaded into every run: no example database, so a
#: failure found on one run cannot be replayed into the next, and no
#: shrinking, since only red or green matters here
PROFILE_PLUGIN = '''\
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None,
                          phases=(Phase.explicit, Phase.generate))
settings.load_profile("mutants")
'''

_HUNK = re.compile(r"^@@ -(\d+)(?:,\d+)? \+\d+(?:,\d+)? @@")


@dataclass
class Hunk:
    start: int  # 1-based line the hunk claims to start at
    old: List[str] = field(default_factory=list)
    new: List[str] = field(default_factory=list)


@dataclass
class Mutant:
    name: str
    description: str
    kills: List[str]
    files: Dict[str, List[Hunk]]


def parse(path: Path) -> Mutant:
    """Read one catalogue entry: its header and its unified diff."""
    header: Dict[str, List[str]] = {}
    files: Dict[str, List[Hunk]] = {}
    target: Optional[str] = None
    hunk: Optional[Hunk] = None
    in_header = True
    for line in path.read_text().splitlines():
        if in_header and not line.startswith("--- "):
            key, sep, value = line.partition(":")
            if sep and value.strip():
                header.setdefault(key.strip().lower(), []).append(value.strip())
            continue
        if line.startswith("--- "):
            in_header = False
            continue
        if line.startswith("+++ "):
            target = line[4:].split("\t")[0]
            target = target[2:] if target.startswith("b/") else target
            files[target] = []
            continue
        m = _HUNK.match(line)
        if m:
            hunk = Hunk(int(m.group(1)))
            files[target].append(hunk)
            continue
        if hunk is None or line.startswith("\\"):
            continue
        tag, text = (line[0], line[1:]) if line else (" ", "")
        if tag in " -":
            hunk.old.append(text)
        if tag in " +":
            hunk.new.append(text)
    for key in ("mutant", "kill"):
        if key not in header:
            raise ValueError(f"{path.name}: no '{key.title()}:' line")
    if not files:
        raise ValueError(f"{path.name}: no diff")
    return Mutant(path.stem, header["mutant"][0], header["kill"], files)


def apply(hunks: List[Hunk], text: str) -> str:
    """Apply hunks to ``text``; each must match exactly once near the
    line it claims, else the catalogue entry is stale."""
    lines = text.split("\n")
    offset = 0
    for hunk in hunks:
        n = len(hunk.old)
        at = [i for i in range(len(lines) - n + 1)
              if lines[i:i + n] == hunk.old]
        if not at:
            raise ValueError(f"hunk at line {hunk.start} does not apply")
        want = hunk.start - 1 + offset
        i = min(at, key=lambda j: abs(j - want))
        lines[i:i + n] = hunk.new
        offset += len(hunk.new) - n
    return "\n".join(lines)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        elif src.exists():
            shutil.copy2(src, dest / name)
    (dest / "mutant_profile.py").write_text(PROFILE_PLUGIN)


def run_ids(tree: Path, ids: List[str]) -> Tuple[str, str]:
    """Run ``ids`` in ``tree``: ('pass' | 'fail' | 'timeout' | 'error',
    the last lines of pytest's output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--no-header",
           "-p", "no:cacheprovider", "-p", "mutant_profile",
           f"--hypothesis-seed={SEED}", *ids]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-3:])
    # 1 = some test failed; anything else (usage error, nothing
    # collected, interrupted) means the entry itself is broken
    return {0: "pass", 1: "fail"}.get(proc.returncode, "error"), tail


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--only", nargs="+", default=None, metavar="PREFIX",
                    help="run only mutants whose name starts with a prefix")
    args = ap.parse_args(argv)

    mutants = [parse(p) for p in sorted(CATALOGUE.glob("*.patch"))]
    if args.only:
        mutants = [m for m in mutants
                   if any(m.name.startswith(p) for p in args.only)]
    if not mutants:
        print("no mutants selected", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        ids = sorted({k for m in mutants for k in m.kills})
        verdict, tail = run_ids(tree, ids)
        print(f"baseline: {len(ids)} ids unmutated -> {verdict}")
        if verdict != "pass":
            print(tail)
            print("the unmutated tree must pass every kill id", file=sys.stderr)
            return 1
        survivors = broken = 0
        for m in mutants:
            originals: Dict[str, str] = {}
            start = time.monotonic()
            try:
                for f, hunks in m.files.items():
                    originals[f] = (tree / f).read_text()
                    (tree / f).write_text(apply(hunks, originals[f]))
            except (OSError, ValueError) as exc:
                verdict, tail = "error", f"patch: {exc}"
            else:
                verdict, tail = run_ids(tree, m.kills)
            finally:
                for f, text in originals.items():
                    (tree / f).write_text(text)
            label = {"fail": "KILLED", "timeout": "KILLED (timeout)",
                     "pass": "SURVIVED", "error": "ERROR"}[verdict]
            print(f"{label:<17} {m.name}  ({time.monotonic() - start:.1f} s)")
            if verdict == "pass":
                survivors += 1
                print(f"  {m.description}")
            elif verdict == "error":
                broken += 1
                print("  " + tail.replace("\n", "\n  "))
    print(f"{len(mutants)} mutants: {len(mutants) - survivors - broken} "
          f"killed, {survivors} survived, {broken} broken "
          f"({time.monotonic() - t0:.0f} s)")
    return 0 if survivors == broken == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
