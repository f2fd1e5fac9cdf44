"""The CLI's output on the digest's argvs, pinned byte for byte.

tests/output_digest.txt holds the lines of ``tools/output_digest.py ROOT 1
3 7 11``: one SHA-256 per subcommand over the exit codes, standard output
and standard error of its argvs, then one over all of them.  A change that
moves a report updates the file and names each moved argv, which a diff of
the tool's ``--each`` output on both checkouts lists.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("output_digest.txt")


def test_output_digest_is_pinned():
    # The tool runs its argvs in-process, so the cell budget must be the
    # CLI's default, as when the pinned lines were taken.
    env = {k: v for k, v in os.environ.items() if k != "SHIFTLAB_MAX_CELLS"}
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), str(ROOT), "1", "3", "7", "11"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    lines, pinned = child.stdout.splitlines(), PINNED.read_text().splitlines()
    got, want = _by_command(lines), _by_command(pinned)
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not moved, f"output moved for: {', '.join(moved)}"
    assert lines == pinned


def _by_command(lines) -> dict[str, str]:
    return {line.split()[1]: line for line in lines if line.startswith("command ")}


def test_each_prints_one_line_per_argv():
    env = {k: v for k, v in os.environ.items() if k != "SHIFTLAB_MAX_CELLS"}
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--each", str(ROOT), "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    total = lines[-1].split()
    assert total[0] == "argvs"
    each = [line for line in lines if not line.startswith(("command ", "argvs "))]
    assert len(each) == int(total[1])
    for line in each:
        sha, argv = line.split(" ", 1)
        assert len(sha) == 64 and int(sha, 16) >= 0
        assert isinstance(json.loads(argv), list)
