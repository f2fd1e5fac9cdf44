"""Paired end-to-end benchmark of this checkout against its parent commit.

    python3 tools/bench_record.py OUT.json

The parent is HEAD when the working tree differs from it, else HEAD~1.
Untracked files under src/, perfbench/, tests/ or tools/ stop the tool
before any run, since neither the parent choice nor ``src_tree`` would see
them.  The parent is exported with ``git archive`` into a temporary
directory, so that no worktree is registered.  Then, for each workload W of WORKLOADS and seed S
of SEEDS, it runs
``perfbench/run.py --workload W --seed S --seconds 8 --trace 0`` as a
subprocess PAIRS times in each checkout, in pairs whose order alternates:
the parent runs first in even pairs and this checkout first in odd ones.
Each run's last line of standard output is its result as one JSON object.
A run whose result says ``"correct": false`` stops the tool with a one-line
message naming its workload, seed, pair and side, before OUT.json is
written: ``perfbench/run.py`` exits 0 even when its reports fail their checks.

OUT.json holds the parent, the commit this checkout is at (null when its
working tree differs from HEAD), and ``src_tree``, the git tree id of src/
as measured, which equals ``git rev-parse C:src`` for the commit C that
holds the measured code.  Per workload and seed it holds the ``env:`` line
of this checkout's first run and, for each end-to-end metric of
BENCHMARK.json, each side's values, their quartiles ``q1``, ``median`` and
``q3`` (inclusive method), and how many pairs each side won; a tie wins for
neither.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

OWN_CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tables", "followers", "expansions")
SEEDS = (3, 11)
PAIRS = 10
SECONDS = 8
SIDES = ("change", "parent")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=OWN_CHECKOUT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of commit rev, written under into."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=OWN_CHECKOUT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The env line and the result object of one perfbench run in root."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    child = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(argv)} in {root} failed:\n{child.stderr}")
    lines = child.stdout.splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def compare(runs: dict[str, list[dict]], specs: list[dict]) -> dict:
    """Per metric: each side's summary and the pairs each side won."""
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        won = dict.fromkeys(SIDES, 0)
        for change, parent in zip(values["change"], values["parent"]):
            if change != parent:
                won["change" if sign * (change - parent) < 0 else "parent"] += 1
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{side: summary(values[side]) for side in SIDES},
            "pairs_won": won,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    out = parser.parse_args().out

    specs = json.loads((OWN_CHECKOUT / "BENCHMARK.json").read_text())["end_to_end"]
    # stash create leaves untracked files out of the commit it makes.
    untracked = git(
        "ls-files", "--others", "--exclude-standard", "--", "src", "perfbench", "tests", "tools"
    )
    if untracked:
        names = " ".join(untracked.splitlines())
        raise SystemExit(f"bench_record: add or remove the untracked {names}")
    # stash create prints a commit of the working tree, and nothing on a clean one.
    measured = git("stash", "create")
    head = git("rev-parse", "HEAD")
    record = {
        "parent": head if measured else git("rev-parse", "HEAD~1"),
        "commit": None if measured else head,
        "src_tree": git("rev-parse", (measured or head) + ":src"),
        "command": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "pairs": PAIRS,
        "results": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        roots = {"change": OWN_CHECKOUT, "parent": Path(tmp)}
        export(record["parent"], roots["parent"])
        for workload in WORKLOADS:
            for seed in SEEDS:
                runs, envs = {side: [] for side in SIDES}, []
                for pair in range(PAIRS):
                    for side in SIDES[::-1] if pair % 2 == 0 else SIDES:
                        env, result = run_once(roots[side], workload, seed)
                        if not result["correct"]:
                            raise SystemExit(
                                f"bench_record: {workload} seed {seed} pair {pair} {side}: "
                                "reports failed the benchmark's checks"
                            )
                        runs[side].append(result)
                        if side == "change":
                            envs.append(env)
                        wall = result["metrics"]["wall_s"]["value"]
                        print(f"{workload} seed {seed} pair {pair} {side}: wall_s {wall:.4f}",
                              file=sys.stderr)
                record["results"].setdefault(workload, {})[str(seed)] = {
                    "env": envs[0],
                    "metrics": compare(runs, specs),
                }
    out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
