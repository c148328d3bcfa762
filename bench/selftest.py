"""Check that the benchmark counts a wrong output as a failed command.

Runs every workload at a small size twice through the same measurement loop
as ``run.py``: once as the program wrote it, where no command may fail, and
once with each command's output corrupted after the command exits and
before it is checked, where every command must fail. Exits 0 when both hold.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from measure import ROOT, measure
from workloads import WORKLOADS, Sizes, build

SMALL = Sizes(n_users=40, n_items=10, mc_users=20, mc_items=10, mc_samples=2000)


def _shift_first(path: Path, column: int) -> None:
    """Add 0.25 to one CSV cell of the first data row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[column] = repr(float(cells[column]) + 0.25)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_json(stdout: str, edit) -> str:
    out = json.loads(stdout)
    edit(out)
    return json.dumps(out)


def corrupted(command, workdir: Path):
    """The command with a check that first damages what the command produced."""
    original = command.check

    def check(stdout: str) -> list[str]:
        if command.name == "fit":
            _shift_first(workdir / "feedback.csv", 3)  # one fitted sigma
        elif command.name == "simulate":
            _shift_first(workdir / "simulated" / "observations.csv", 3)  # off the grid
        elif command.name == "distinguish":
            stdout = _corrupt_json(stdout, lambda o: o.update(distinguishable=not o["distinguishable"]))
        elif command.name == "rmse-dist":
            stdout = _corrupt_json(stdout, lambda o: o.update(mean=o["mean"] * 1.05))
        elif command.name == "strategies":
            stdout = _corrupt_json(stdout, lambda o: o[0].update(score_after=o[0]["score_after"] * (1 + 1e-6)))
        return original(stdout)

    command.check = check
    return command


def main() -> int:
    base = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    for name in WORKLOADS:
        for damage in (False, True):
            workdir = base / f"{name}-{int(damage)}"
            workload = build(name, 5, workdir, SMALL)
            if damage:
                workload.commands = [corrupted(c, workdir) for c in workload.commands]
            outcome = measure(workload, 1, workdir, time.perf_counter() + 120)
            want = outcome["attempted"] if damage else 0
            status = "ok" if outcome["failed"] == want else "WRONG"
            ok &= status == "ok"
            print(f"{status}: {name} {'corrupted' if damage else 'as written'}: "
                  f"{outcome['failed']}/{outcome['attempted']} commands failed")
            for failure in outcome["failures"]:
                print(f"    {failure}")
    shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
