"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 perfbench/selftest.py

Runs op 0 of each workload once, asserts that its check passes, then
damages a copy of the real outputs the way a broken program could and
asserts that the check now fails:

* protocol: one trial row dropped from trials.csv;
* cohort-screen: one verdict flipped in dossier.json;
* index-build: one .advec file truncated.

It also asserts that BENCHMARK.json names exactly the metrics run.py and
layers.py report. Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
import workloads


def drop_trial_row(out: Path) -> None:
    path = out / "trials.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def flip_verdict(out: Path) -> None:
    path = out / "dossier.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    entry = doc["samples"][0]
    entry["verdict"] = "No" if entry["verdict"] == "Yes" else "Yes"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def truncate_advec(out: Path) -> None:
    path = sorted(out.glob("*.advec"))[0]
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 100])


DAMAGE = {"protocol": drop_trial_row, "cohort-screen": flip_verdict,
          "index-build": truncate_advec}


def expect(ok: bool, message: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_passes(workload, index: int, op_dir: Path) -> bool:
    try:
        workload.check(index, op_dir)
    except workloads.CheckFailed:
        return False
    return True


def main() -> int:
    if not (run.SRC / "adam" / "cli.py").is_file():
        print(f"error: no adam sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py", failures)
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(name, unit, better)
               for name, (unit, better, _, _) in layers.LAYERS.items()],
           "BENCHMARK.json per_layer matches layers.py", failures)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py", failures)

    env = run.child_env()
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, env)
            base = work / name
            base.mkdir(parents=True)
            workload.prepare(base)
            op_dir = base / "ops" / "0"
            op_dir.mkdir(parents=True)
            result = subprocess.run(workloads.adam(*workload.op_args(0)),
                                    cwd=op_dir, env=env,
                                    stdout=subprocess.DEVNULL, timeout=60)
            expect(result.returncode == 0, f"{name}: op 0 exits 0", failures)
            expect(check_passes(workload, 0, op_dir),
                   f"{name}: check accepts real outputs", failures)
            broken = base / "ops" / "broken"
            shutil.copytree(op_dir, broken)
            DAMAGE[name](broken / "out")
            expect(not check_passes(workload, 0, broken),
                   f"{name}: check rejects outputs after "
                   f"{DAMAGE[name].__name__}", failures)
            expect(workloads.digest(broken / "out")
                   != workloads.digest(op_dir / "out"),
                   f"{name}: digest changes after {DAMAGE[name].__name__}",
                   failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
