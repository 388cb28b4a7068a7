"""Regenerate the committed expected outputs under ``hostbench/expected``.

    python3 hostbench/regen.py

Runs every ``sim-hot`` seed variant once (with the golden cells) and
every ``study-cli`` spec variant once, in fresh processes with a clean
environment, and writes what the program produced: the comparable
fields of each sim-hot cell (``expected/sim_hot.json``) and each
study's stdout table
(``expected/study-v<variant>.txt``).  Run it only when a change is
meant to alter simulation results; the benchmark then compares every
run against these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hostbench import simhot, study  # noqa: E402
from hostbench.common import (Scratch, child_env, last_json_line,  # noqa: E402
                              reap_all, run_child)


def main() -> int:
    with Scratch() as scratch:
        try:
            expected = {}
            for variant in range(simhot.VARIANTS):
                child = run_child(
                    [sys.executable, "-m", "hostbench.simhot", "measure",
                     "--seed", str(variant), "--seconds", "0"],
                    child_env(scratch.new_dir("cache-"),
                              scratch.new_dir("tmp-")), scratch)
                if child.returncode != 0:
                    raise SystemExit(child.stderr)
                report = last_json_line(child.stdout)
                expected[str(variant)] = {record["label"]: record["summary"]
                                          for record in report["records"]}
                expected["golden"] = {record["label"]: record["summary"]
                                      for record in report["golden"]}
            path = study.EXPECTED_DIR / "sim_hot.json"
            path.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path}")
            for variant in range(study.VARIANTS):
                spec_path = study.write_spec(variant, scratch)
                child = run_child(study.study_argv(spec_path),
                                  child_env(scratch.new_dir("cache-"),
                                            scratch.new_dir("tmp-")),
                                  scratch)
                if child.returncode != 0:
                    raise SystemExit(child.stderr)
                path = study.expected_table_path(variant)
                path.write_text(child.stdout)
                print(f"wrote {path}")
        finally:
            reap_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
