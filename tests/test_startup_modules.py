"""Start-up budget, as module sets rather than wall clock.

``import repro.cli`` and a warm ``python -m repro study run`` must load
no third-party numerics (scipy, numpy) and none of the service stack
(asyncio, ``repro.service``): each of those costs every process tens to
hundreds of milliseconds before it does any work.  A module set is
deterministic where an import-time threshold on a shared machine is
not.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = REPO_ROOT / "examples" / "specs" / "fig4_smoke.json"

#: Runs in a fresh interpreter: records sys.modules after importing the
#: CLI, then after ``python -m repro study run`` (via runpy, exactly as
#: ``-m`` runs it), and writes both lists to the file named by argv[1].
_PROBE = """
import json, runpy, sys
out, spec, cache = sys.argv[1:4]
import repro.cli
after_import = sorted(sys.modules)
sys.argv = ["repro", "study", "run", spec, "--cache-dir", cache]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "import": after_import,
               "run": sorted(sys.modules)}, fh)
"""


def _forbidden(modules):
    return sorted(name for name in modules
                  if name.split(".")[0] in {"scipy", "numpy", "asyncio"}
                  or name == "repro.service"
                  or name.startswith("repro.service."))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_import_and_warm_study_load_no_heavy_modules(tmp_path):
    cache = tmp_path / "cache"
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "study", "run", str(SPEC),
         "--cache-dir", str(cache)],
        env=_env(), capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr

    out = tmp_path / "modules.json"
    warm = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), str(SPEC), str(cache)],
        env=_env(), capture_output=True, text=True, timeout=300)
    assert warm.returncode == 0, warm.stderr
    probe = json.loads(out.read_text())
    assert probe["code"] == 0, warm.stderr
    assert "[cache] 24 hits, 0 misses, 0 stores" in warm.stderr
    assert warm.stdout == cold.stdout

    assert "repro.cli" in probe["import"]
    assert _forbidden(probe["import"]) == []
    assert _forbidden(probe["run"]) == []
