import os
import subprocess
import sys
from pathlib import Path

import ksphere
from ksphere.groups import GroupSpec, LambdaSpec, build_group, build_sign_hom


def group_with_lambda(spec: GroupSpec, convention: str):
    table = build_group(spec)
    lam = build_sign_hom(table, spec, LambdaSpec(convention=convention))
    return table, lam


# The directory that holds the ksphere this process imported. CLI subprocesses
# put it first on PYTHONPATH, so they run the same code as the test process
# whether ksphere is installed or reached through PYTHONPATH, from any cwd.
KSPHERE_ROOT = str(Path(ksphere.__file__).resolve().parents[1])


def run_cli(args, env=None):
    """Run ``python -m ksphere.cli`` in a fresh process; ``env`` sets variables
    on top of this process's environment."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [KSPHERE_ROOT, child_env.get("PYTHONPATH")])
    )
    child_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "ksphere.cli", *args],
        capture_output=True,
        text=True,
        env=child_env,
    )
