"""Package layering: the checker does not depend on the service.

``repro.service`` runs checks through :mod:`repro.checker`; the reverse
import would make every library user load the job server, journal,
scheduler and metrics along with the model checker.  The check runs in
a fresh interpreter, so modules other tests imported do not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE = (
    "import json, sys\n"
    "import repro.checker\n"
    "print(json.dumps(sorted(name for name in sys.modules\n"
    "                        if name.split('.')[:2] == ['repro', 'service'])))\n"
)


def test_importing_the_checker_loads_no_service_module():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
