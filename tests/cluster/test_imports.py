"""Importing the cluster stack must not load numpy.

numpy serves only the cost-model calibration's least-squares fits and
large telemetry folds.  A stock run needs neither, so it should not pay
numpy's import time and memory.
"""

import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_cluster_import_loads_no_numpy():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import repro.cluster, repro.experiments.common\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, _SRC],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
