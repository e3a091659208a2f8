import subprocess
import sys

import pytest

from conftest import NETWORKS

SCRIPTS = NETWORKS.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["run_example_networks.py"], ["oracle_sweep.py", "5", "0"], ["cert_digest.py", "20", "0"]],
)
def test_script_runs(argv):
    # the scripts import crncert's public names, so a pruned name breaks them here
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
