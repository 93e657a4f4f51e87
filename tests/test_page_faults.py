"""The batched kernels fault their block temporaries in once per call.

glibc hands a freed block of 128 KiB or more back to the OS, so a temporary
made once per block is page-faulted in anew on every block. With glibc's
mmap and trim thresholds fixed at 128 KiB (by default they rise after the
first large free, which hides the effect in a warm process), the second
call's minor faults count what one call maps afresh.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the minor page faults of glibc's allocator",
)

SCRIPT = """
import resource

import numpy as np

from wcpd.cpd import sliding_statistic
from wcpd.series import TimeSeries
from wcpd.tssc import cluster_segments


def second_call_faults(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


series = TimeSeries(np.random.default_rng(0).normal(size=(3600, 3)))
lengths = [150, 330, 210, 270, 180, 300, 240, 360, 120, 390, 200, 280, 160, 320, 90]
change_points = np.cumsum(lengths)[:-1]
print(
    second_call_faults(lambda: sliding_statistic(series, 50)),
    second_call_faults(lambda: cluster_segments(series, change_points, 4, 50, 0)),
)
"""

# Second-call faults of the same script when every block allocated its own
# temporaries (glibc 2.36, x86-64): 2,039 for the scan, 745 for clustering.
PER_BLOCK_SCAN_FAULTS = 2039
PER_BLOCK_CLUSTER_FAULTS = 745


def test_second_call_faults_stay_below_a_quarter_of_per_block_temporaries():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        MALLOC_MMAP_THRESHOLD_="131072",
        MALLOC_TRIM_THRESHOLD_="131072",
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    scan, cluster = map(int, run.stdout.split())
    assert scan < PER_BLOCK_SCAN_FAULTS / 4
    assert cluster < PER_BLOCK_CLUSTER_FAULTS / 4
