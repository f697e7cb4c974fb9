"""Peak resident memory of one geomix command, measured in a child Python.

The child reports its own ``getrusage(RUSAGE_SELF).ru_maxrss``; the
``RUSAGE_CHILDREN`` figure of the test process would also carry the peaks of
every earlier child it started.
"""

import os
import subprocess
import sys
from pathlib import Path

import geomix

SRC = str(Path(geomix.__file__).resolve().parents[1])
CHILD = """\
import resource, sys
from geomix import cli
rc = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)
"""


def peak_rss_bytes(argv, timeout=300):
    """Peak RSS in bytes of a child running ``geomix argv``, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.splitlines()[-1]) * 1024  # ru_maxrss is in KiB on Linux
