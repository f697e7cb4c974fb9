"""Peak resident memory and page faults of geomix commands, measured in a
child Python.

The child reports its own ``getrusage(RUSAGE_SELF)`` figures; the
``RUSAGE_CHILDREN`` figures of the test process would also carry those of
every earlier child it started.
"""

import os
import subprocess
import sys
from pathlib import Path

import geomix

SRC = str(Path(geomix.__file__).resolve().parents[1])
PEAK_RSS = """\
import resource, sys
from geomix import cli
rc = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)
"""
SECOND_CALL_FAULTS = """\
import resource, sys
from geomix import cli
assert cli.main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.exit(rc)
"""
LIBRARY_GRID_SECOND_CALL_FAULTS = """\
import resource, sys
from geomix import data, features, heads
checkpoint, vocab, text, bbox, res = sys.argv[1:]
model = data.load_model(checkpoint)
X = features.vectorize_matrix([features.tokenize(text)], features.load_vocab(vocab))
rows = model.mixture_rows(X)
points = heads.grid_cells(tuple(map(float, bbox.split(","))), int(res))[2]
heads.predictive_density_grid(*rows, points)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
heads.predictive_density_grid(*rows, points)
assert "geomix.cli" not in sys.modules
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _child(code, argv, timeout):
    """The last stdout line, as an int, of a child running ``code`` on
    ``geomix argv``, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.splitlines()[-1])


def peak_rss_bytes(argv, timeout=300):
    """Peak RSS in bytes of a child running ``geomix argv``, which must exit 0."""
    return _child(PEAK_RSS, argv, timeout) * 1024  # ru_maxrss is in KiB on Linux


def second_call_minor_faults(argv, timeout=300):
    """Minor page faults of the second of two runs of ``geomix argv`` in one
    child, both of which must exit 0."""
    return _child(SECOND_CALL_FAULTS, argv, timeout)


def library_grid_second_call_minor_faults(checkpoint, vocab, text, bbox, resolution, timeout=300):
    """Minor page faults of the second of two ``heads.predictive_density_grid``
    calls over the ``resolution`` x ``resolution`` grid of ``bbox`` for the
    mixture of ``text``, in a child that loads ``checkpoint`` and ``vocab``
    through the library and never imports ``geomix.cli``."""
    return _child(LIBRARY_GRID_SECOND_CALL_FAULTS, [checkpoint, vocab, text, bbox, resolution], timeout)
