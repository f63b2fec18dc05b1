"""Golden report snapshots: `selfsim report` must reproduce them byte for
byte, in JSON and in text.

The systems are the bundled fixtures, `zn_rotation(3..5)` and the first
ten seeded random actions of conftest.  The snapshots pin every verdict,
note and witness word, so a refactor of the deciders that changes any of
them shows up here.  To re-record them (only when a change of output is
intended), run from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
import os
import random
import sys
import tempfile

import pytest

from selfsim import cli, systems

from conftest import FIXTURES, random_action, zn_rotation

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RANDOM_SEED = 20260814   # the seed of conftest's random_actions fixture
FORMATS = (("json", ".json"), ("text", ".txt"))


def golden_systems():
    """(name, System or None) pairs; None means the bundled fixture."""
    out = [(name, None) for name in FIXTURES]
    out += [("zn_rotation_%d" % n, systems.System("zn_rotation_%d" % n,
                                                  zn_rotation(n)))
            for n in (3, 4, 5)]
    rng = random.Random(RANDOM_SEED)
    for k in range(10):
        name = "random_%02d" % k
        out.append((name, systems.System(name, random_action(rng))))
    return out


def report_bytes(name, system, fmt, workdir):
    """stdout of `selfsim report` on the system, in the given format."""
    ref = name
    if system is not None:
        ref = os.path.join(workdir, name + ".json")
        systems.save_system(system, ref)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["report", ref, "--format", fmt])
    assert code == 0, (name, fmt)
    return buf.getvalue()


GOLDEN = golden_systems()


@pytest.mark.parametrize("name,system", GOLDEN, ids=[n for (n, _) in GOLDEN])
def test_report_matches_golden_snapshot(tmp_path, name, system):
    for (fmt, ext) in FORMATS:
        with open(os.path.join(GOLDEN_DIR, name + ext), encoding="utf-8",
                  newline="") as fh:
            expected = fh.read()
        assert report_bytes(name, system, fmt, str(tmp_path)) == expected


def record(workdir):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for (name, system) in GOLDEN:
        for (fmt, ext) in FORMATS:
            out = report_bytes(name, system, fmt, workdir)
            with open(os.path.join(GOLDEN_DIR, name + ext), "w",
                      encoding="utf-8", newline="") as fh:
                fh.write(out)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
    print("recorded %d snapshots in %s" % (2 * len(GOLDEN), GOLDEN_DIR),
          file=sys.stderr)
