"""The benchmark's generators build their systems through the package's
public constructors, and its corruptions read the action's
restriction table by pair.  These tests build each generator's systems
and judge each corruption as the benchmark's harness does, so that a
broken constructor or table view fails here, in the test suite, before a
benchmark run fails.  perfbench/gen.py is loaded read-only, through
sys.path, as perfbench/tests/conftest.py loads it."""

import json
import os
import random
import sys

import pytest

from selfsim import cli, systems

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def gen():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    # no bytecode is written under perfbench/
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import gen as module
    finally:
        sys.dont_write_bytecode = writes
    return module


def _built(gen):
    return [gen.zn_rotation(4), gen.ring(3), gen.cyclic_bundle(2, 4, 2, 1, 1),
            gen.transformation(3, 9, 3, 1, 1), gen.twisted_spoke(1, 3, (1, 2)),
            gen.behavioral_chain(2, (True, True, True), True),
            gen.sampled(random.Random(0), "sample")]


def test_each_generator_builds_a_valid_system_that_round_trips(gen):
    for system in _built(gen):
        assert systems.validate_system(system) == [], system.name
        text = systems.json_text(systems.system_to_json(system))
        again = systems.system_from_json(json.loads(text))
        assert systems.json_text(systems.system_to_json(again)) == text


def test_each_corruption_is_found_as_the_harness_judges_it(gen, capsys,
                                                          tmp_path):
    """validate exits 1 with valid false, and its problems equal the
    expected list for an inverse corruption and contain it for the other
    kinds."""
    judged = 0
    for base in (gen.zn_rotation(6), gen.transformation(3, 9, 3, 1, 1)):
        for kind in gen.CORRUPTIONS:
            for seed in range(3):
                bad, expected = gen.corrupt(base, kind, random.Random(seed))
                path = str(tmp_path / ("%s_%d.json" % (kind, seed)))
                systems.save_system(bad, path)
                code = cli.main(["validate", path])
                data = json.loads(capsys.readouterr().out)
                assert (code, data["valid"]) == (1, False), bad.name
                problems = data["problems"]
                if kind == "inverse":
                    assert problems == expected, bad.name
                else:
                    assert set(expected) <= set(problems), bad.name
                judged += 1
    assert judged == 18
