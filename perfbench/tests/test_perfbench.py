"""Tests of the benchmark itself (not of selfsim):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import subprocess
import sys

import pytest

import gen
import harness
import tracing
import workloads
from selfsim import conditions, systems, twists

ROOT = harness.ROOT
RUN = os.path.join(harness.HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def plan_snapshot(plan):
    return ([[(op.cmd, op.system, op.rest, op.expect) for op in slot]
             for slot in plan.slots],
            {name: systems.system_to_json(s)
             for (name, s) in plan.systems.items()})


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_plans_are_deterministic_for_a_seed(name):
    make = workloads.PLANS[name]
    assert plan_snapshot(make(7)) == plan_snapshot(make(7))


def first_pass(name, seed):
    plan = workloads.PLANS[name](seed)
    loop = harness.Loop(None, plan, {}, {}, harness.loop_rng(seed))
    return [(op.cmd, op.system, op.rest) for op in loop.next_pass()]


@pytest.mark.parametrize("name", sorted(workloads.PLANS))
def test_seeds_change_the_operations(name):
    assert first_pass(name, 1) == first_pass(name, 1)
    assert first_pass(name, 1) != first_pass(name, 2)


def generated_valid_systems():
    rng = random.Random(3)
    out = [gen.zn_rotation(n) for n in (3, 5, 8)]
    out += [gen.ring(v) for v in (1, 2, 5)]
    out += [gen.cyclic_bundle(k, m, d, lam, t)
            for (k, m, d) in ((1, 4, 2), (3, 4, 2), (2, 6, 3))
            for lam in range(m) for t in (0, 1)]
    out += [gen.transformation(k, m, d, c, s)
            for (k, m, d) in ((2, 4, 2), (3, 6, 3), (4, 12, 4))
            for c in range(d) for s in range(2)]
    out += [gen.twisted_spoke(k, m, w)
            for (k, m, w) in ((1, 2, (0, 1)), (2, 3, (1, 0, 2)),
                              (3, 4, (1, 2, 3, 0)))]
    out += [gen.behavioral_chain(k, flags, recur)
            for k in (1, 4) for flags in workloads._flag_combos()
            for recur in (False, True)]
    out += [gen.sampled(rng, "s%d" % i) for i in range(20)]
    return out


def test_generated_systems_validate():
    for system in generated_valid_systems():
        assert systems.validate_system(system) == [], system.name


def test_generated_twists_are_valid():
    for (k, m) in ((1, 2), (2, 3), (3, 4)):
        for code in range(m ** (k + 1)):
            weights = tuple(code // m ** j % m for j in range(k + 1))
            system = gen.twisted_spoke(k, m, weights)
            assert twists.validate_twist(system.twist) == []


def test_twisted_three_spoke_is_a_member_of_the_spoke_family():
    ours = gen.twisted_spoke(2, 2, (0, 0, 1))
    fixture = systems.load_fixture("twisted_three_spoke")
    assert (twists.verify_omega_cocycle(ours.twist, 1)["checked"]
            == twists.verify_omega_cocycle(fixture.twist, 1)["checked"])


def test_rings_have_cyc_holds():
    for v in (1, 3, 6):
        report = conditions.run_report(gen.ring(v).action)
        assert report.base["Cyc"].status == "Holds"


@pytest.mark.parametrize("kind", gen.CORRUPTIONS)
def test_every_corruption_is_caught(kind):
    bases = [gen.zn_rotation(5), gen.zn_rotation(8),
             gen.transformation(4, 12, 4, 1, 1),
             gen.transformation(3, 9, 3, 1, 1),
             gen.cyclic_bundle(2, 4, 2, 1, 1)]
    for base in bases:
        for seed in range(8):
            bad, expected = gen.corrupt(base, kind, random.Random(seed))
            problems = systems.validate_system(bad)
            assert problems, (base.name, kind, seed)
            if kind == "inverse":
                assert problems == expected
            else:
                assert set(expected) <= set(problems)


def test_goldens_cover_every_reachable_operation():
    golden = harness.load_golden()
    for name in ("report", "query", "cocycle"):
        for op in workloads.PLANS[name](0).ops():
            assert op.key() in golden, (name, op.cmd, op.system, op.rest)


def test_malformed_arguments_that_raise_are_the_known_ones():
    golden = harness.load_golden()
    raised = {tuple(v[2].split()[1:]) for v in golden.values()
              if str(v[0]).startswith("raise:")}
    assert {(cmd, op) for (cmd, _, op) in raised} == {
        ("germ", "classify"), ("semigroup", "star")}


def test_tracer_restores_every_binding():
    import importlib
    mods = [importlib.import_module("selfsim")] + [
        importlib.import_module("selfsim." + m) for m in tracing.MODULES]

    def bindings():
        out = {}
        for mod in mods:
            for (name, obj) in vars(mod).items():
                out[(mod.__name__, name)] = obj
                for (attr, val) in vars(obj).items() if isinstance(
                        obj, type) else ():
                    out[(mod.__name__, name, attr)] = val
        return out

    before = bindings()
    checks = list(conditions.BASE_CHECKS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert conditions.BASE_CHECKS != checks
        report = conditions.run_report(gen.ring(3).action)
    finally:
        tracer.restore()
    assert report.base["Cyc"].status == "Holds"
    assert tracer.calls["conditions.Cyc"] == 1
    assert tracer.counts["graphs.paths_enumerated"] > 0
    assert conditions.BASE_CHECKS == checks
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_per_layer_metric_has_a_rule_and_a_target():
    with open(os.path.join(harness.HERE, "layers.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    names = [m["name"] for m in spec()["per_layer"]]
    assert sorted(layers) == sorted(names)
    tracer = tracing.Tracer()
    for name in names:
        if not name.startswith(("slope.", "trace.")):
            tracing.layer_metric(tracer, name, 1)


def test_clock_rescales_each_call_by_the_probes_around_it(monkeypatch):
    readings = iter([2.0, 4.0, 8.0])   # before, after call 1, after call 2
    monkeypatch.setattr(harness, "probe", lambda: next(readings))
    monkeypatch.setattr(harness, "REFERENCE_PROBE_S", 6.0)
    clock = harness.Clock()
    assert clock.call(lambda x: x + 1, 1) == 2
    assert clock.call(lambda: None) is None
    assert len(clock.wall) == len(clock.cpu) == 2
    assert clock.scaled[0] == pytest.approx(clock.cpu[0] * 6.0 / 3.0)
    assert clock.scaled[1] == pytest.approx(clock.cpu[1] * 6.0 / 6.0)


def test_tail_keeps_ten_samples_beyond_it():
    value, pct = harness.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_printed_metrics_match_the_declaration(workload):
    s = spec()
    for (trace, key) in ((0, "end_to_end"), (1, "per_layer")):
        result = run_benchmark(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        declared = {m["name"]: m["unit"] for m in s[key]}
        printed = {k: v["unit"] for (k, v) in result["metrics"].items()}
        assert printed == declared
