"""End-to-end tests for the command line: exit codes, output shapes,
byte-for-byte determinism of reports, and DOT exports."""

import copy
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import selfsim
from selfsim import actions as act_mod
from selfsim import cli, germs, systems, twists
from selfsim import semigroup as sg
from selfsim.groupoids import ExplicitGroupoid, cyclic_group_table

from conftest import EXPLICIT_FIXTURES, TWO_FIBRE_BUNDLE, zn_rotation

FIXTURES = sorted(systems.fixture_names())


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def write_system(tmp_path, data, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def broken_restriction_system():
    """Loads fine but breaks the restriction source law (uv|_e at v, not w)."""
    return {
        "name": "broken",
        "graph": {
            "vertices": ["v", "w"],
            "edges": [
                {"name": "e", "src": "w", "rng": "v"},
                {"name": "f", "src": "w", "rng": "w"},
            ],
        },
        "groupoid": {
            "kind": "explicit",
            "elements": [
                {"name": "uv", "src": "v", "rng": "v"},
                {"name": "uw", "src": "w", "rng": "w"},
            ],
            "units": {"v": "uv", "w": "uw"},
            "mul": [["uv", "uv", "uv"], ["uw", "uw", "uw"]],
            "inv": {"uv": "uv", "uw": "uw"},
        },
        "action": {
            "edge_action": [["uv", "e", "e"], ["uw", "f", "f"]],
            "restriction": [["uv", "e", "uv"], ["uw", "f", "uw"]],
        },
    }


# ---------------------------------------------------------------------------
# Exit codes.


@pytest.mark.parametrize("name", FIXTURES)
def test_validate_accepts_every_bundled_system(capsys, name):
    code, data, _ = run_json(capsys, ["validate", name])
    assert code == 0
    assert data == {"system": name, "valid": True, "problems": []}


def test_validate_rejects_domain_invalid_file(capsys, tmp_path):
    path = write_system(tmp_path, broken_restriction_system())
    code, data, _ = run_json(capsys, ["validate", path])
    assert code == 1
    assert data["valid"] is False
    assert data["problems"]


def test_malformed_json_is_a_parse_failure(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "not valid UTF-8"),
    # a lone surrogate, which only the surrogatepass handler decodes
    (b'{"name": "\xed\xa0\x80"}', "not valid UTF-8"),
    # json.loads would take the BOM from bytes, never from text
    (b"\xef\xbb\xbf{}", "not valid JSON: Unexpected UTF-8 BOM"),
    (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to read"),
], ids=["not-utf-8", "surrogate", "bom", "deep"])
def test_unreadable_file_bytes_are_a_parse_failure(capsys, tmp_path, content,
                                                   message):
    path = tmp_path / "junk.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: " + message), err


def test_a_fixture_is_read_by_load_system(monkeypatch):
    read = []
    load = systems.load_system
    monkeypatch.setattr(systems, "load_system",
                        lambda path: read.append(path) or load(path))
    assert systems.load_fixture("two_edges").name == "two_edges"
    assert read == [os.path.join(os.path.dirname(systems.__file__),
                                 "fixtures", "two_edges.json")]
    with pytest.raises(systems.SystemLoadError, match="^cannot read "):
        systems.load_fixture("no_such_fixture")


def test_a_file_with_crlf_line_ends_loads_as_with_lf(capsys, tmp_path):
    text = json.dumps(broken_restriction_system(), indent=2)
    outputs = []
    for (name, newline) in (("lf.json", "\n"), ("crlf.json", "\r\n")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        outputs.append(run(capsys, ["validate", str(path)]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1


def test_a_deeply_nested_json_argument_is_a_usage_failure(capsys):
    code, out, err = run(capsys, ["semigroup", "four_loop_z2", "star",
                                  "[" * 20000 + "]" * 20000])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: argument 1")


@pytest.mark.parametrize("orders", [[1001], [708, 708]])
def test_cyclic_fibers_past_a_million_entries_are_refused(capsys, tmp_path,
                                                         monkeypatch, orders):
    """1001² and 2·708² are past 10⁶ table entries: the file is refused
    before any table is built."""
    def refuse(n, prefix=""):
        raise AssertionError("built a table of order %d" % n)

    monkeypatch.setattr(systems, "cyclic_group_table", refuse)
    vs = ["v%d" % k for k in range(len(orders))]
    path = write_system(tmp_path, {
        "graph": {"vertices": vs, "edges": []},
        "groupoid": {"kind": "bundle", "fibers": {
            v: {"cyclic": n, "prefix": v} for (v, n) in zip(vs, orders)}},
        "action": {"edge_action": [], "restriction": []}})
    code, out, err = run(capsys, ["validate", path])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "table entries" in err


def test_cyclic_fibers_up_to_a_million_entries_are_built(monkeypatch):
    built = []

    def record(n, prefix=""):
        built.append(n)
        return {"elements": [prefix + "0"], "unit": prefix + "0",
                "mul": {(prefix + "0", prefix + "0"): prefix + "0"}}

    monkeypatch.setattr(systems, "cyclic_group_table", record)
    for orders in ([1000], [600, 800]):
        vs = ["v%d" % k for k in range(len(orders))]
        systems.groupoid_from_json({"kind": "bundle", "fibers": {
            v: {"cyclic": n, "prefix": v} for (v, n) in zip(vs, orders)}}, vs)
    assert built == [1000, 600, 800]


def test_missing_section_is_a_parse_failure(capsys, tmp_path):
    path = write_system(tmp_path, {"name": "x", "graph": {"vertices": ["v"], "edges": []}})
    code, _, err = run(capsys, ["validate", path])
    assert code == 2
    assert "missing" in err


def test_unknown_system_name_is_a_parse_failure(capsys):
    code, _, err = run(capsys, ["report", "no_such_system"])
    assert code == 2
    assert "neither a file nor a bundled example" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "four_loop_z2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "four_loop_z2", "--bound", "1"],
    ["kernel", "two_edges", "--format", "text"],
    ["twist", "twisted_three_spoke", "verify", "--scope", "strict"],
    ["report", "two_edges", "--bound", "2"],
])
def test_a_flag_the_subcommand_ignores_is_a_usage_failure(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("value", ["-1", "two"])
def test_bad_bound_is_a_usage_failure(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["twist", "twisted_three_spoke", "verify", "--bound", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound" in captured.err and "non-negative" in captured.err


def test_zero_bound_is_accepted(capsys):
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "verify",
                                      "--bound", "0"])
    assert (code, data["ok"]) == (0, True)


@pytest.mark.parametrize("bound", ["5", "1000000"])
def test_a_verify_bound_past_the_cap_is_a_usage_failure(capsys, monkeypatch,
                                                       bound):
    """four_loop_z2 has 3,726,450 triples at bound 5: refused at once,
    before the verifier builds any."""
    monkeypatch.setattr(twists, "verify_omega_cocycle", None)
    code, out, err = run(capsys, ["twist", "four_loop_z2", "verify",
                                  "--bound", bound])
    assert (code, out) == (2, "")
    assert err == ("usage error: --bound %s asks for more than 250000 "
                   "triples; choose a smaller bound\n" % bound)


def test_the_default_verify_bound_is_under_the_cap():
    for name in ("four_loop_z2", "twisted_three_spoke"):
        action = systems.load_fixture(name).action
        assert sg.count_up_to(action, 3, systems.MAX_VERIFY_TRIPLES) \
            <= systems.MAX_VERIFY_TRIPLES


def test_bad_json_argument_is_a_usage_failure(capsys):
    code, _, err = run(capsys, ["semigroup", "four_loop_z2", "star", "{oops"])
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["semigroup", "four_loop_z2", "star", "[1]"],
    ["germ", "four_loop_z2", "classify", "{}"],
    ["semigroup", "four_loop_z2", "star", '{"alpha": [], "g": 0, "beta": []}'],
    ["semigroup", "four_loop_z2", "star", '{"alpha": [1], "g": "0", "beta": []}'],
    ["semigroup", "four_loop_z2", "conj", '{"alpha": [], "g": "0", "beta": []}',
     '{"edges": [["e"]]}'],
    ["germ", "four_loop_z2", "inverse", '{"alpha": [], "g": "0", "beta": []}'],
    ["germ", "four_loop_z2", "inverse",
     '{"alpha": [], "g": "0", "beta": [], "xi": 5}'],
    ["germ", "four_loop_z2", "xbar", '{"period": "e"}'],
    ["hum", "four_loop_z2", "5"],
    ["twist", "twisted_three_spoke", "omega", "[]", "{}"],
    # an edgeless path or point needs a base
    ["semigroup", "four_loop_z2", "conj", '{"alpha": [], "g": "0", "beta": []}',
     "[]"],
    ["twist", "twisted_three_spoke", "extend", '"1"', "[]"],
    ["twist", "twisted_three_spoke", "extend", '"1"', '{"edges": []}'],
    ["germ", "four_loop_z2", "xbar", "[]"],
    ["hum", "four_loop_z2", '{"prefix": [], "period": []}'],
])
def test_malformed_json_argument_is_a_usage_failure(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["semigroup", "four_loop_z2", "star", '{"zero": "false"}'],
    ["semigroup", "four_loop_z2", "star", '{"zero": [1]}'],
    ["semigroup", "four_loop_z2", "star", '{"zero": 1}'],
    ["semigroup", "four_loop_z2", "star", '{"zero": null}'],
    ["semigroup", "four_loop_z2", "star", '{"zero": true, "alpha": 3}'],
    ["semigroup", "four_loop_z2", "star", '{"zero": false}'],
    ["germ", "four_loop_z2", "classify",
     '{"zero": "false", "xi": {"prefix": [], "period": ["e"]}}'],
])
def test_zero_is_json_true_or_false(capsys, argv):
    """"zero" true is zero and takes no triple keys; false, like no "zero",
    asks for a triple; any other value is a usage failure."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: "), err


def test_zero_true_and_false_are_read(capsys):
    triple = '{"alpha": ["a"], "g": "1", "beta": ["b"]}'
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "star",
                                      '{"zero": true}'])
    assert (code, data) == (0, {"zero": True})
    expected = run_json(capsys, ["semigroup", "four_loop_z2", "star", triple])
    assert expected[0] == 0
    assert run_json(capsys, ["semigroup", "four_loop_z2", "star",
                             triple[:-1] + ', "zero": false}']) == expected


def test_commands_dispatch_by_name_through_one_parser(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_nucleus", lambda args: calls.append(args) or 0)
    assert cli.main(["nucleus", "four_loop_z2"]) == 0
    assert cli.main(["nucleus", "two_edges"]) == 0
    assert [a.system for a in calls] == ["four_loop_z2", "two_edges"]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "SYSTEM", "mul", "{oops", "{}"],
     "argument 1 is not valid JSON"),
    (["hum", "SYSTEM", "[not json"], "POINT is not valid JSON"),
    (["twist", "SYSTEM", "verify", "extra"], "argument 1 is not valid JSON"),
    (["twist", "SYSTEM", "verify", "1"], "expected 0 argument(s)"),
    (["export-dot", "SYSTEM", "--what", "bogus"],
     "--what must be graph, restriction, or fixing:<g>"),
], ids=["semigroup", "hum", "twist", "twist-count", "export-dot"])
@pytest.mark.parametrize("system", ["nosuch.json", "file"])
def test_arguments_are_checked_before_the_system_file(
        capsys, monkeypatch, tmp_path, argv, message, system):
    """A malformed argument, a wrong argument count or a bad --what exits 2
    without reading the file: a missing file is not reported, and an
    existing one is never opened."""
    def refuse(path):
        raise AssertionError("read %s" % path)

    monkeypatch.setattr(systems, "load_system", refuse)
    if system == "file":
        system = write_system(tmp_path, broken_restriction_system())
    code, out, err = run(capsys, [system if a == "SYSTEM" else a
                                  for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: " + message), err


def test_a_valid_argument_against_a_missing_file_is_a_parse_failure(capsys):
    code, out, err = run(capsys, ["semigroup", "nosuch.json", "mul",
                                  '{"zero": true}', '{"zero": true}'])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 'nosuch.json' is neither a file nor "
                          "a bundled example"), err


def test_wrong_arity_is_a_usage_failure(capsys):
    code, _, err = run(capsys, ["semigroup", "four_loop_z2", "mul",
                                '{"alpha": [], "g": "0", "beta": []}'])
    assert code == 2
    assert "expected 2 argument(s)" in err


@pytest.mark.parametrize("argv", [
    ["twist", "twisted_three_spoke", "validate", "1"],
    ["twist", "twisted_three_spoke", "verify", "1", "2", "--bound", "1"],
])
def test_an_argument_twist_validate_or_verify_ignores_is_a_usage_failure(
        capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "expected 0 argument(s): twist %s" % argv[2] in err


def test_arithmetic_calls_the_library_through_its_module(capsys, monkeypatch):
    """The ops look the library up when they run, so a function patched
    on its module (as a tracer does) is the one called."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(germs, "classify", counting("classify", germs.classify))
    monkeypatch.setattr(sg, "mul", counting("mul", sg.mul))
    ab = '{"alpha": ["a"], "g": "1", "beta": ["b"]}'
    germ = '{"alpha": ["a"], "g": "1", "beta": ["b"], "xi": {"prefix": [], "period": ["e"]}}'
    assert run(capsys, ["germ", "four_loop_z2", "classify", germ])[0] == 0
    assert run(capsys, ["semigroup", "four_loop_z2", "mul", ab, ab])[0] == 0
    assert calls == ["classify", "mul"]


def test_conj_reads_its_arguments_left_to_right(capsys):
    """T is read before P: an unknown element in T is reported before a
    malformed path in P."""
    code, out, err = run(capsys, ["semigroup", "four_loop_z2", "conj",
                                  '{"alpha": [], "g": "zz", "beta": []}',
                                  '[["e"]]'])
    assert (code, out) == (1, "")
    assert "unknown element 'zz'" in err


def test_in_core_on_a_behavioral_model_is_a_domain_failure(capsys):
    # no state is known to be an element, so no answer is sound: refuse
    code, out, err = run(capsys, [
        "germ", "not_exel_pardo", "in-core",
        '{"alpha": ["e"], "g": "g", "beta": ["f"], '
        '"xi": {"prefix": [], "period": ["e"]}}'])
    assert (code, out) == (1, "")
    assert "behavioral" in err


def test_unknown_element_is_a_domain_failure(capsys):
    code, _, err = run(capsys, ["semigroup", "four_loop_z2", "star",
                                '{"alpha": [], "g": "zz", "beta": []}'])
    assert code == 1
    assert "error" in err


def _fixture_with(name, field, value):
    """The bundled system's JSON with the value at field (a key path)
    replaced."""
    data = systems.system_to_json(systems.load_fixture(name))
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    return data


@pytest.mark.parametrize("name, field, value", [
    ("four_loop_z2", ("notes",), 5),
    ("twisted_three_spoke", ("twist",), [1]),
    ("two_edges", ("groupoid", "flags"), [1]),
    ("four_loop_z2", ("graph", "edges", 0, "name"), 7),
    # a phase in a file is a "p/q" string; a boolean never reaches phase()
    ("twisted_three_spoke", ("twist", "sigma_bowtie", 0, 2), True),
], ids=["notes", "twist", "flags", "edge-name", "bool-phase"])
def test_malformed_system_file_is_a_parse_failure(capsys, tmp_path, name,
                                                  field, value):
    path = write_system(tmp_path, _fixture_with(name, field, value))
    for cmd in ("validate", "report"):
        code, out, err = run(capsys, [cmd, path])
        assert code == 2
        assert out == "" and err.startswith("parse error:")


def test_unknown_restriction_is_a_domain_failure(capsys, tmp_path):
    # commands that read the restriction digraph without validating first
    path = write_system(tmp_path, _fixture_with(
        "four_loop_z2", ("action", "restriction", 0, 2), "zz"))
    for argv in (["nucleus", path], ["kernel", path],
                 ["export-dot", path, "--what", "restriction"]):
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "" and "'zz'" in err


def _element(doc, name):
    return next(g for g in doc["groupoid"]["elements"] if g["name"] == name)


# (an edit of four_loop_z2, the error line of kernel, nucleus and
# export-dot --what restriction, which read the tables without validating)
DIGRAPH_REFUSALS = {
    "missing-restriction": (
        lambda doc: doc["action"]["restriction"].pop(0),
        "error: restriction missing for ('0', 'a')"),
    "restriction-not-an-element": (
        lambda doc: doc["action"]["restriction"][0].__setitem__(2, "zz"),
        "error: restriction ('0')|_'a' = 'zz' is not an element"),
    "missing-edge-action": (
        lambda doc: doc["action"]["edge_action"].pop(0),
        "error: edge action missing for ('0', 'a')"),
    "source-not-a-vertex": (
        lambda doc: _element(doc, "1").update(src="zz"),
        "error: unknown vertex 'zz'"),
    # the restriction is judged before the edge action of its pair
    "two-faults-at-one-pair": (
        lambda doc: (doc["action"]["restriction"][0].__setitem__(2, "zz"),
                     doc["action"]["edge_action"].pop(0)),
        "error: restriction ('0')|_'a' = 'zz' is not an element"),
}


@pytest.mark.parametrize("argv", [["kernel"], ["nucleus"],
                                  ["export-dot", "--what", "restriction"]],
                         ids=["kernel", "nucleus", "export-dot"])
@pytest.mark.parametrize("edit, line", DIGRAPH_REFUSALS.values(),
                         ids=list(DIGRAPH_REFUSALS))
def test_the_restriction_digraph_refuses_tables_never_validated(
        capsys, tmp_path, argv, edit, line):
    doc = _document("four_loop_z2")
    edit(doc)
    path = write_system(tmp_path, doc)
    got = run(capsys, argv[:1] + [path] + argv[1:])
    assert got == (1, "", line + "\n")


def test_kernel_refuses_an_element_whose_range_is_not_a_vertex(capsys,
                                                               tmp_path):
    """The digraph reads only sources; the tight kernel reads ranges too,
    so kernel refuses there, while nucleus never reads a range."""
    doc = _document("four_loop_z2")
    _element(doc, "1").update(rng="zz")
    path = write_system(tmp_path, doc)
    assert run(capsys, ["kernel", path]) == (
        1, "", "error: unknown vertex 'zz'\n")


def _document(name):
    """A fresh document of two_fibre_bundle, or of a bundled system
    written as explicit tables."""
    if name == "two_fibre_bundle":
        return copy.deepcopy(TWO_FIBRE_BUNDLE)
    return systems.system_to_json(systems.load_fixture(name))


def _edited(name, edit):
    """A maker of SYSTEM: _document(name) changed by edit, then saved."""
    def make(tmp_path):
        doc = _document(name)
        edit(doc)
        return write_system(tmp_path, doc)
    return make


def _bundled(name):
    return lambda tmp_path: name


# the triple (v, 1, v) of four_loop_z2
_ONE = '{"alpha": [], "g": "1", "beta": []}'


def _zz_edge_phase(doc):
    doc["twist"]["sigma_bowtie"].append(["1", "zz", "1/2"])


# (SYSTEM maker, argv with SYSTEM in place, exit code, the start of a line
# of the output)
REFUSALS = {
    "cyclic-zero": (
        _edited("two_fibre_bundle",
                lambda doc: doc["groupoid"]["fibers"]["v"].update(cyclic=0)),
        ["validate", "SYSTEM"], 2,
        "parse error: bad groupoid section: 'cyclic' must be a positive "
        "integer"),
    "unknown-kind": (
        _edited("four_loop_z2", lambda doc: doc["groupoid"].update(kind="nope")),
        ["validate", "SYSTEM"], 2,
        "parse error: bad groupoid section: unknown groupoid kind 'nope'"),
    "twist-edge-validate": (
        _edited("twisted_three_spoke", _zz_edge_phase),
        ["validate", "SYSTEM"], 1, '    "twist: unknown edge \'zz\'"'),
    "twist-edge-extend": (
        _edited("twisted_three_spoke", _zz_edge_phase),
        ["twist", "SYSTEM", "extend", '"1"', '["e"]'], 1,
        "invalid: twist: unknown edge 'zz'"),
    # a malformed argument is refused before the file is read, so it wins
    # over a twist that could not be built
    "twist-edge-malformed-argument": (
        _edited("twisted_three_spoke", _zz_edge_phase),
        ["twist", "SYSTEM", "extend", '"1"', '{nope'], 2,
        "usage error: argument 2 is not valid JSON"),
    "directory": (
        str, ["validate", "SYSTEM"], 2, "parse error: cannot read "),
    "zero-degree": (
        _bundled("four_loop_z2"),
        ["semigroup", "SYSTEM", "length", '{"zero": true}'], 1,
        "error: zero has no degree"),
    "beta-leg": (
        _bundled("twisted_three_spoke"),
        ["semigroup", "SYSTEM", "star",
         '{"alpha": [], "g": "0", "beta": ["e1"]}'], 1,
        "error: src(beta)='w1' is not src('0')"),
    "open-period": (
        _bundled("twisted_three_spoke"),
        ["hum", "SYSTEM", '{"prefix": [], "period": ["e1"]}'], 1,
        "error: period e1 is not a closed word"),
    "missing-restriction": (
        _edited("four_loop_z2", lambda doc: doc["action"]["restriction"].pop(0)),
        ["kernel", "SYSTEM"], 1, "error: restriction missing for ('0', 'a')"),
    # a twist that could not be built is refused before the arguments are
    # read, so it wins over a path of the wrong shape
    "twist-edge-bad-path": (
        _edited("twisted_three_spoke", _zz_edge_phase),
        ["twist", "SYSTEM", "extend", '"1"', "[]"], 1,
        "invalid: twist: unknown edge 'zz'"),
    "twist-group-not-composable": (
        _edited("twisted_three_spoke",
                lambda doc: doc["twist"]["sigma_G"].append(["0", "u1", "1/2"])),
        ["validate", "SYSTEM"], 1,
        '    "twist: group entry (\'0\', \'u1\') is not composable"'),
    "nucleus-sources": (
        _bundled("twisted_three_spoke"), ["nucleus", "SYSTEM"], 1,
        "error: nucleus needs a graph without sources; 'w1' is one"),
    "nucleus-behavioral": (
        _bundled("not_exel_pardo"), ["nucleus", "SYSTEM"], 1,
        "error: the nucleus concerns the full element set"),
    # semigroup skips validate: the one-step guards of the groupoid and the
    # action are the only checks its tables get
    "missing-product": (
        _edited("four_loop_z2",
                lambda doc: doc["groupoid"]["mul"].remove(["1", "1", "0"])),
        ["semigroup", "SYSTEM", "mul", _ONE, _ONE], 1,
        "error: product ('1', '1') missing from table"),
    "missing-inverse": (
        _edited("four_loop_z2", lambda doc: doc["groupoid"]["inv"].pop("1")),
        ["semigroup", "SYSTEM", "star", _ONE], 1,
        "error: inverse of '1' missing from table"),
    "missing-unit": (
        _edited("four_loop_z2", lambda doc: doc["groupoid"]["units"].clear()),
        ["semigroup", "SYSTEM", "conj", _ONE, '["a"]'], 1,
        "error: no unit at vertex 'v'"),
    "missing-restriction-one-step": (
        _edited("four_loop_z2",
                lambda doc: doc["action"]["restriction"].remove(["1", "a", "0"])),
        ["semigroup", "SYSTEM", "conj", _ONE, '["a"]'], 1,
        "error: restriction missing for ('1', 'a')"),
}


@pytest.mark.parametrize("make, argv, code, line", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_each_refusal_ends_in_its_exit_code(capsys, tmp_path, make, argv,
                                            code, line):
    """Refusals of the readers and of the one-step calculus, each reached
    from the command line."""
    system = make(tmp_path)     # str: the directory tmp_path itself
    got, out, err = run(capsys, [system if a == "SYSTEM" else a
                                 for a in argv])
    assert got == code
    assert any(s.startswith(line) for s in (out + err).splitlines()), err


def one_loop_bundle(fiber, names):
    """One vertex, one loop e, one fibre with these element names, the
    first the unit; every element fixes e and restricts to the unit."""
    return {
        "graph": {"vertices": ["v"],
                  "edges": [{"name": "e", "src": "v", "rng": "v"}]},
        "groupoid": {"kind": "bundle", "fibers": {"v": fiber}},
        "action": {"edge_action": [[g, "e", "e"] for g in names],
                   "restriction": [[g, "e", names[0]] for g in names]},
    }


def test_bundle_fibre_that_is_not_a_group_is_a_domain_failure(capsys,
                                                                 tmp_path):
    monoid = {"elements": ["a", "b"], "unit": "a",
              "mul": [["a", "a", "a"], ["a", "b", "b"], ["b", "a", "b"],
                      ["b", "b", "b"]]}
    path = write_system(tmp_path, one_loop_bundle(monoid, ["a", "b"]))
    code, data, _ = run_json(capsys, ["validate", path])
    assert code == 1
    assert data["problems"] == ["groupoid: missing or unknown inverse for 'b'"]


def test_bundle_groups_are_checked_only_by_validate(capsys, tmp_path,
                                                    monkeypatch):
    def refuse(self):
        raise AssertionError("group laws checked outside validate")

    monkeypatch.setattr(ExplicitGroupoid, "validate", refuse)
    path = write_system(tmp_path, one_loop_bundle(
        {"cyclic": 100, "prefix": "c"}, ["c%d" % k for k in range(100)]))
    code, data, _ = run_json(capsys, [
        "semigroup", path, "length",
        '{"alpha": ["e"], "g": "c1", "beta": ["e", "e"]}'])
    assert (code, data) == (0, {"length": -1})


Z2_ROWS = [["a", "a", "a"], ["a", "b", "b"], ["b", "a", "b"], ["b", "b", "a"]]


@pytest.mark.parametrize("rows, problem", [
    (Z2_ROWS[:3], "groupoid: missing product ('b', 'b')"),
    (Z2_ROWS + [["a", "zz", "b"]],
     "groupoid: product ('a', 'zz') should not exist"),
], ids=["missing", "extra"])
def test_a_fibre_table_is_judged_by_validate(capsys, tmp_path, rows, problem):
    fibre = {"elements": ["a", "b"], "unit": "a", "mul": rows}
    path = write_system(tmp_path, one_loop_bundle(fibre, ["a", "b"]))
    code, data, err = run_json(capsys, ["validate", path])
    assert (code, data["problems"], err) == (1, [problem], "")


REPEATS = [
    # at: the index of the extra record (None: appended).  An extra first
    # record is the one a dict of the records would drop.
    ("twisted_three_spoke", ("groupoid", "elements"), 0,
     {"name": "0", "src": "v1", "rng": "v1"}, "elements", "0"),
    ("twisted_three_spoke", ("groupoid", "elements"), None,
     {"name": "0", "src": "v1", "rng": "v1"}, "elements", "0"),
    ("two_edges", ("groupoid", "states"), None,
     {"name": "0u", "src": "u", "rng": "u", "is_unit": True}, "states", "0u"),
    ("two_fibre_bundle", ("groupoid", "fibers", "w", "elements"), None,
     "c1", "elements", "c1"),
]


@pytest.mark.parametrize("name, table, at, record, section, repeated",
                         REPEATS, ids=["first", "last", "state", "fibres"])
def test_a_name_listed_twice_is_a_parse_failure(capsys, tmp_path, name, table,
                                                at, record, section, repeated):
    doc, rows = _rows_of(name, table)
    rows.insert(len(rows) if at is None else at, record)
    code, out, err = run(capsys, ["validate", write_system(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == ("parse error: bad groupoid section: %r lists the name %r "
                   "twice\n" % (section, repeated))


@pytest.mark.parametrize("fibre, row", [
    ("v", ["t", "t", "t"]),      # a wrong product of w, in v's table
    ("w", ["c1", "c1", "c0"]),   # a right product of v, in w's table
], ids=["earlier", "later"])
def test_a_key_listed_in_two_fibres_is_a_parse_failure(capsys, tmp_path,
                                                       fibre, row):
    doc = _table_fibres(TWO_FIBRE_BUNDLE)
    doc["groupoid"]["fibers"][fibre]["mul"].append(row)
    code, out, err = run(capsys, ["validate", write_system(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == ("parse error: bad groupoid section: two fibers' 'mul' "
                   "list the key %r\n" % (tuple(row[:2]),))


def test_a_fibre_off_the_graph_is_a_domain_failure(capsys, tmp_path):
    doc = copy.deepcopy(TWO_FIBRE_BUNDLE)
    doc["groupoid"]["fibers"]["x"] = {"cyclic": 1, "prefix": "x"}
    code, data, err = run_json(capsys, ["validate",
                                        write_system(tmp_path, doc)])
    assert (code, err) == (1, "")
    assert data["problems"] == ["groupoid: element 'x0' has unknown src 'x'",
                                "groupoid: element 'x0' has unknown rng 'x'"]


# Safety checks of validate and of the one-step calculus, each reached
# from a system file: a loop-free edge e from w to v, one unit per vertex.
def unit_spoke(kind="explicit"):
    units = [("uv", "v"), ("uw", "w")]
    if kind == "explicit":
        groupoid = {"kind": "explicit",
                    "elements": [{"name": u, "src": v, "rng": v}
                                 for (u, v) in units],
                    "units": {v: u for (u, v) in units},
                    "mul": [[u, u, u] for (u, _) in units],
                    "inv": {u: u for (u, _) in units}}
    else:
        groupoid = {"kind": "behavioral",
                    "states": [{"name": u, "src": v, "rng": v, "is_unit": True}
                               for (u, v) in units]}
    return {"graph": {"vertices": ["v", "w"],
                      "edges": [{"name": "e", "src": "w", "rng": "v"}]},
            "groupoid": groupoid,
            "action": {"edge_action": [["uv", "e", "e"]],
                       "restriction": [["uv", "e", "uw"]]}}


def _edge(name, src, rng):
    return {"name": name, "src": src, "rng": rng}


SAFETY_CASES = [
    ("explicit", ("graph", "edges"), _edge("f", "x", "v"),
     ["graph: edge 'f' has unknown src 'x'"]),
    ("explicit", ("graph", "edges"), _edge("f", "v", "x"),
     ["graph: edge 'f' has unknown rng 'x'"]),
    ("explicit", ("graph", "edges"), _edge("w", "v", "v"),
     ["graph: name 'w' used for both a vertex and an edge"]),
    ("explicit", ("groupoid", "elements"), _edge("a", "x", "v"),
     ["groupoid: element 'a' has unknown src 'x'"]),
    ("explicit", ("groupoid", "elements"), _edge("a", "v", "x"),
     ["groupoid: element 'a' has unknown rng 'x'"]),
    ("explicit", ("groupoid", "units", "w"), None,
     ["groupoid: no unit at vertex 'w'"]),
    ("explicit", ("groupoid", "units", "w"), "z",
     ["groupoid: unit 'z' at 'w' is not an element"]),
    ("explicit", ("groupoid", "units", "w"), "uv",
     ["groupoid: unit 'uv' at 'w' has src/rng elsewhere"]),
    ("behavioral", ("groupoid", "states"), _edge("s", "x", "v"),
     ["groupoid: state 's' has unknown src/rng"]),
    ("behavioral", ("groupoid", "states"), dict(_edge("s", "w", "v"),
                                                is_unit=True),
     ["groupoid: unit state 's' has src != rng",
      "groupoid: several unit states at vertex 'w'"]),
]


@pytest.mark.parametrize("kind, field, value, problems", SAFETY_CASES,
                         ids=[c[3][0].split(": ", 1)[1] for c in SAFETY_CASES])
def test_validate_reports_each_structural_problem(capsys, tmp_path, kind,
                                                  field, value, problems):
    """A value appended to a list, set at a key, or (None) a key removed."""
    doc = unit_spoke(kind)
    assert systems.validate_system(systems.system_from_json(doc)) == []
    node = doc
    for key in field[:-1]:
        node = node[key]
    if isinstance(node[field[-1]], list):
        node[field[-1]].append(value)
    elif value is None:
        del node[field[-1]]
    else:
        node[field[-1]] = value
    code, data, err = run_json(capsys, ["validate", write_system(tmp_path, doc)])
    assert (code, data["problems"], err) == (1, problems, "")


GRAPH_REPEATS = [
    ({"vertices": ["v"]}, "vertices", "v"),
    ({"edges": [_edge("e", "w", "v")]}, "edges", "e"),
    # both at once: the vertices are read first
    ({"vertices": ["v"], "edges": [_edge("e", "w", "v")]}, "vertices", "v"),
]


@pytest.mark.parametrize("cmd", ["validate", "report", "kernel", "nucleus",
                                 "export-dot"])
@pytest.mark.parametrize("extra, section, repeated", GRAPH_REPEATS,
                         ids=["vertex", "edge", "both"])
def test_a_graph_name_listed_twice_is_a_parse_failure(capsys, tmp_path, cmd,
                                                      extra, section,
                                                      repeated):
    """The graph refuses a repeated name when it is built, so the commands
    that skip validate refuse it too, where a dict of the records would
    keep the last one."""
    doc = unit_spoke()
    for (field, values) in extra.items():
        doc["graph"][field].extend(values)
    code, out, err = run(capsys, [cmd, write_system(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == ("parse error: bad graph section: %r lists the name %r "
                   "twice\n" % (section, repeated))


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "conj", '{"alpha": [], "g": "uv", "beta": []}', '["e", "f"]'],
     "element 'uv' cannot act on edge 'f'"),
    (["germ", "inverse", '{"alpha": [], "g": "uv", "beta": [], '
      '"xi": {"prefix": ["e"], "period": ["f"]}}'],
     "element 'uv' cannot restrict along edge 'f'"),
], ids=["act", "restrict"])
def test_a_restriction_at_the_wrong_vertex_cannot_act(capsys, tmp_path, argv,
                                                      message):
    """uv|_e = uv sits at v, not at src(e) = w, so it meets an edge f at w
    that it cannot act on or restrict along."""
    path = write_system(tmp_path, broken_restriction_system())
    code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_a_counterexample_the_model_cannot_vouch_for_is_refused(capsys,
                                                                tmp_path):
    """A non-unit state s fixes every path, but without unit_reflecting
    the model cannot say that s is not a unit: Faithful is refused."""
    doc = {"graph": {"vertices": ["v"], "edges": [_edge("e", "v", "v")]},
           "groupoid": {"kind": "behavioral", "states": [
               dict(_edge("u", "v", "v"), is_unit=True), _edge("s", "v", "v")]},
           "action": {"edge_action": [["u", "e", "e"], ["s", "e", "e"]],
                      "restriction": [["u", "e", "u"], ["s", "e", "s"]]}}
    path = write_system(tmp_path, doc)
    code, data, _ = run_json(capsys, ["kernel", path])
    assert (code, data["kernel"]) == (0, ["s", "u"])
    assert data["Faithful"]["status"] == "RequiresExplicit"
    doc["groupoid"]["flags"] = {"unit_reflecting": True}
    code, data, _ = run_json(capsys, ["kernel", write_system(tmp_path, doc)])
    assert data["Faithful"] == {"status": "Fails", "witness": {"element": "s"},
                                "scope": "a non-unit fixes every path at its "
                                         "source"}


def _table_fibres(doc):
    """doc with each "cyclic" fibre written out as its table."""
    doc = copy.deepcopy(doc)
    fibers = doc["groupoid"]["fibers"]
    for (v, fib) in fibers.items():
        if "cyclic" in fib:
            t = cyclic_group_table(fib["cyclic"], fib["prefix"])
            fibers[v] = {"elements": t["elements"], "unit": t["unit"],
                         "mul": [[a, b, c] for (a, row) in t["mul"].items()
                                 for (b, c) in row.items()]}
    return doc


def _as_explicit(doc):
    """A bundle document of table fibres written as an explicit groupoid:
    the same elements, units and product rows, and as the inverse of a the
    first b, in its fibre's row order, with ab the fibre's unit."""
    elements, units, mul, inv = [], {}, [], {}
    for (v, fib) in doc["groupoid"]["fibers"].items():
        elements += [{"name": a, "src": v, "rng": v} for a in fib["elements"]]
        units[v] = fib["unit"]
        mul += fib["mul"]
        first = {}
        for (a, b, ab) in fib["mul"]:
            if ab == fib["unit"]:
                first.setdefault(a, b)
        inv.update(first)
    return dict(doc, groupoid={"kind": "explicit", "elements": elements,
                               "units": units, "mul": mul, "inv": inv})


def _fibre_corruptions(doc):
    """doc with its fibres written as tables, and one fibre entry changed
    to each other name or "zz", deleted, or added with a key that names
    "zz" or an element of another fibre."""
    doc = _table_fibres(doc)
    fibers = doc["groupoid"]["fibers"]
    names = sorted(a for fib in fibers.values() for a in fib["elements"])
    for (v, fib) in fibers.items():
        rows, a = fib["mul"], fib["elements"][-1]
        edits = [(k, None) for k in range(len(rows))]
        edits += [(k, [x, y, value]) for (k, (x, y, z)) in enumerate(rows)
                  for value in names + ["zz"] if value != z]
        edits += [(len(rows), [a, b, a]) for b in names + ["zz"]
                  if b not in fib["elements"]]
        edits += [(len(rows), ["zz", a, a])]
        for (k, row) in edits:
            bad = copy.deepcopy(doc)
            bad_rows = bad["groupoid"]["fibers"][v]["mul"]
            bad_rows[k:k + 1] = [] if row is None else [row]
            yield (v, k, row), bad


@pytest.mark.parametrize("doc", [
    TWO_FIBRE_BUNDLE,
    one_loop_bundle({"cyclic": 3, "prefix": "c"}, ["c0", "c1", "c2"]),
], ids=["two-fibre", "cyclic-3"])
def test_a_corrupt_fibre_gets_the_problems_of_its_explicit_form(doc):
    for (where, bad) in _fibre_corruptions(doc):
        bundle = systems.validate_system(systems.system_from_json(bad))
        explicit = systems.validate_system(
            systems.system_from_json(_as_explicit(bad)))
        assert bundle == explicit != [], where


# Every table of name triples, in a document that has a row in it.
TABLES = [("four_loop_z2", ("groupoid", "mul")),
          ("two_fibre_bundle", ("groupoid", "fibers", "w", "mul")),
          ("four_loop_z2", ("action", "edge_action")),
          ("four_loop_z2", ("action", "restriction")),
          ("twisted_three_spoke", ("twist", "sigma_G")),
          ("twisted_three_spoke", ("twist", "sigma_bowtie"))]
TABLE_IDS = ["mul", "fibre-mul", "edge_action", "restriction", "sigma_G",
             "sigma_bowtie"]


def _rows_of(name, table):
    """A document and the rows of one of its tables, which stay those of
    the document.  The empty sigma_G gets one row."""
    doc = _document(name)
    node = doc
    for key in table[:-1]:
        node = node[key]
    rows = node[table[-1]]
    if not rows:
        rows.append(["1", "1", "1/2"])
    return doc, rows


@pytest.mark.parametrize("name, table", TABLES, ids=TABLE_IDS)
def test_a_table_that_lists_a_key_twice_is_a_parse_failure(capsys, tmp_path,
                                                          name, table):
    """The refusal names the first key, in listing order, that is listed
    twice: the first row's key A, whether the table lists A ... A or
    A, B, ..., B, A, where B's repeat is met first."""
    for between in ([], [["zz", "zz"]]):
        doc, rows = _rows_of(name, table)
        (a, b, value) = rows[0]
        rows[1:1] = [key + [value] for key in between]
        rows += [key + [value] for key in between] + [[a, b, rows[-1][2]]]
        code, out, err = run(capsys, ["validate",
                                      write_system(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")
        assert repr(table[-1]) in err
        assert "lists the key %r twice" % ((a, b),) in err


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("name, table", TABLES, ids=TABLE_IDS)
def test_a_row_that_is_not_three_names_is_a_parse_failure(capsys, tmp_path,
                                                         name, table, length):
    doc, rows = _rows_of(name, table)
    rows[-1] = (rows[-1] + ["zz"])[:length]
    code, out, err = run(capsys, ["validate", write_system(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert repr(table[-1]) in err
    assert "must hold three names" in err


def test_report_refuses_invalid_systems(capsys, tmp_path):
    path = write_system(tmp_path, broken_restriction_system())
    code, out, err = run(capsys, ["report", path])
    assert code == 1
    assert out == ""
    assert "invalid:" in err


def _with_row(name, section, table, row, value):
    """The bundled system's JSON, written as explicit tables, with the
    value of the given table row replaced."""
    data = systems.system_to_json(systems.load_fixture(name))
    data[section][table][data[section][table].index(row)][2] = value
    return data


def test_twist_verify_refuses_an_invalid_action(capsys, tmp_path):
    # a non-associative action has no cocycle to verify
    path = write_system(tmp_path, _with_row(
        "four_loop_z2", "action", "edge_action", ["0", "a", "a"], "b"))
    code, out, err = run(capsys, ["twist", path, "verify", "--bound", "1"])
    assert code == 1
    assert out == "" and err.startswith("invalid:")


@pytest.mark.parametrize("section, table, row, value, problems", [
    # a hub element named as a restriction along a spoke
    ("action", "restriction", ["0", "e1", "u1"], "0",
     ["src(('0')|_'e1') should be src('e1')",
      "rng(('0')|_'e1') should be src of the image edge"]),
    # 1·1 = 1 at the hub: the groupoid's fault, not the twist's
    ("groupoid", "mul", ["1", "1", "0"], "1",
     ["groupoid: inverse of '1' is wrong"]),
])
def test_twist_validate_refuses_an_invalid_system(capsys, tmp_path, section,
                                                  table, row, value, problems):
    path = write_system(tmp_path, _with_row(
        "twisted_three_spoke", section, table, row, value))
    code, out, err = run(capsys, ["twist", path, "validate"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["invalid: " + p for p in problems]
    assert run(capsys, ["twist", path, "verify", "--bound", "1"]) == \
        (1, "", err)


def test_twist_validate_checks_the_twist_once(capsys, monkeypatch):
    calls = []
    real = twists.validate_twist

    def counting(twist):
        calls.append(twist)
        return real(twist)

    monkeypatch.setattr(twists, "validate_twist", counting)
    monkeypatch.setattr(systems, "validate_twist", counting)
    code, data, err = run_json(capsys, ["twist", "twisted_three_spoke",
                                        "validate"])
    assert (code, data, err) == (0, {"valid": True, "problems": []}, "")
    assert len(calls) == 1


def test_hum_refuses_products_outside_the_isotropy(capsys, tmp_path):
    path = write_system(tmp_path, _with_row(
        "twisted_three_spoke", "groupoid", "mul", ["1", "1", "0"], "zz"))
    code, out, err = run(capsys, ["hum", path,
                                  '{"prefix": [], "period": ["e"]}'])
    assert code == 1
    assert out == "" and "'zz'" in err


def _corrupted_tables(name):
    """Every entry of the edge-action, restriction and product tables of a
    bundled system (written as explicit tables), replaced once by the
    unknown name "zz" and once by another name of the same kind."""
    doc = systems.system_to_json(systems.load_fixture(name))
    edges = sorted(e["name"] for e in doc["graph"]["edges"])
    elements = sorted(g["name"] for g in doc["groupoid"]["elements"])
    for (section, table, names) in (("action", "edge_action", edges),
                                    ("action", "restriction", elements),
                                    ("groupoid", "mul", elements)):
        for row in doc[section][table]:
            other = next(n for n in names if n != row[2])
            for value in ("zz", other):
                yield (table, row, value), _with_row(name, section, table,
                                                     row, value)


def test_corrupted_table_entries_end_in_an_exit_code(capsys, tmp_path):
    for name in EXPLICIT_FIXTURES:
        graph = systems.load_fixture(name).graph
        loop = min(e.name for e in graph.edges if e.src == e.rng)
        point = json.dumps({"prefix": [], "period": [loop]})
        for (where, data) in _corrupted_tables(name):
            path = write_system(tmp_path, data)
            for argv in (["nucleus", path], ["kernel", path],
                         ["export-dot", path, "--what", "restriction"],
                         ["hum", path, point], ["germ", path, "xbar", point],
                         ["twist", path, "verify", "--bound", "1"]):
                code, _, _ = run(capsys, argv)
                assert code in (0, 1, 2), (name, where, argv)


# ---------------------------------------------------------------------------
# Reports.


@pytest.mark.parametrize("name", FIXTURES)
def test_reports_are_byte_identical_across_runs(capsys, name):
    first = run(capsys, ["report", name])
    second = run(capsys, ["report", name])
    assert first == second
    assert first[0] == 0
    text1 = run(capsys, ["report", name, "--format", "text"])
    text2 = run(capsys, ["report", name, "--format", "text"])
    assert text1 == text2


def test_report_json_shape(capsys):
    code, data, _ = run_json(capsys, ["report", "four_loop_z2"])
    assert code == 0
    assert data["system"] == "four_loop_z2"
    assert data["backend"] == "explicit"
    assert data["scope_mode"] == "model"
    assert set(data["conditions"]) >= {
        "Fin", "Evr", "Cyc", "Sla", "Rec", "Min", "Con",
        "PseudoFree", "Faithful", "TightlyFaithful", "Contracting"}
    assert set(data["derived"]) >= {
        "Hausdorff", "TopFreeTight", "EffectiveS", "SimpleEssential",
        "CartanTight"}
    for entry in data["conditions"].values():
        assert {"status", "citation", "scope", "witness"} <= set(entry)


def test_report_text_mentions_every_condition(capsys):
    code, out, _ = run(capsys, ["report", "four_loop_z2", "--format", "text"])
    assert code == 0
    for token in ("Fin", "Evr", "Cyc", "Sla", "Rec", "Min", "Con", "Hausdorff"):
        assert token in out


def test_report_scope_flag_changes_derived_verdicts(capsys):
    _, model, _ = run_json(capsys, ["report", "two_edges"])
    _, strict, _ = run_json(capsys, ["report", "two_edges", "--scope", "strict"])
    assert model["derived"]["TopFreeTight"]["status"] == "HoldsOnModel"
    assert strict["derived"]["TopFreeTight"]["status"] == "RequiresExplicit"
    assert strict["scope_mode"] == "strict"


# ---------------------------------------------------------------------------
# Arithmetic commands.


def test_semigroup_mul_star_leq_conj_length(capsys):
    ab = '{"alpha": ["a"], "g": "1", "beta": ["b"]}'
    ba = '{"alpha": ["b"], "g": "1", "beta": ["a"]}'
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "mul", ab, ba])
    assert (code, data) == (0, {"alpha": ["a"], "g": "0", "beta": ["a"]})
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "star", ab])
    assert (code, data) == (0, {"alpha": ["b"], "g": "1", "beta": ["a"]})
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "leq", ab, ab])
    assert (code, data) == (0, {"leq": True})
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "conj", ab, '["b"]'])
    assert code == 0
    assert data == {"alpha": ["a"], "g": "0", "beta": ["a"]}
    code, data, _ = run_json(capsys, ["semigroup", "four_loop_z2", "length", ab])
    assert (code, data) == (0, {"length": 0})


def test_germ_commands(capsys):
    g1 = '{"alpha": ["a"], "g": "1", "beta": ["b"], "xi": {"prefix": [], "period": ["e"]}}'
    gi = '{"alpha": ["b"], "g": "1", "beta": ["a"], "xi": {"prefix": [], "period": ["e"]}}'
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "eq", g1, g1])
    assert (code, data) == (0, {"equal": True})
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "compose", gi, g1])
    assert code == 0
    assert data == {"alpha": ["b"], "g": "0", "beta": ["b"],
                    "xi": {"base": "v", "prefix": [], "period": ["e"]}}
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "inverse", g1])
    assert code == 0
    assert data["alpha"] == ["b"]
    assert data["xi"] == {"base": "v", "prefix": [], "period": ["e"]}
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "classify", g1])
    assert code == 0
    assert data["kind"] == "moving"
    assert data["verified"] is True
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "in-core",
                                      '{"alpha": ["a"], "g": "1", "beta": ["b"],'
                                      ' "xi": {"prefix": [], "period": ["f"]}}'])
    assert (code, data) == (0, {"in_core": True})
    code, data, _ = run_json(capsys, ["germ", "four_loop_z2", "xbar",
                                      '{"prefix": [], "period": ["e"]}'])
    assert code == 0
    assert data["size"] == 2
    assert data["point"] == {"base": "v", "prefix": [], "period": ["e"]}
    assert len(data["germs"]) == 1
    assert data["germs"][0]["g"] == "1"


def test_twist_commands(capsys):
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "validate"])
    assert (code, data) == (0, {"valid": True, "problems": []})
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "extend",
                                      '"1"', '["e", "e", "em1"]'])
    assert (code, data) == (0, {"phase": "1/2"})
    s = '{"alpha": [], "g": "1", "beta": [], "base": "v"}'
    t = '{"alpha": ["em1"], "g": "um1", "beta": ["em1"]}'
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "omega", s, t])
    assert (code, data) == (0, {"phase": "1/2"})
    f_e = '{"alpha": ["e1"], "g": "u1", "beta": ["e1"]}'
    f_f = '{"alpha": ["em1"], "g": "um1", "beta": ["em1"]}'
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "omega", f_e, f_f])
    assert (code, data) == (0, {"zero": True})
    code, data, _ = run_json(capsys, ["twist", "twisted_three_spoke", "verify",
                                      "--bound", "2"])
    assert code == 0
    assert data["ok"] is True
    assert data["failures"] == []


def test_twist_commands_use_trivial_twist_when_absent(capsys):
    code, data, _ = run_json(capsys, ["twist", "four_loop_z2", "validate"])
    assert (code, data) == (0, {"valid": True, "problems": []})
    code, data, _ = run_json(capsys, ["twist", "four_loop_z2", "extend",
                                      '"1"', '["e", "a"]'])
    assert (code, data) == (0, {"phase": "0/1"})


def test_twist_validate_flags_incompatible_tables(capsys, tmp_path):
    data = json.loads(json.dumps(broken_restriction_system()))
    data["action"]["restriction"] = [["uv", "e", "uw"], ["uw", "f", "uw"]]
    data["name"] = "bad_twist"
    data["twist"] = {"sigma_G": [], "sigma_bowtie": [["uv", "e", "1/3"]]}
    path = write_system(tmp_path, data)
    code, out, _ = run_json(capsys, ["twist", path, "validate"])
    assert code == 1
    assert out["valid"] is False
    assert any("edge phase at the unit" in p for p in out["problems"])


def test_nucleus_command(capsys):
    code, data, _ = run_json(capsys, ["nucleus", "four_loop_z2"])
    assert (code, data) == (0, {"nucleus": ["0", "1"]})
    code, data, _ = run_json(capsys, ["nucleus", "entrance_free_loop"])
    assert (code, data) == (0, {"nucleus": ["uw"]})


def test_kernel_command(capsys):
    code, data, _ = run_json(capsys, ["kernel", "four_loop_z2"])
    assert code == 0
    assert data["kernel"] == ["0"]
    assert data["Faithful"]["status"] == "Holds"
    assert data["tight_kernel"] == ["0"]
    assert data["TightlyFaithful"]["status"] == "Holds"

    code, data, _ = run_json(capsys, ["kernel", "two_edges"])
    assert code == 0
    assert "gu" in data["kernel"]
    assert data["Faithful"]["status"] == "Fails"
    assert data["Faithful"]["witness"] == {"element": "gu"}
    assert "gu" in data["tight_kernel"]
    assert data["TightlyFaithful"]["status"] == "Fails"


def isotropy_at_two_vertices():
    """Z2 = {0v, 1v} at v and Z2 x Z2 = {0w, x, y, xy} at w, every element
    fixing every edge.  Along c (w -> v) 1v restricts to x, along the loop
    d at w each element to itself, and along c2 and d2 everything to a
    unit.  At c d^inf the singular classes are 1v at v and y, xy at w."""
    k4 = ["0w", "x", "y", "xy"]
    z2 = [["0v", "0v", "0v"], ["0v", "1v", "1v"], ["1v", "0v", "1v"],
          ["1v", "1v", "0v"]]
    edges = {"c": ("w", "v"), "c2": ("w", "v"), "d": ("w", "w"),
             "d2": ("w", "w")}
    restriction = [["0v", "c", "0w"], ["1v", "c", "x"], ["0v", "c2", "0w"],
                   ["1v", "c2", "0w"]]
    restriction += [[g, "d", g] for g in k4] + [[g, "d2", "0w"] for g in k4]
    return {
        "graph": {"vertices": ["v", "w"],
                  "edges": [{"name": e, "src": a, "rng": b}
                            for (e, (a, b)) in edges.items()]},
        "groupoid": {"kind": "bundle", "fibers": {
            "v": {"elements": ["0v", "1v"], "unit": "0v", "mul": z2},
            "w": {"elements": k4, "unit": "0w",
                  "mul": [[a, b, k4[k4.index(a) ^ k4.index(b)]]
                          for a in k4 for b in k4]}}},
        "action": {"edge_action": [[row[0], row[1], row[1]]
                                   for row in restriction],
                   "restriction": restriction},
    }


def test_hum_command(capsys, tmp_path):
    code, data, _ = run_json(capsys, ["hum", "four_loop_z2",
                                      '{"prefix": [], "period": ["e"]}'])
    assert code == 0
    assert data == {"result": False, "group": ["0", "1"],
                    "family": [["0", "1"]], "note": ""}
    code, data, _ = run_json(capsys, ["hum", "four_loop_z2",
                                      '{"prefix": [], "period": ["f"]}'])
    assert code == 0
    assert data["result"] is True
    assert data["family"] == []
    path = write_system(tmp_path, isotropy_at_two_vertices())
    assert run(capsys, ["validate", path])[0] == 0
    point = '{"prefix": ["c"], "period": ["d"]}'
    code, data, _ = run_json(capsys, ["germ", path, "xbar", point])
    assert [(g["g"], g["xi"]["base"]) for g in data["germs"]] == \
        [("1v", "v"), ("xy", "w"), ("y", "w")]
    assert run_json(capsys, ["hum", path, point]) == (0, {
        "result": None,
        "note": "germ components sit at several vertices; refusing to "
                "aggregate them into one group"}, "")


# ---------------------------------------------------------------------------
# DOT exports.


def test_export_dot_graph_matches_library(capsys):
    system = systems.load_fixture("four_loop_z2")
    code, out, _ = run(capsys, ["export-dot", "four_loop_z2"])
    assert code == 0
    assert out == system.graph.to_dot("four_loop_z2")
    assert out.startswith("digraph")


def test_export_dot_restriction_and_fixing(capsys):
    system = systems.load_fixture("four_loop_z2")
    code, out, _ = run(capsys, ["export-dot", "four_loop_z2",
                                "--what", "restriction"])
    assert code == 0
    assert out == act_mod.restriction_digraph_dot(system.action)
    code, out, _ = run(capsys, ["export-dot", "four_loop_z2",
                                "--what", "fixing:1"])
    assert code == 0
    assert out == act_mod.FixingAutomaton(system.action, "1").to_dot()


def test_export_dot_rejects_bad_targets(capsys):
    code, _, err = run(capsys, ["export-dot", "four_loop_z2",
                                "--what", "fixing:zz"])
    assert code == 1
    assert "unknown element" in err
    code, _, err = run(capsys, ["export-dot", "four_loop_z2",
                                "--what", "junk"])
    assert code == 2
    assert "usage error" in err


def read_dot(text):
    """(graph name, nodes, arrows) of a DOT digraph in the shape the
    exports print, with each quoted ID unescaped; AssertionError on any
    text that is not DOT of that shape, such as an unescaped quote."""
    tokens = []
    for m in re.finditer(r'\s+|"((?:[^"\\]|\\.)*)"|->|[][=;{}]|\w+|(.)', text):
        assert m.group(2) is None, "stray %r in DOT" % m.group(2)
        if m.group(1) is not None:
            tokens.append(("id", re.sub(r"\\(.)", r"\1", m.group(1))))
        elif not m.group().isspace():
            tokens.append(m.group())
    assert tokens[:3:2] == ["digraph", "{"] and tokens[-1] == "}", tokens
    name, nodes, arrows, rest = tokens[1][1], [], [], tokens[3:-1]
    while rest:
        end = rest.index(";")
        stmt, rest = rest[:end], rest[end + 1:]
        if stmt[1] == "->":
            assert stmt[3:6] == ["[", "label", "="] and stmt[7] == "]", stmt
            arrows.append((stmt[0][1], stmt[2][1], stmt[6][1]))
        else:
            assert stmt[1] == "[" and stmt[-1] == "]", stmt
            nodes.append(stmt[0][1])
    return name, nodes, arrows


def test_export_dot_quotes_every_name(capsys, tmp_path):
    # a space, quotes and backslashes, one of them just before a closing quote
    name, v, e, u, g = 'my "loop" \\', 'w"x\\', 'e \\"f', 'u\\1"', 'g "2"'
    path = write_system(tmp_path, {
        "name": name,
        "graph": {"vertices": [v], "edges": [{"name": e, "src": v, "rng": v}]},
        "groupoid": {"kind": "bundle", "fibers": {v: {
            "elements": [u, g], "unit": u,
            "mul": [[u, u, u], [u, g, g], [g, u, g], [g, g, u]]}}},
        "action": {"edge_action": [[u, e, e], [g, e, e]],
                   "restriction": [[u, e, u], [g, e, g]]}})
    assert run(capsys, ["validate", path])[0] == 0
    expected = {"graph": (name, [v], [(v, v, e)]),
                "restriction": ("restrictions", [g, u], [(g, g, e), (u, u, e)]),
                "fixing:" + g: ("fixing", [g], [(g, g, e)])}
    for (what, want) in expected.items():
        code, out, err = run(capsys, ["export-dot", path, "--what", what])
        assert (code, err) == (0, "")
        assert read_dot(out) == want, what


# ---------------------------------------------------------------------------
# Round trips and the installed entry point.


@pytest.mark.parametrize("name", FIXTURES)
def test_system_json_round_trip(capsys, tmp_path, name):
    system = systems.load_fixture(name)
    path = tmp_path / ("%s.json" % name)
    systems.save_system(system, str(path))
    again = systems.load_system(str(path))
    assert systems.system_to_json(again) == systems.system_to_json(system)
    code, data, _ = run_json(capsys, ["validate", str(path)])
    assert code == 0
    assert data["valid"] is True


def child_env():
    """The environment for python -m selfsim.cli in a child process that
    imports the package from where this one does, installed or not."""
    root = str(pathlib.Path(selfsim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "selfsim.cli",
                           "report", "four_loop_z2"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["system"] == "four_loop_z2"


def test_commands_run_under_dev_mode_without_a_warning(tmp_path):
    """Under -X dev -W error, reading a system file (which must close it),
    a full report and an argument refused before the read neither warn
    nor fail."""
    path = str(tmp_path / "zn_rotation_3.json")
    systems.save_system(systems.System("zn_rotation_3", zn_rotation(3)), path)
    for (argv, code) in ((["validate", path], 0),
                         (["report", "four_loop_z2"], 0),
                         (["semigroup", path, "mul", "{oops", "{}"], 2)):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                               "-m", "selfsim.cli"] + argv,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == code, (argv, proc.stderr)
        expected = "usage error: argument 1 is not valid JSON" if code else ""
        assert proc.stderr.startswith(expected), (argv, proc.stderr)
        assert proc.stderr.count("\n") == (1 if code else 0), proc.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_without_a_traceback(tmp_path, unbuffered):
    """The reader closes the pipe after one line of a DOT export of about
    200 kB, more than a pipe holds, so a later write of the child meets a
    closed pipe.  The child's stdout is buffered, as by default, or
    unbuffered (PYTHONUNBUFFERED=1), where a write that the pipe cuts
    short must still end in the error."""
    path = str(tmp_path / "zn_rotation_80.json")
    systems.save_system(systems.System("zn_rotation_80", zn_rotation(80)),
                        path)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "selfsim.cli",
                             "export-dot", path, "--what", "restriction"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline().startswith(b"digraph")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_write_hands_every_byte_to_the_buffer(monkeypatch):
    """A raw stream may take part of a write, or, non-blocking, nothing
    (None): _write keeps writing until every byte is taken, and fails
    rather than retry a stream that takes nothing."""
    class Raw(io.RawIOBase):
        def __init__(self, step):
            self.step, self.data = step, bytearray()

        def writable(self):
            return True

        def write(self, b):
            if self.step is None:
                return None
            self.data += bytes(b[:self.step])
            return min(self.step, len(b))

    raw = Raw(3)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8"))
    cli._write("σ·e = e\n" * 5)
    assert raw.data.decode("utf-8") == "σ·e = e\n" * 5
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(Raw(None), "utf-8"))
    with pytest.raises(BlockingIOError):
        cli._write("digraph {}\n")


def test_a_stdout_closed_from_the_start_ends_without_a_traceback():
    """A short report fits the buffer, so the pipe's closed end is met
    only when the buffer is flushed, before the interpreter exits."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.run([sys.executable, "-m", "selfsim.cli",
                           "report", "four_loop_z2"],
                          stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
