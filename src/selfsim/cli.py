"""Command-line front end: load a system file (or bundled example), run
validators and deciders, evaluate arithmetic, export DOT.

Exit codes: 0 success, 1 domain failure, 2 usage or parse failure.
"""

import argparse
import functools
import json
import os
import sys

from . import actions as act_mod
from . import conditions
from . import germs
from . import semigroup as sg
from . import systems
from . import twists
from .actions import ActionError, FixingAutomaton, point_from_json, point_to_json
from .germs import GermError
from .graphs import GraphError, UsageError, json_name, json_names
from .groupoids import GroupoidError, RequiresExplicitError
from .semigroup import SemigroupError
from .twists import TwistError

DOMAIN_ERRORS = (ActionError, GermError, GraphError, GroupoidError,
                 RequiresExplicitError, SemigroupError, TwistError)


def _load(ref):
    if os.path.exists(ref):
        return systems.load_system(ref)
    name = ref[:-5] if ref.endswith(".json") else ref
    if name in systems.fixture_names():
        return systems.load_fixture(name)
    raise systems.SystemLoadError(
        "%r is neither a file nor a bundled example (%s)"
        % (ref, ", ".join(systems.fixture_names())))


def _json_arg(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (what, exc))
    except RecursionError:
        raise UsageError("%s is JSON nested too deeply to read" % what)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _valid(problems):
    """Print each problem on stderr; True when there are none."""
    for p in problems:
        print("invalid: %s" % p, file=sys.stderr)
    return not problems


def _path_arg(action, data, what):
    """The one reader of a path argument: a non-empty array of edge names,
    or an object with an array "edges" and, if that is empty, a "base"."""
    if isinstance(data, list):
        data = {"edges": json_names(data, what)}
    if not isinstance(data, dict):
        raise UsageError("%s must be a JSON array of edges or an object" % what)
    base = data.get("base")
    if base is not None:
        json_name(base, "'base'")
    edges = json_names(data.get("edges", []), "'edges'")
    if base is None and not edges:
        raise UsageError("%s: an empty path needs a base "
                         "({\"base\": v, \"edges\": []})" % what)
    return action.graph.path(edges, base=base)


# -- commands ---------------------------------------------------------------


def cmd_validate(args):
    system = _load(args.system)
    problems = systems.validate_system(system)
    _emit({"system": system.name, "valid": not problems,
           "problems": problems})
    return 0 if not problems else 1


def cmd_report(args):
    system = _load(args.system)
    if not _valid(systems.validate_system(system)):
        return 1
    report = conditions.run_report(system.action, name=system.name,
                                   scope_mode=args.scope,
                                   notes=system.notes)
    if args.format == "text":
        sys.stdout.write(report.to_text())
    else:
        _emit(report.to_json())
    return 0


def cmd_semigroup(args):
    system = _load(args.system)
    action = system.action
    op = args.op
    parsed = [_json_arg(a, "argument %d" % (k + 1))
              for (k, a) in enumerate(args.args)]

    def triple(k):
        return sg.from_json(action, parsed[k])

    if op == "mul":
        _check_arity(parsed, 2, "semigroup mul S T")
        _emit(sg.to_json(sg.mul(action, triple(0), triple(1))))
    elif op == "star":
        _check_arity(parsed, 1, "semigroup star S")
        _emit(sg.to_json(sg.star(action, triple(0))))
    elif op == "leq":
        _check_arity(parsed, 2, "semigroup leq S T")
        _emit({"leq": sg.leq(action, triple(0), triple(1))})
    elif op == "conj":
        _check_arity(parsed, 2, "semigroup conj T P")
        p = _path_arg(action, parsed[1], "P")
        _emit(sg.to_json(sg.conj_idempotent(action, triple(0), p)))
    elif op == "length":
        _check_arity(parsed, 1, "semigroup length S")
        _emit({"length": sg.length_cocycle(triple(0))})
    return 0


def cmd_germ(args):
    system = _load(args.system)
    action = system.action
    op = args.op
    parsed = [_json_arg(a, "argument %d" % (k + 1))
              for (k, a) in enumerate(args.args)]

    def germ(k):
        return germs.from_json(action, parsed[k])

    if op == "eq":
        _check_arity(parsed, 2, "germ eq A B")
        _emit({"equal": germs.germ_eq(action, germ(0), germ(1))})
    elif op == "compose":
        _check_arity(parsed, 2, "germ compose A B")
        _emit(germs.to_json(germs.germ_mul(action, germ(0), germ(1))))
    elif op == "inverse":
        _check_arity(parsed, 1, "germ inverse A")
        _emit(germs.to_json(germs.germ_inv(action, germ(0))))
    elif op == "classify":
        _check_arity(parsed, 1, "germ classify A")
        _emit(germs.classify(action, germ(0)))
    elif op == "in-core":
        _check_arity(parsed, 1, "germ in-core A")
        _emit({"in_core": germs.in_core(action, germ(0))})
    elif op == "xbar":
        _check_arity(parsed, 1, "germ xbar X")
        x = point_from_json(action.graph, parsed[0])
        data = germs.xbar(action, x)
        _emit({"point": point_to_json(data["point"]),
               "size": data["size"],
               "germs": [germs.to_json(g) for g in data["germs"]],
               "note": data["note"]})
    return 0


def cmd_twist(args):
    system = _load(args.system)
    action = system.action
    if system.twist is None:
        if not _valid(system.problems):
            return 1
        twist = twists.Twist(action)   # trivial twist
    else:
        twist = system.twist
    op = args.op
    parsed = [_json_arg(a, "argument %d" % (k + 1))
              for (k, a) in enumerate(args.args)]
    if op == "validate":
        _check_arity(parsed, 0, "twist validate")
        # the identities multiply through the tables, so they must satisfy
        # the laws first (validate_system would run validate_twist twice)
        if not _valid(system.problems + action.validate()):
            return 1
        problems = twists.validate_twist(twist)
        _emit({"valid": not problems, "problems": problems})
        return 0 if not problems else 1
    if op == "extend":
        _check_arity(parsed, 2, "twist extend G PATH")
        g = json_name(parsed[0], "G")
        p = _path_arg(action, parsed[1], "PATH")
        w = twists.extend_bowtie(twist, g, p)
        _emit({"phase": twists.phase_str(twist.fraction(w))})
    elif op == "omega":
        _check_arity(parsed, 2, "twist omega S T")
        s, t = sg.from_json(action, parsed[0]), sg.from_json(action, parsed[1])
        w = twists.omega(twist, s, t)
        _emit({"zero": True} if w is None
              else {"phase": twists.phase_str(twist.fraction(w))})
    elif op == "verify":
        _check_arity(parsed, 0, "twist verify")
        # the brute-force check multiplies through the tables, so they
        # must satisfy the laws first
        if not _valid(systems.validate_system(system)):
            return 1
        out = twists.verify_omega_cocycle(twist, args.bound)
        _emit(out)
        return 0 if out["ok"] else 1
    return 0


def cmd_nucleus(args):
    system = _load(args.system)
    nuc = act_mod.nucleus(system.action)
    _emit({"nucleus": list(nuc)})
    return 0


def cmd_kernel(args):
    system = _load(args.system)
    action = system.action
    out = {
        "kernel": list(act_mod.kernel_elements(action)),
        "Faithful": act_mod.faithful(action).to_json(),
    }
    out["tight_kernel"] = list(act_mod.tight_kernel_elements(action))
    out["TightlyFaithful"] = act_mod.tightly_faithful(action).to_json()
    _emit(out)
    return 0


def cmd_hum(args):
    system = _load(args.system)
    x = point_from_json(system.graph, _json_arg(args.point, "POINT"))
    out = germs.hum_for_point(system.action, x)
    _emit(out)
    return 0


def cmd_export_dot(args):
    system = _load(args.system)
    what = args.what
    if what == "graph":
        sys.stdout.write(system.graph.to_dot(system.name or "graph"))
    elif what == "restriction":
        sys.stdout.write(act_mod.restriction_digraph_dot(system.action))
    elif what.startswith("fixing:"):
        g = what.split(":", 1)[1]
        if not system.groupoid.has_element(g):
            raise ActionError("unknown element %r" % (g,))
        sys.stdout.write(FixingAutomaton(system.action, g).to_dot())
    else:
        raise UsageError("--what must be graph, restriction, or fixing:<g>")
    return 0


def _check_arity(parsed, n, usage):
    if len(parsed) != n:
        raise UsageError("expected %d argument(s): %s" % (n, usage))


# -- argument parsing -------------------------------------------------------


def _length(text):
    """A truncation length: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            "%r is not a non-negative integer" % (text,))
    return n


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process.

    Subcommands are dispatched by name in main, so the parser holds no
    reference to the cmd_* functions."""
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Deciders and arithmetic for self-similar groupoid "
                    "actions on finite graphs.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate",
                       help="run every structural and algebraic check")
    p.add_argument("system", help="system file or bundled example name")

    p = sub.add_parser("report", help="full condition and consequence report")
    p.add_argument("system")
    p.add_argument("--format", choices=["json", "text"], default="json",
                   help="output format (default json)")
    p.add_argument("--scope", choices=["strict", "model"], default="model",
                   help="whether on-model verdicts propagate into derived "
                        "verdicts (default model)")

    p = sub.add_parser("semigroup", help="triple arithmetic")
    p.add_argument("system")
    p.add_argument("op", choices=["mul", "star", "leq", "conj", "length"])
    p.add_argument("args", nargs="*",
                   help="JSON arguments, e.g. "
                        "'{\"alpha\": [\"e\"], \"g\": \"1\", \"beta\": []}'")

    p = sub.add_parser("germ", help="germ calculus")
    p.add_argument("system")
    p.add_argument("op", choices=["eq", "compose", "inverse", "classify",
                                  "in-core", "xbar"])
    p.add_argument("args", nargs="*",
                   help="JSON germs (triple plus \"xi\") or points")

    p = sub.add_parser("twist", help="twist calculus")
    p.add_argument("system")
    p.add_argument("op", choices=["validate", "extend", "omega", "verify"])
    p.add_argument("args", nargs="*")
    p.add_argument("--bound", type=_length, default=3, metavar="L",
                   help="truncation length for the brute-force verify "
                        "(default 3)")

    p = sub.add_parser("nucleus", help="the minimal recurrent set of elements")
    p.add_argument("system")

    p = sub.add_parser("kernel", help="kernel and tight kernel of the action")
    p.add_argument("system")

    p = sub.add_parser("hum", help="group summation test at a boundary point")
    p.add_argument("system")
    p.add_argument("point", help="JSON point, e.g. "
                                 "'{\"prefix\": [], \"period\": [\"e\"]}'")

    p = sub.add_parser("export-dot", help="DOT exports")
    p.add_argument("system")
    p.add_argument("--what", default="graph",
                   help="graph | restriction | fixing:<element>")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.cmd.replace("-", "_")](args)
        # flush inside the try, so that a closed stdout raises here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the signal module's docs for SIGPIPE: point stdout
        # at devnull, so that the flush at exit does not fail again, and
        # exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except systems.SystemLoadError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
