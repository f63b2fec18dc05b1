"""Command-line front end: load a system file (or bundled example), run
validators and deciders, evaluate arithmetic, export DOT.

Exit codes: 0 success, 1 domain failure, 2 usage or parse failure.
"""

import argparse
import errno
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
from .actions import ActionError, FixingAutomaton, point_from_json
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


def _write(text):
    """The one writer of stdout.  Where stdout has a binary buffer, the
    text layer is flushed and the encoded text is written to the buffer
    until every byte is taken: an unbuffered stream (PYTHONUNBUFFERED)
    may take part of a write and drop the rest without an error.  A
    stream without one (io.StringIO) is written as text."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        n = buffer.write(data)
        if n is None:
            # a non-blocking stream that takes nothing now: fail as a
            # buffered write would, rather than retry at once
            raise BlockingIOError(errno.EAGAIN, "stdout would block")
        data = data[n:]


def _emit(obj):
    _write(systems.json_text(obj))


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
    doc = conditions.run_report(system.action, name=system.name,
                                scope_mode=args.scope, notes=system.notes)
    if args.format == "text":
        _write(conditions.report_text(doc))
    else:
        _emit(doc)
    return 0


# -- arithmetic -------------------------------------------------------------

# The reader of each argument letter: (action, JSON value, letter) -> value.
# The readers, like the operations below, call the library through its
# module when they run, so a patched module function is the one called.
_READERS = {
    **dict.fromkeys("ST", lambda action, data, _: sg.from_json(action, data)),
    **dict.fromkeys("AB", lambda action, data, _: germs.from_json(action, data)),
    "X": lambda action, data, _: point_from_json(action.graph, data),
    "G": lambda action, data, letter: json_name(data, letter),
    "P": _path_arg, "PATH": _path_arg,
}


def _phase(twist, w):
    return ({"zero": True} if w is None
            else {"phase": twists.phase_str(twist.fraction(w))})


# command -> op -> (argument letters, output): the output takes the action
# (the twist, for twist) and the arguments, and returns the JSON to print.
# twist validate and verify have no output here: cmd_twist checks the
# system before it runs them.
_OPS = {
    "semigroup": {
        "mul": ("S T", lambda a, s, t: sg.to_json(sg.mul(a, s, t))),
        "star": ("S", lambda a, s: sg.to_json(sg.star(a, s))),
        "leq": ("S T", lambda a, s, t: {"leq": sg.leq(a, s, t)}),
        "conj": ("T P", lambda a, t, p: sg.to_json(sg.conj_idempotent(a, t, p))),
        "length": ("S", lambda a, s: {"length": sg.length_cocycle(s)}),
    },
    "germ": {
        "eq": ("A B", lambda a, x, y: {"equal": germs.germ_eq(a, x, y)}),
        "compose": ("A B", lambda a, x, y: germs.to_json(germs.germ_mul(a, x, y))),
        "inverse": ("A", lambda a, x: germs.to_json(germs.germ_inv(a, x))),
        "classify": ("A", lambda a, x: germs.classify(a, x)),
        "in-core": ("A", lambda a, x: {"in_core": germs.in_core(a, x)}),
        "xbar": ("X", lambda a, x: germs.xbar(a, x)),
    },
    "twist": {
        "validate": ("", None),
        "extend": ("G PATH",
                   lambda tw, g, p: _phase(tw, twists.extend_bowtie(tw, g, p))),
        "omega": ("S T", lambda tw, s, t: _phase(tw, twists.omega(tw, s, t))),
        "verify": ("", None),
    },
}


def _op_json(args):
    """The arguments of args.op as (letter, JSON value) pairs: each parsed
    as JSON and their count checked against the op's letters.  This needs
    no system, so it runs before the file is read."""
    letters = _OPS[args.cmd][args.op][0].split()
    parsed = [_json_arg(a, "argument %d" % (k + 1))
              for (k, a) in enumerate(args.args)]
    if len(parsed) != len(letters):
        raise UsageError("expected %d argument(s): %s" % (
            len(letters), " ".join([args.cmd, args.op] + letters)))
    return list(zip(letters, parsed))


def _read_args(action, pairs):
    """The values of _op_json's pairs, read left to right."""
    return [_READERS[c](action, data, c) for (c, data) in pairs]


def cmd_calculus(args):
    """semigroup and germ: the op's output on its arguments."""
    pairs = _op_json(args)
    action = _load(args.system).action
    _emit(_OPS[args.cmd][args.op][1](action, *_read_args(action, pairs)))
    return 0


def cmd_twist(args):
    pairs = _op_json(args)
    system = _load(args.system)
    action = system.action
    # problems are kept only for a twist that could not be built
    if not _valid(system.problems):
        return 1
    twist = system.twist if system.twist is not None else twists.Twist(action)
    values = _read_args(action, pairs)
    if args.op == "validate":
        # the identities multiply through the tables, so they must satisfy
        # the laws first (validate_system would run validate_twist twice)
        if not _valid(action.validate()):
            return 1
        problems = twists.validate_twist(twist)
        _emit({"valid": not problems, "problems": problems})
        return 0 if not problems else 1
    if args.op == "verify":
        # the brute-force check multiplies through the tables, so they
        # must satisfy the laws first
        if not _valid(systems.validate_system(system)):
            return 1
        cap = systems.MAX_VERIFY_TRIPLES
        if sg.count_up_to(action, args.bound, cap) > cap:
            raise UsageError("--bound %d asks for more than %d triples; "
                             "choose a smaller bound" % (args.bound, cap))
        out = twists.verify_omega_cocycle(twist, args.bound)
        _emit(out)
        return 0 if out["ok"] else 1
    _emit(_OPS["twist"][args.op][1](twist, *values))
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
    point = _json_arg(args.point, "POINT")
    system = _load(args.system)
    x = point_from_json(system.graph, point)
    out = germs.hum_for_point(system.action, x)
    _emit(out)
    return 0


def cmd_export_dot(args):
    what = args.what
    if what not in ("graph", "restriction") and not what.startswith("fixing:"):
        raise UsageError("--what must be graph, restriction, or fixing:<g>")
    system = _load(args.system)
    if what == "graph":
        _write(system.graph.to_dot(system.name or "graph"))
    elif what == "restriction":
        _write(act_mod.restriction_digraph_dot(system.action))
    else:
        g = what.split(":", 1)[1]
        if not system.groupoid.has_element(g):
            raise ActionError("unknown element %r" % (g,))
        _write(FixingAutomaton(system.action, g).to_dot())
    return 0


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


# command name -> its parser: the choices of the subparsers action, kept
# by _build_parser beside the parser it caches
_COMMAND_PARSERS = {}


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

    for (cmd, text, args_help) in (
            ("semigroup", "triple arithmetic",
             "JSON arguments, e.g. "
             "'{\"alpha\": [\"e\"], \"g\": \"1\", \"beta\": []}'"),
            ("germ", "germ calculus",
             "JSON germs (triple plus \"xi\") or points"),
            ("twist", "twist calculus", None)):
        p = sub.add_parser(cmd, help=text)
        p.add_argument("system")
        p.add_argument("op", choices=_OPS[cmd])
        p.add_argument("args", nargs="*", help=args_help)
    # p is twist's parser
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

    _COMMAND_PARSERS.update(sub.choices)
    return parser


def _parse(argv):
    """The namespace of argv, as parser.parse_args(argv) gives it.  When
    argv[0] names a command, its parser alone reads the rest: the top
    parser would scan every argument, then hand the same strings to that
    parser, which scans them again.  Any other argv (none, -h, an unknown
    command, a leading --) goes to the top parser, the one source of the
    top-level help and of the errors for a bad command."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    args.cmd = argv[0]
    return args


def main(argv=None):
    args = _parse(argv)
    # semigroup and germ share cmd_calculus; every other command has its own
    name = ("calculus" if args.cmd in ("semigroup", "germ")
            else args.cmd.replace("-", "_"))
    try:
        code = globals()["cmd_" + name](args)
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
