"""Layer tracing of selfsim from outside: wrap its public functions, then
put every binding back.

A span wrapper records (operation id, span id, parent span id, name,
start, end) in memory and adds the span's self time - its duration minus
the time its child spans cover - to a per-name total.  Hot leaves get a
counting wrapper only.  Every binding a caller can reach is replaced:
module attributes, names copied by `from ... import`, the functions held
in conditions.BASE_CHECKS, and the listed class methods (a class is
patched in place, so every name bound to it sees the wrapper).
"""

import collections
import functools
import importlib
import inspect
import json
import time

MODULES = ("graphs", "groupoids", "actions", "verdicts", "conditions",
           "semigroup", "germs", "twists", "systems", "cli")

# Helpers called once per inner-loop step.  A wrapper would cost more than
# their work and be charged to their callers' self time, so they stay bare.
UNWRAPPED = frozenset({
    "graphs.path_key", "graphs.is_prefix", "actions.edge_at",
    "actions.point_phase", "semigroup.is_zero", "twists.phase",
    "twists.phase_mul", "twists.phase_conj", "twists.phase_str",
})

# Hot leaves among the module functions: counted, no span.
COUNTED = frozenset({
    "actions.fixes_all_paths", "twists.omega", "twists.extend_bowtie",
    "graphs.comparable",
})

# (module, class, method, trace name, span or count)
METHODS = (
    ("graphs", "DirectedGraph", "check_path", "graphs.check_path", "count"),
    ("graphs", "DirectedGraph", "paths_from", "graphs.paths_from", "count"),
    ("groupoids", "ExplicitGroupoid", "validate", "groupoids.validate", "span"),
    ("groupoids", "BehavioralModel", "validate", "groupoids.validate", "span"),
    ("groupoids", "ExplicitGroupoid", "mul", "groupoids.mul", "count"),
    ("actions", "SelfSimilarAction", "validate", "actions.validate", "span"),
    ("actions", "SelfSimilarAction", "act_edge", "actions.act_edge", "count"),
    ("actions", "SelfSimilarAction", "restrict_edge", "actions.restrict_edge",
     "count"),
    ("actions", "SelfSimilarAction", "act_path", "actions.act_path", "count"),
    ("actions", "SelfSimilarAction", "restrict_path", "actions.restrict_path",
     "count"),
    ("actions", "FixingAutomaton", "__init__", "actions.FixingAutomaton",
     "count"),
)

VERIFY = "twists.verify_omega_cocycle"
SPAN_CAP = 100000   # spans kept for the trace file; totals count them all


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.self_time = collections.defaultdict(float)
        self.total_time = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.active = collections.Counter()
        self.spans = []
        self.dropped = 0
        self.op_id = 0
        self._stack = []
        self._next_span = 1
        self._saved = []
        self._posts = {
            "graphs.paths_from": self._post_paths,
            "actions.FixingAutomaton": self._post_automaton,
            "semigroup.mul": self._post_mul,
            VERIFY: self._post_verify,
        }

    # -- post hooks: counters that need the call's arguments or result --

    def _post_paths(self, args, result):
        self.counts["graphs.paths_enumerated"] += len(result)

    def _post_automaton(self, args, result):
        self.counts["actions.FixingAutomaton.nodes"] += len(args[0].trans)

    def _post_mul(self, args, result):
        if self.active[VERIFY]:
            self.counts["semigroup.mul.in_verify"] += 1
        if not self._is_zero(result):
            self.counts["semigroup.mul.nonzero"] += 1

    def _post_verify(self, args, result):
        self.counts[VERIFY + ".checked"] += result["checked"]

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn):
        stack, calls, self_time = self._stack, self.calls, self.self_time
        total_time = self.total_time
        active, spans, perf = self.active, self.spans, time.perf_counter
        post = self._posts.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                calls[name] += 1
                self_time[name] += duration - frame[0]
                total_time[name] += duration
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((self.op_id, sid, parent, name, start, end))
                else:
                    self.dropped += 1
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls
        post = self._posts.get(name)
        if post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                post(args, result)
                return result
        return wrapper

    # -- install and restore ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("selfsim")
        mods = {short: importlib.import_module("selfsim." + short)
                for short in MODULES}
        self._is_zero = mods["semigroup"].is_zero
        wrappers = {}
        for (short, mod) in mods.items():
            for (name, obj) in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = "%s.%s" % (short, name)
                if qual in UNWRAPPED:
                    continue
                make = self.count if qual in COUNTED else self.span
                wrappers[obj] = make(qual, obj)
        for mod in [package] + list(mods.values()):
            for (name, obj) in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        for (short, cls_name, meth, name, kind) in METHODS:
            cls = getattr(mods[short], cls_name)
            make = self.count if kind == "count" else self.span
            self._patch(cls, meth, make(name, cls.__dict__[meth]))
        checks = mods["conditions"].BASE_CHECKS
        self._base_checks = (checks, list(checks))
        checks[:] = [(cid, self.span("conditions." + cid, fn))
                     for (cid, fn) in checks]

    def restore(self):
        """Put every patched binding back and check that it is back."""
        for (owner, attr, value) in reversed(self._saved):
            setattr(owner, attr, value)
        checks, original = self._base_checks
        checks[:] = original
        for (owner, attr, value) in self._saved:
            if getattr(owner, attr) is not value:
                raise RuntimeError("%r.%s was not restored" % (owner, attr))
        self._saved = []

    # -- results ----------------------------------------------------------

    def module_shares(self):
        """Each module's share of all self time, largest first."""
        by_module = collections.defaultdict(float)
        for (name, t) in self.self_time.items():
            by_module[name.split(".")[0]] += t
        total = sum(by_module.values()) or 1.0
        return sorted(((m, t / total) for (m, t) in by_module.items()),
                      key=lambda mt: -mt[1])

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            head = dict(header, spans=len(self.spans), dropped=self.dropped,
                        fields=["op", "span", "parent", "name", "start", "end"])
            fh.write(json.dumps(head) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metric(tracer, name, passes):
    """The value of one per-layer metric from a tracer's totals.

    Counts and self times are per pass of the workload's operation list;
    shares and ratios are taken over the whole traced run.
    """
    c = tracer.counts
    if name == "semigroup.mul.nonzero_share":
        calls = tracer.calls["semigroup.mul"]
        return c["semigroup.mul.nonzero"] / calls if calls else 0.0
    if name == "twists.checks_per_mul":
        muls = c["semigroup.mul.in_verify"]
        return c[VERIFY + ".checked"] / muls if muls else 0.0
    if name == "actions.FixingAutomaton.builds":
        return tracer.calls["actions.FixingAutomaton"] / passes
    if name.endswith(".self_s"):
        return tracer.self_time[name[:-len(".self_s")]] / passes
    if name.endswith(".calls"):
        return tracer.calls[name[:-len(".calls")]] / passes
    if name in ("graphs.paths_enumerated", "actions.FixingAutomaton.nodes",
                VERIFY + ".checked"):
        return c[name] / passes
    raise KeyError("no rule for per-layer metric %r" % (name,))
