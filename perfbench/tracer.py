"""Spans around the calls into each dispnet layer, recorded from outside.

The tracer replaces public names of the program with wrappers, at the
place where their callers look them up (``cli.unfold`` is the name
``run_sequent`` calls, ``nd.contract`` the one ``extract_nd`` calls).
The program itself is not changed. Each wrapper records a span (name,
start, end, parent span, item id) and reads counts from the values and
exceptions that pass through it. Spans stay in memory until the run
ends, when ``write`` saves them and ``layer_metrics`` sums them.

``terms`` and ``formula`` get no spans: their functions are called at a
very fine grain from inside the other layers, so wrapping them would
mostly measure the wrapper. Their cost lands in the callers' self time.

A target name that the program no longer has is recorded in
``missing`` instead of failing, and every metric that can only be
measured through it is reported as missing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute its callers look up, span name, what to count)
TARGETS = (
    ("dispnet.lexicon", "lexical_covers", "lexicon.covers", "covers"),
    ("dispnet.cli", "run_parse", "cli.run", None),
    ("dispnet.cli", "run_sequent", "cli.run", None),
    ("dispnet.cli", "unfold", "proofstructure.unfold", None),
    ("dispnet.cli", "enumerate_linkings", "proofstructure.enumerate", "stream"),
    ("dispnet.proofstructure", "realize", "proofstructure.realize", None),
    ("dispnet.cli", "is_proof_net", "contraction.is_proof_net", "verdict"),
    ("dispnet.contraction", "is_proof_net", "contraction.is_proof_net", "verdict"),
    ("dispnet.contraction", "to_aps", "aps.to_aps", "ill_formed"),
    ("dispnet.nd", "to_aps", "aps.to_aps", "ill_formed"),
    ("dispnet.contraction", "contract", "contraction.contract", "trace"),
    ("dispnet.nd", "contract", "contraction.contract", "trace"),
    ("dispnet.nd", "extract_nd", "nd.extract", None),
    ("dispnet.nd", "canonical_proof", "nd.canonical", None),
    ("dispnet.nd", "net_of_nd", "nd.net_of_nd", None),
    ("dispnet.nd", "check_nd", "nd.check", None),
)

ITEM = "item"


class Tracer:
    """Spans and counts of one traced run, and the wrappers that record
    them."""

    def __init__(self):
        self.names = [ITEM]
        self._codes = {ITEM: 0}
        self.span_name = array("H")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_item = -1
        self.counts = Counter()
        self.missing = []        # "module.attr" targets absent from the program
        self.broken = set()      # span names whose counting hook failed
        self._wrapped = None     # (module, attr, original, wrapper)

    # -- recording --------------------------------------------------------

    def code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin(self, code):
        i = len(self.span_name)
        self.span_name.append(code)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, on_result=None, on_error=None):
        code = self.code(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(code)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                finish(i)
                if on_error is not None:
                    on_error(exc)
                raise
            finish(i)
            if on_result is not None:
                try:
                    out = on_result(out)
                except AttributeError:
                    self.broken.add(name)
            return out

        return traced

    def _stream(self, it, code):
        """Re-yield a lazy linking stream, timing each step of it."""
        while True:
            i = self.begin(code)
            try:
                ps = next(it)
            except StopIteration:
                self.finish(i)
                return
            except Exception:
                self.finish(i)
                raise
            self.finish(i)
            yield ps

    # -- installing ---------------------------------------------------------

    def _hooks(self, kind, name):
        counts = self.counts

        def count_covers(covers):
            counts["covers.returned"] += len(covers)
            return covers

        def count_verdict(verdict):
            counts["verdict." + verdict.kind] += 1
            return verdict

        def count_trace(trace):
            counts["steps"] += len(trace.steps)
            counts["elements"] += trace.initial_elements
            return trace

        def count_mismatch(exc):
            if type(exc).__name__ == "CountMismatch":
                counts["count_mismatch"] += 1

        def count_ill_formed(exc):
            if type(exc).__name__ == "IllFormedComb":
                counts["ill_formed"] += 1

        code = self.code(name)
        return {
            None: (None, None),
            "covers": (count_covers, None),
            "verdict": (count_verdict, None),
            "trace": (count_trace, None),
            "stream": (lambda it: self._stream(iter(it), code), count_mismatch),
            "ill_formed": (None, count_ill_formed),
        }[kind]

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if self._wrapped is None:
            self._wrapped = []
            for module_name, attr, name, kind in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name.split('.')[-1]}.{attr}")
                    continue
                on_result, on_error = self._hooks(kind, name)
                self._wrapped.append((module, attr, original,
                                      self.wrap(original, name, on_result, on_error)))
        for module, attr, _original, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _wrapper in self._wrapped or ():
            setattr(module, attr, original)

    # -- reading ------------------------------------------------------------

    def spans(self):
        """Per span: (name, duration ns, self ns, parent name)."""
        n = len(self.span_name)
        child = [0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        for i in range(n):
            p = self.parent[i]
            yield (names[self.span_name[i]], dur[i], dur[i] - child[i],
                   names[self.span_name[p]] if p >= 0 else None)

    def write(self, path):
        """Save every span as a tab-separated line, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\titem\tstart_ns\tend_ns\n")
            out.writelines(
                f"{i}\t{names[c]}\t{p}\t{it}\t{s}\t{e}\n"
                for i, (c, p, it, s, e) in enumerate(zip(
                    self.span_name, self.parent, self.item, self.start,
                    self.end)))


# Per-layer metrics: name -> (unit, better, what, span). ``what`` is
# "calls" or "self" (self time, in ms) of the span, or a count read at
# that span. Every value is per item, except the ratio.
LAYER_METRICS = {
    "proofstructure.linkings": ("count", "lower", "calls", "proofstructure.realize"),
    "proofstructure.realize.self_ms": ("ms", "lower", "self", "proofstructure.realize"),
    "proofstructure.unfold.calls": ("count", "lower", "calls", "proofstructure.unfold"),
    "proofstructure.unfold.self_ms": ("ms", "lower", "self", "proofstructure.unfold"),
    "proofstructure.enumerate.self_ms": ("ms", "lower", "self", "proofstructure.enumerate"),
    "proofstructure.count_mismatch": ("count", "lower", "count_mismatch", "proofstructure.enumerate"),
    "aps.to_aps.calls": ("count", "lower", "calls", "aps.to_aps"),
    "aps.to_aps.self_ms": ("ms", "lower", "self", "aps.to_aps"),
    "aps.ill_formed": ("count", "lower", "ill_formed", "aps.to_aps"),
    "aps.elements": ("count", "lower", "elements", "contraction.contract"),
    "contraction.contract.calls": ("count", "lower", "calls", "contraction.contract"),
    "contraction.contract.self_ms": ("ms", "lower", "self", "contraction.contract"),
    "contraction.steps": ("count", "lower", "steps", "contraction.contract"),
    "contraction.is_proof_net.self_ms": ("ms", "lower", "self", "contraction.is_proof_net"),
    "contraction.verdict.net": ("count", "higher", "verdict.net", "contraction.is_proof_net"),
    "contraction.verdict.stuck": ("count", "lower", "verdict.stuck", "contraction.is_proof_net"),
    "contraction.verdict.string_mismatch": ("count", "lower", "verdict.string_mismatch", "contraction.is_proof_net"),
    "contraction.net_ratio": ("1", "higher", "net_ratio", "contraction.is_proof_net"),
    "nd.extract.calls": ("count", "lower", "calls", "nd.extract"),
    "nd.extract.self_ms": ("ms", "lower", "self", "nd.extract"),
    "nd.recontract.calls": ("count", "lower", "recontract", "nd.extract"),
    "nd.canonical.self_ms": ("ms", "lower", "self", "nd.canonical"),
    "nd.duplicates": ("count", "lower", "duplicates", "nd.canonical"),
    "nd.net_of_nd.self_ms": ("ms", "lower", "self", "nd.net_of_nd"),
    "nd.check.self_ms": ("ms", "lower", "self", "nd.check"),
    "lexicon.covers.calls": ("count", "lower", "calls", "lexicon.covers"),
    "lexicon.covers.self_ms": ("ms", "lower", "self", "lexicon.covers"),
    "lexicon.covers.returned": ("count", "lower", "covers.returned", "lexicon.covers"),
    "cli.run.self_ms": ("ms", "lower", "self", "cli.run"),
}


def layer_metrics(tracer, items, readings):
    """Per-layer metric values from a traced run of ``items`` items that
    returned ``readings`` readings in all; None marks a metric whose
    span could not be installed."""
    calls = Counter()
    self_ns = Counter()
    counts = Counter(tracer.counts)
    for name, _dur, own, parent in tracer.spans():
        calls[name] += 1
        self_ns[name] += own
        if name == "contraction.contract" and parent == "nd.extract":
            counts["recontract"] += 1
    # each canonical form is either a new reading or a dropped duplicate
    counts["duplicates"] = max(0, calls["nd.canonical"] - readings)
    lost = unreachable(tracer) | tracer.broken
    items = max(items, 1)
    values = {}
    for metric, (_unit, _better, what, span) in LAYER_METRICS.items():
        if span in lost:
            values[metric] = None
        elif what == "calls":
            values[metric] = calls[span] / items
        elif what == "self":
            values[metric] = self_ns[span] / items / 1e6
        elif what == "net_ratio":
            values[metric] = counts["verdict.net"] / calls[span] if calls[span] else 0.0
        else:
            values[metric] = counts[what] / items
    return values


def unreachable(tracer):
    """Span names none of whose targets could be installed."""
    installed = {}
    for module_name, attr, name, _kind in TARGETS:
        label = f"{module_name.split('.')[-1]}.{attr}"
        installed[name] = installed.get(name, False) or label not in tracer.missing
    return {name for name, ok in installed.items() if not ok}
