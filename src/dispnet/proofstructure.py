"""Proof frames and proof structures.

Unfolding decomposes the hypotheses (positively) and the goal
(negatively) of a sequent into a proof frame: a set of formula
occurrences connected by two-premiss/one-conclusion tensor links and
one-premiss/two-conclusion par links. Which link a connective gets
depends on the side it is unfolded on:

    positive /, \\, ^k, !k   -> tensor link (modus-ponens shape)
    positive *, ok           -> par link (both subformulas become inputs)
    negative *, ok           -> tensor link
    negative /, \\, ^k, !k   -> par link (hypothetical reasoning)

Par links carry an arrow to their main formula. Unfolding bottoms out
in atoms; positive atoms produce material, negative atoms consume it.
A proof structure arises from a frame by choosing an axiom linking: a
bijection, per atom name, between producer and consumer occurrences.
Every formula ends up the premiss of at most one link and the
conclusion of at most one link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations, product

from . import formula as fm
from .terms import Mode

TENSOR_PLUS_TAGS = {"L\\", "L/", "R*"}
TENSOR_CROSS_TAGS = {"L^", "L!", "Ro"}
PAR_TAGS = {"R\\", "R/", "L*", "R^", "R!", "Lo"}


@dataclass(frozen=True)
class Vertex:
    vid: int
    formula: "fm.Formula"
    origin: tuple = ("internal",)  # ("hyp", i) | ("goal",) | ("internal",)


@dataclass(frozen=True)
class Link:
    kind: str  # "tensor" | "par"
    tag: str   # e.g. "L/", "R*", "L^"
    premisses: tuple
    conclusions: tuple
    mode: Mode | None = None
    main: int | None = None  # par links point at their main formula

    def vertices(self):
        return self.premisses + self.conclusions

    def fmt(self):
        mode = str(self.mode) if self.mode is not None else ""
        main = f" main={self.main}" if self.main is not None else ""
        return (
            f"{self.kind} {self.tag}{mode} "
            f"[{' '.join(map(str, self.premisses))}] -> "
            f"[{' '.join(map(str, self.conclusions))}]{main}"
        )


class CountMismatch(ValueError):
    """An atom occurs more often as producer than consumer or vice
    versa; no axiom linking exists."""

    def __init__(self, mismatches):
        self.mismatches = dict(mismatches)  # atom -> (producers, consumers)
        detail = ", ".join(
            f"{a}: {p} producer(s) vs {c} consumer(s)"
            for a, (p, c) in sorted(self.mismatches.items())
        )
        super().__init__(detail)


@dataclass
class ProofFrame:
    vertices: dict
    links: list
    hypotheses: list
    goal: int
    producers: dict = field(default_factory=dict)  # atom -> [vid]
    consumers: dict = field(default_factory=dict)

    def dump(self) -> str:
        lines = [link.fmt() for link in self.links]
        return "\n".join(lines)


@dataclass
class ProofStructure:
    vertices: dict
    links: list
    hypotheses: list
    goal: int
    linking: tuple = ()  # (producer vid, consumer vid) pairs

    def dump(self) -> str:
        return "\n".join(link.fmt() for link in self.links)

    def par_links(self):
        return [l for l in self.links if l.kind == "par"]


def unfold(hypotheses, goal, sig) -> ProofFrame:
    """Build the proof frame of a sequent by leftmost-outermost
    decomposition. All formulas are assumed well-sorted under sig."""
    vertices = {}
    links = []
    producers = {}
    consumers = {}
    counter = 0

    def new_vertex(f, origin=("internal",)):
        nonlocal counter
        v = Vertex(counter, f, origin)
        vertices[counter] = v
        counter += 1
        return v.vid

    def expand(vid, positive):
        f = vertices[vid].formula
        if isinstance(f, fm.Atom):
            side = producers if positive else consumers
            side.setdefault(f.name, []).append(vid)
            return
        if positive:
            if isinstance(f, fm.Over):
                b = new_vertex(f.arg)
                c = new_vertex(f.result)
                links.append(Link("tensor", "L/", (vid, b), (c,)))
                expand(b, False)
                expand(c, True)
            elif isinstance(f, fm.Under):
                a = new_vertex(f.arg)
                c = new_vertex(f.result)
                links.append(Link("tensor", "L\\", (a, vid), (c,)))
                expand(a, False)
                expand(c, True)
            elif isinstance(f, fm.Up):
                b = new_vertex(f.arg)
                c = new_vertex(f.result)
                links.append(Link("tensor", "L^", (vid, b), (c,), mode=f.mode))
                expand(b, False)
                expand(c, True)
            elif isinstance(f, fm.Down):
                a = new_vertex(f.arg)
                c = new_vertex(f.result)
                links.append(Link("tensor", "L!", (a, vid), (c,), mode=f.mode))
                expand(a, False)
                expand(c, True)
            elif isinstance(f, fm.Prod):
                a = new_vertex(f.left)
                b = new_vertex(f.right)
                links.append(Link("par", "L*", (vid,), (a, b), main=vid))
                expand(a, True)
                expand(b, True)
            elif isinstance(f, fm.Wrap):
                a = new_vertex(f.left)
                b = new_vertex(f.right)
                links.append(Link("par", "Lo", (vid,), (a, b), mode=f.mode, main=vid))
                expand(a, True)
                expand(b, True)
        else:
            if isinstance(f, fm.Over):
                c = new_vertex(f.result)
                b = new_vertex(f.arg)
                links.append(Link("par", "R/", (c,), (vid, b), main=vid))
                expand(c, False)
                expand(b, True)
            elif isinstance(f, fm.Under):
                c = new_vertex(f.result)
                a = new_vertex(f.arg)
                links.append(Link("par", "R\\", (c,), (a, vid), main=vid))
                expand(c, False)
                expand(a, True)
            elif isinstance(f, fm.Up):
                c = new_vertex(f.result)
                b = new_vertex(f.arg)
                links.append(Link("par", "R^", (c,), (vid, b), mode=f.mode, main=vid))
                expand(c, False)
                expand(b, True)
            elif isinstance(f, fm.Down):
                c = new_vertex(f.result)
                a = new_vertex(f.arg)
                links.append(Link("par", "R!", (c,), (a, vid), mode=f.mode, main=vid))
                expand(c, False)
                expand(a, True)
            elif isinstance(f, fm.Prod):
                a = new_vertex(f.left)
                b = new_vertex(f.right)
                links.append(Link("tensor", "R*", (a, b), (vid,)))
                expand(a, False)
                expand(b, False)
            elif isinstance(f, fm.Wrap):
                a = new_vertex(f.left)
                b = new_vertex(f.right)
                links.append(Link("tensor", "Ro", (a, b), (vid,), mode=f.mode))
                expand(a, False)
                expand(b, False)

    hyp_ids = []
    for i, h in enumerate(hypotheses):
        vid = new_vertex(h, ("hyp", i))
        hyp_ids.append(vid)
        expand(vid, True)
    goal_id = new_vertex(goal, ("goal",))
    expand(goal_id, False)

    return ProofFrame(vertices, links, hyp_ids, goal_id, producers, consumers)


def count_mismatches(frame: ProofFrame) -> dict:
    out = {}
    for atom in sorted(set(frame.producers) | set(frame.consumers)):
        p = len(frame.producers.get(atom, ()))
        c = len(frame.consumers.get(atom, ()))
        if p != c:
            out[atom] = (p, c)
    return out


def linking_count(frame: ProofFrame) -> int:
    if count_mismatches(frame):
        return 0
    return math.prod(
        math.factorial(len(v)) for v in frame.producers.values()
    )


def enumerate_linkings(frame: ProofFrame):
    """Stream of every proof structure obtained by identifying producer
    atoms with consumer atoms of the same name.

    The stream is lazy and deterministic: atoms are processed in name
    order, consumers in vertex-id order, and producer permutations in
    lexicographic vertex-id order. Raises CountMismatch immediately when
    some atom is unbalanced (the stream would be empty)."""
    mismatches = count_mismatches(frame)
    if mismatches:
        raise CountMismatch(mismatches)

    def stream():
        names = sorted(frame.producers)
        consumer_lists = [sorted(frame.consumers[a]) for a in names]
        producer_perms = [
            permutations(sorted(frame.producers[a])) for a in names
        ]
        for combo in product(*producer_perms):
            pairs = []
            for consumers, producers in zip(consumer_lists, combo):
                pairs.extend(zip(producers, consumers))
            yield realize(frame, tuple(pairs))

    return stream()


def realize(frame: ProofFrame, linking) -> ProofStructure:
    """Merge each linked consumer vertex into its producer vertex."""
    remap = {consumer: producer for producer, consumer in linking}
    vertices = {
        vid: v for vid, v in frame.vertices.items() if vid not in remap
    }

    def m(vid):
        return remap.get(vid, vid)

    links = [
        replace(
            link,
            premisses=tuple(m(v) for v in link.premisses),
            conclusions=tuple(m(v) for v in link.conclusions),
            main=m(link.main) if link.main is not None else None,
        )
        for link in frame.links
    ]
    return ProofStructure(
        vertices, links, list(frame.hypotheses), m(frame.goal), tuple(linking)
    )


def check_structure(ps: ProofStructure) -> list:
    """Validate the at-most-one-premiss / at-most-one-conclusion
    discipline; returns violations (empty when fine)."""
    violations = []
    seen_premiss = {}
    seen_conclusion = {}
    for i, link in enumerate(ps.links):
        for v in link.premisses:
            if v in seen_premiss:
                violations.append(f"vertex {v} premiss of links {seen_premiss[v]} and {i}")
            seen_premiss[v] = i
        for v in link.conclusions:
            if v in seen_conclusion:
                violations.append(
                    f"vertex {v} conclusion of links {seen_conclusion[v]} and {i}"
                )
            seen_conclusion[v] = i
    for h in ps.hypotheses:
        if h in seen_conclusion:
            violations.append(f"hypothesis {h} is the conclusion of a link")
    if ps.goal in seen_premiss:
        violations.append(f"goal {ps.goal} is the premiss of a link")
    return violations

