"""Test references built without the code they check.

``all_linkings`` lists every linking of a frame in the order of its full
stream, pruned by nothing; ``has_cycle`` decides afterwards whether a
whole linking closes a directed cycle in the frame oriented as an
essential net, and ``escapes_scope`` whether a withdrawn hypothesis
reaches the goal around its body there. The search in
``proofstructure.enumerate_linkings`` skips exactly the linkings that
have a cycle, escape a scope or, with anchors, whose positions clash
(``positions_clash``), so these are the references it is checked
against. ``place``, the position pass behind ``positions_clash``,
walks the laid-out frame's links from its hypotheses and goal instead
of instantiating its pieces' position templates, and works out each
link's compound and operands itself (``link_shape``). ``validate`` checks
the role maps of an abstract proof structure against its elements,
``check_structure`` the link discipline of a proof structure, and
``iter_redexes`` lists the redexes a full rescan finds, the reference
for the contraction worklist.
"""

from itertools import permutations, product

from dispnet.aps import APS
from dispnet.contraction import Redex, _match
from dispnet.proofstructure import ProofStructure, _split, realize


def itertools_order(frame):
    """Reference stream order: one producer permutation per atom, atoms
    in name order, the last atom's permutation varying fastest."""
    names = sorted(frame.producers)
    consumers = [sorted(frame.consumers[a]) for a in names]
    perms = [permutations(sorted(frame.producers[a])) for a in names]
    for combo in product(*perms):
        yield tuple(pair for cs, ps in zip(consumers, combo)
                    for pair in zip(ps, cs))


def all_linkings(frame):
    """Every linking of a balanced frame as a proof structure, in stream
    order, each with its index in the full stream."""
    for index, pairs in enumerate(itertools_order(frame)):
        yield realize(frame, {c: p for p, c in pairs}, index)


def linking(ps):
    """The linking of a proof structure as (producer, consumer) pairs in
    the order of its consumer slots, as ``itertools_order`` gives them: a
    hashable name for a candidate."""
    return tuple((p, c) for c, p in ps.producer_of.items())


def essential_net(frame, linking):
    """The frame under ``linking`` ((producer, consumer) pairs) oriented
    as an essential net (Lamarche), as the successors of each vertex: a
    tensor link's premisses point at its conclusion, a par link whose
    main formula is its premiss (L*, Lo) points from it at both parts,
    another par link (R/, R\\, R^, R!) points from its premiss at its
    main formula, and each axiom link points from producer to
    consumer."""
    edges = {v: [] for v in range(len(frame.formulas))}
    for link in frame.links:
        if link.kind == "par" and link.main not in link.premisses:
            targets = (link.main,)
        else:
            targets = link.conclusions
        for a in link.premisses:
            edges[a].extend(targets)
    for producer, consumer in linking:
        edges[producer].append(consumer)
    return edges


def has_cycle(frame, linking):
    """Whether the frame under ``linking`` has a directed cycle once
    oriented as an essential net (``essential_net``)."""
    edges = essential_net(frame, linking)

    # depth-first search with three colours: a grey vertex met again is
    # on the current path
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(edges, WHITE)
    for root in edges:
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        path = [(root, iter(edges[root]))]
        while path:
            v, rest = path[-1]
            w = next(rest, None)
            if w is None:
                colour[v] = BLACK
                path.pop()
            elif colour[w] == GREY:
                return True
            elif colour[w] == WHITE:
                colour[w] = GREY
                path.append((w, iter(edges[w])))
    return False


def escapes_scope(frame, linking):
    """Whether, in the frame under ``linking`` oriented as an essential
    net (``essential_net``), the withdrawn hypothesis of some R par link
    (R/, R\\, R^, R!: the conclusion that is not the main formula)
    reaches the goal along a path that avoids the link's premiss."""
    edges = essential_net(frame, linking)
    for link in frame.links:
        if link.kind != "par" or link.main in link.premisses:
            continue
        (body,) = link.premisses
        (hypothesis,) = (v for v in link.conclusions if v != link.main)
        seen, stack = {hypothesis}, [hypothesis]
        while stack:
            for w in edges[stack.pop()]:
                if w != body and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if frame.goal in seen:
            return True
    return False


def link_shape(link):
    """The vertex of a link's compound formula, then those of its two
    operands in the order the compound writes them, worked out from the
    link as the ``proofstructure`` module docstring describes it: the
    one side (a tensor link's conclusion, a par link's premiss) holds an
    implication's result or a product's or wrap's compound, and the two
    side the other two formulas in written order, the compound standing
    in for an implication's result. C/B and C^B write their result
    first, A\\C and A!C last."""
    one, two = ((link.conclusions, link.premisses) if link.kind == "tensor"
                else (link.premisses, link.conclusions))
    (v,) = one
    op = link.tag[1]
    if op in "*o":
        return (v, *two)
    i = 0 if op in "/^" else 1
    return (two[i], *(v if j == i else two[j] for j in (0, 1)))


def place(frame, sig, anchors):
    """The position pass: string positions for every vertex of a frame.

    Returns ``(pos, const)``: ``pos[vid]`` is a tuple of 2k+2 point ids
    for a vertex of sort k (start and end of each of its k+1 pieces),
    and ``const[point]`` says whether that point is a constant. Token
    positions are constants, shared by every anchor that names them.
    Each link positions its subformulas from its compound formula by
    the connective's concatenation or wrap geometry; the junctions that
    geometry leaves open are fresh eigen constants at par links and
    fresh meta variables at tensor links."""
    const = []
    tokens = {}

    def token(t):
        if t not in tokens:
            tokens[t] = len(const)
            const.append(True)
        return tokens[t]

    def anchored(spans):
        return tuple(token(t) for span in spans for t in span)

    pos = {vid: anchored(spans)
           for vid, spans in zip(frame.hypotheses, anchors.hypotheses)}
    pos[frame.goal] = anchored(anchors.goal)
    for link in frame.links:
        eigen = link.kind == "par"

        def fresh(n):
            start = len(const)
            const.extend([eigen] * n)
            return tuple(range(start, start + n))

        top, x, y = link_shape(link)
        pos[x], pos[y] = _split(pos[top], frame.formulas[top], sig, fresh)
    return pos, const


def positions_clash(frame, sig, anchors, linking):
    """Whether unifying the string positions (``place``) of every axiom
    link of a whole linking makes two distinct constants meet."""
    pos, const = place(frame, sig, anchors)
    parent = list(range(len(const)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for producer, consumer in linking:
        for a, b in zip(map(root, pos[producer]), map(root, pos[consumer])):
            if a != b:
                if const[a] and const[b]:
                    return True
                if const[a]:
                    a, b = b, a
                parent[a] = b
    return False


def validate(aps):
    """Problems with the role maps of an abstract proof structure: every
    point a comb, cross link or par link uses must name that element in
    ``concl_of`` or ``premiss_at``, and every key of those maps must be
    a live point and every value a live element. A comb must also have
    no premiss twice, not its own conclusion among them, and a row of
    its conclusion's sort. Returns the problems found (empty when
    fine)."""
    problems = []
    elements = aps.combs.keys() | aps.crosses.keys() | aps.pars.keys()

    def expect(role, point, eid, what):
        if getattr(aps, role).get(point) != eid:
            problems.append(f"{what} {eid}: {role} of v{point} broken")

    for c in aps.combs.values():
        expect("concl_of", c.concl, c.cid, "comb")
        premisses = [it for it in c.row if type(it) is int]
        for q in premisses:
            expect("premiss_at", q, c.cid, "comb")
        if len(set(premisses)) < len(premisses):
            problems.append(f"comb {c.cid}: duplicate premiss")
        if c.concl in premisses:
            problems.append(f"comb {c.cid}: conclusion among premisses")
        if aps.row_sort(c.row) != aps.points[c.concl]:
            problems.append(f"comb {c.cid}: row sort != conclusion sort")
    for t in aps.crosses.values():
        expect("concl_of", t.concl, t.tid, "cross")
        expect("premiss_at", t.left, t.tid, "cross")
        expect("premiss_at", t.right, t.tid, "cross")
    for p in aps.pars.values():
        expect("premiss_at", p.premiss, p.pid, "par")
        if p.main != p.premiss:
            expect("concl_of", p.main, p.pid, "par")
        for q in (q for group in p.groups for q in group):
            expect("concl_of", q, p.pid, "par")
    for role in ("concl_of", "premiss_at"):
        for point, eid in getattr(aps, role).items():
            if point not in aps.points:
                problems.append(f"{role}: v{point} is not a live point")
            if eid not in elements:
                problems.append(f"{role}: {eid} is not a live element")
    return problems


def check_structure(ps: ProofStructure) -> list:
    """Validate the at-most-one-premiss / at-most-one-conclusion
    discipline; returns violations (empty when fine)."""
    violations = []
    seen_premiss = {}
    seen_conclusion = {}
    for i, link in enumerate(ps.frame.links):
        for v in map(ps.find, link.premisses):
            if v in seen_premiss:
                violations.append(f"vertex {v} premiss of links {seen_premiss[v]} and {i}")
            seen_premiss[v] = i
        for v in map(ps.find, link.conclusions):
            if v in seen_conclusion:
                violations.append(
                    f"vertex {v} conclusion of links {seen_conclusion[v]} and {i}"
                )
            seen_conclusion[v] = i
    for h in ps.frame.hypotheses:
        if h in seen_conclusion:
            violations.append(f"hypothesis {h} is the conclusion of a link")
    if ps.goal in seen_premiss:
        violations.append(f"goal {ps.goal} is the premiss of a link")
    return violations


def iter_redexes(aps: APS):
    """All currently available redexes: structural ones in element-id
    order, then logical ones in par-id order; and the number of
    elements matched to find them."""
    order = sorted(aps.combs.keys() | aps.crosses.keys()) + sorted(aps.pars)
    found = [r for r in (_match(aps, eid) for eid in order)
             if type(r) is Redex]
    return found, len(order)
