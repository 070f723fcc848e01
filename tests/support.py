"""Reference linkings for the tests, built without the linking search.

``all_linkings`` lists every linking of a frame in the order of its full
stream, pruned by nothing; ``has_cycle`` decides afterwards whether a
whole linking closes a directed cycle in the frame oriented as an
essential net. The search in ``proofstructure.enumerate_linkings``
skips exactly the linkings that have a cycle or, with anchors, whose
positions clash (``positions_clash``), so these are the references it
is checked against.
"""

from itertools import permutations, product

from dispnet.proofstructure import place, realize


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
    for index, linking in enumerate(itertools_order(frame)):
        yield realize(frame, linking, index)


def has_cycle(frame, linking):
    """Whether the frame under ``linking`` ((producer, consumer) pairs)
    has a directed cycle once oriented as an essential net (Lamarche):
    a tensor link's premisses point at its conclusion, a par link whose
    main formula is its premiss (L*, Lo) points from it at both parts,
    another par link (R/, R\\, R^, R!) points from its premiss at its
    main formula, and each axiom link points from producer to consumer."""
    edges = {v: [] for v in frame.vertices}
    for link in frame.links:
        if link.kind == "par" and link.main not in link.premisses:
            targets = (link.main,)
        else:
            targets = link.conclusions
        for a in link.premisses:
            edges[a].extend(targets)
    for producer, consumer in linking:
        edges[producer].append(consumer)

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


def positions_clash(frame, anchors, linking):
    """Whether unifying the string positions (``place``) of every axiom
    link of a whole linking makes two distinct constants meet."""
    pos, const = place(frame, anchors)
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
