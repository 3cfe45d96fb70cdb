"""Trivalent track neighborhoods on closed oriented surfaces.

Combinatorial model: a track of genus g has 12g-12 switches and 18g-18
rectangles.  Each switch is a tie segment with one wide side (``big``) and
two narrow sides (``small_first``, ``small_second``); each rectangle end
plugs into exactly one (switch, port) slot.  Complementary cells (plaques)
must all be trigons: their boundary crosses exactly three switch cusps.

Planar frame used throughout: at every switch the big rectangle attaches on
the west, the smalls on the east, ties run vertically, and the canonical tie
orientation points north (big side on the left).  small_first is the lower
small port.  All boundary walks keep the surface on the left.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import frozen_attribute, memo

BIG = "big"
SMALL_FIRST = "small_first"
SMALL_SECOND = "small_second"
PORTS = (BIG, SMALL_FIRST, SMALL_SECOND)

LEFT = "left"
RIGHT = "right"

Slot = Tuple[int, str]


class TrackError(ValueError):
    """Structural defect in a track; ``code`` is a stable identifier."""

    code = "track_error"


class PortCollision(TrackError):
    code = "port_collision"


class UnusedSlot(TrackError):
    """A switch slot that no rectangle end plugs into."""

    code = "unused_slot"


class CellShapeError(TrackError):
    code = "cell_shape"


class GenusMismatch(TrackError):
    code = "genus_mismatch"


class DisconnectedTrack(TrackError):
    code = "disconnected"


class TreeStructureError(TrackError):
    code = "tree_structure"


class FixtureSearchError(TrackError):
    code = "fixture_search"


def is_big(port: str) -> bool:
    return port == BIG


class Rect(NamedTuple):
    id: int
    end0: Slot
    end1: Slot

    def end(self, e: int) -> Slot:
        return self.end0 if e == 0 else self.end1

    @property
    def ends(self) -> Tuple[Slot, Slot]:
        return (self.end0, self.end1)


class Plaque(NamedTuple):
    """Trigon cell; switches stored counterclockwise along its boundary."""

    id: int
    switches_ccw: Tuple[int, int, int]

    def position(self, t: int) -> int:
        return self.switches_ccw.index(t)

    # Successor in the clockwise boundary order is the previous ccw entry.
    def plus(self, t: int) -> int:
        return self.switches_ccw[(self.position(t) - 1) % 3]

    def minus(self, t: int) -> int:
        return self.switches_ccw[(self.position(t) + 1) % 3]


class ValidationReport(NamedTuple):
    valid: bool
    genus: int
    n_switches: int
    n_rectangles: int
    n_plaques: int
    errors: Tuple[Tuple[str, str], ...]


# A switch's three internal arcs, keyed by the port whose in-corner each one
# leaves: the arc's kind and the port whose out-corner it reaches.  The arc
# between the two smalls crosses the switch's cusp.
SWITCH_ARCS: Dict[str, Tuple[str, str]] = {
    BIG: ("h", SMALL_FIRST),
    SMALL_FIRST: ("cusp", SMALL_SECOND),
    SMALL_SECOND: ("h", BIG),
}


def exit_side(port: str, bit: int) -> str:
    """Side of an exit tie: tree on the right means a left exit."""
    if is_big(port):
        return LEFT if bit == 0 else RIGHT
    return RIGHT if bit == 0 else LEFT


def transport_preserves(p0: str, p1: str) -> bool:
    # Crossing a rectangle keeps the canonical frame iff the port kinds differ.
    return is_big(p0) != is_big(p1)


# Boundary-walk corners are ints: (s, port, y) is 6*s + 2*rank + y, rank the port's
# place in PORTS and y 0 = low, 1 = high, so they sort as the triples do for any int
# switch id.  A walk with the surface on its left re-enters a switch at a port's
# in-corner (y 1 on a small port) and leaves at its out-corner, the other y; per port,
# both offsets and the kind and end offset of the arc `SWITCH_ARCS` runs from the first.
_IN_CORNER = {p: 2 * i + (p != BIG) for i, p in enumerate(PORTS)}
_PORT_CORNERS = tuple((p, _IN_CORNER[p] ^ 1, _IN_CORNER[p], kind, _IN_CORNER[q] ^ 1)
                      for p, (kind, q) in SWITCH_ARCS.items())
Arc = Tuple[str, object, int]  # (kind, payload, next corner)


def _corners(track: "TrainTrack", switches: Iterable[int],
             crosses: FrozenSet[int]) -> Dict[int, Arc]:
    """The boundary arc out of each corner at ``switches``: (kind, payload, next corner).

    The `SWITCH_ARCS` run inside each switch, with the switch as payload; each
    port's out-corner crosses its rectangle if ``crosses`` holds it (payload
    None), else exits along the tie (payload (rect id, end)).
    """
    slots, rects = track.slot_map(), track.rect_by_id
    succ: Dict[int, Arc] = {}
    for s in switches:
        c = 6 * s
        for p, out, enter, kind, reach in _PORT_CORNERS:
            succ[c + enter] = (kind, s, c + reach)
            rid, e = slots[s, p]
            if rid in crosses:
                t, q = rects[rid][2 - e]  # the rectangle's other end
                succ[c + out] = ("h", None, 6 * t + _IN_CORNER[q])
            else:
                succ[c + out] = ("exit", (rid, e), c + enter)
    return succ


def _loop(succ: Dict[int, Arc], start: int) -> List[Arc]:
    """Pop the loop through ``start`` from ``succ``; returns its arcs in order."""
    arcs, c = [], start
    while c in succ:
        arc = succ.pop(c)
        arcs.append(arc)
        c = arc[2]
    return arcs


class TrainTrack:
    def __init__(self, genus: int, switch_ids: Sequence[int], rects: Sequence[Rect]):
        self.genus = int(genus)
        self.switch_ids: Tuple[int, ...] = tuple(sorted(switch_ids))
        self.rects: Tuple[Rect, ...] = tuple(sorted(rects, key=lambda r: r.id))
        self.rect_by_id: Dict[int, Rect] = {r.id: r for r in self.rects}

    # -- structure ---------------------------------------------------------

    def slot_map(self) -> Dict[Slot, Tuple[int, int]]:
        """(switch, port) -> (rect id, end index); raises on collisions."""
        return memo(self, "slot_map", _map_slots)

    def _trace_cells(self) -> List[List[int]]:
        """Trace full boundary; returns each cell's switch cycle in cw order."""
        succ = _corners(self, self.switch_ids, frozenset(self.rect_by_id))
        loops = [_loop(succ, start) for start in sorted(succ) if start in succ]
        return [[payload for kind, payload, _ in arcs if kind == "cusp"] for arcs in loops]

    def finalize(self) -> None:
        """Check all structural invariants; compute plaques."""
        self.plaques

    @property
    def plaques(self) -> Tuple[Plaque, ...]:
        """The plaques in id order, traced once the structural invariants hold."""
        return memo(self, "plaques", _trace_plaques)

    def plaque_of_switch(self, t: int) -> Plaque:
        return memo(self, "plaque_of_switch", _map_plaque_of_switch)[t]


def _trace_plaques(track: TrainTrack) -> Tuple[Plaque, ...]:
    track.slot_map()
    g = track.genus
    if g < 2:
        raise GenusMismatch(f"genus {g} < 2")
    if len(track.switch_ids) != 12 * g - 12 or len(track.rects) != 18 * g - 18:
        raise GenusMismatch(
            f"expected {12 * g - 12} switches / {18 * g - 18} rectangles, "
            f"got {len(track.switch_ids)} / {len(track.rects)}"
        )
    # Connectivity of the switch graph.
    adj: Dict[int, List[int]] = {s: [] for s in track.switch_ids}
    for r in track.rects:
        adj[r.end0[0]].append(r.end1[0])
        adj[r.end1[0]].append(r.end0[0])
    reach = _reach(track.switch_ids[0], adj.__getitem__)
    if len(reach) != len(track.switch_ids):
        raise DisconnectedTrack(f"only {len(reach)} of {len(track.switch_ids)} switches reachable")
    cells = track._trace_cells()
    for cusps in cells:
        if len(cusps) != 3:
            raise CellShapeError(f"cell crosses {len(cusps)} switch cusps, expected 3")
    euler = (len(track.switch_ids) - len(track.rects)) + len(cells)
    if euler != 2 - 2 * g:
        raise GenusMismatch(f"euler characteristic {euler} != {2 - 2 * g}")
    plaques = []
    for cusps in cells:
        ccw = tuple(reversed(cusps))
        k = ccw.index(min(ccw))
        plaques.append(tuple(ccw[k:] + ccw[:k]))
    return tuple(Plaque(i, sw) for i, sw in enumerate(sorted(plaques)))


def _map_plaque_of_switch(track: TrainTrack) -> Dict[int, Plaque]:
    return {t: pl for pl in track.plaques for t in pl.switches_ccw}


def _reach(start: int, neighbours) -> set:
    """The switches reachable from ``start`` along ``neighbours(switch)``."""
    reach, todo = {start}, [start]
    while todo:
        for n in neighbours(todo.pop()):
            if n not in reach:
                reach.add(n)
                todo.append(n)
    return reach


def _map_slots(track: TrainTrack) -> Dict[Slot, Tuple[int, int]]:
    if len(track.rect_by_id) != len(track.rects):
        raise PortCollision("rectangle ids are not unique")
    m: Dict[Slot, Tuple[int, int]] = {}
    sset = set(track.switch_ids)
    for r in track.rects:
        for e, slot in enumerate(r.ends):
            s, p = slot
            if s not in sset or p not in PORTS:
                raise PortCollision(f"rectangle {r.id} end {e} targets unknown slot {slot}")
            if slot in m:
                raise PortCollision(f"slot {slot} used by rectangles {m[slot][0]} and {r.id}")
            m[slot] = (r.id, e)
    for s in track.switch_ids:
        for p in PORTS:
            if (s, p) not in m:
                raise UnusedSlot(f"slot {(s, p)} is unused")
    return m


def validate(track: TrainTrack) -> ValidationReport:
    errors: List[Tuple[str, str]] = []
    try:
        track.finalize()
    except TrackError as err:
        errors.append((err.code, str(err)))
    return ValidationReport(
        valid=not errors,
        genus=track.genus,
        n_switches=len(track.switch_ids),
        n_rectangles=len(track.rects),
        n_plaques=0 if errors else len(track.plaques),
        errors=tuple(errors),
    )


# -- fixtures ---------------------------------------------------------------

# Largest genus `generate_fixture` builds and `gen-fixture --genus` accepts, so
# that a mistyped genus fails at once instead of running on.  Each of a call's
# g-2 handle steps searches only the 38 chains it opens, their ends numbered in
# three int lists, and each attempt still copies the pairing and walks the
# whole track for connectivity, so a call grows as g with a small g^2 part:
# seeds 1-10 took at most 90 ms at g=100 (p50 78 ms) and 12 ms at g=20 on a
# 2-vCPU host, best of six runs each.
MAX_GENUS = 100

# Node cap of one search attempt.  Attempt k of a step may search
# 4 * n_free * 1.5**k nodes (n_free is 36 at genus 2, 38 for a handle), which
# reaches this cap from the 15th attempt on; a capped attempt costs about 0.1 s
# on a 2-vCPU host (p50 98 ms, at most 149 ms over 108 searches of an unpairable
# odd slot set to the cap), so it bounds how long one attempt can stall.
MAX_SEARCH_NODES = 30_000

# Attempts per step before the search gives up.  The hardest step measured
# (genus 2 for seeds 1-200, every handle up to g=20 for seeds 1-50) needed 5,
# and 97% of the handles at most 2; 200 bounds one step at about half a minute
# of capped attempts, so an unlucky seed fails with `FixtureSearchError` rather
# than running on.
MAX_SEARCH_ATTEMPTS = 200


def generate_fixture(g: int, seed: int) -> TrainTrack:
    """Seeded genus-g track: a genus-2 search, then g-2 handles.

    Base case: `_pair_slots` pairs every slot of switches 0..11.  Handle step:
    one seeded-random rectangle is removed, 12 switches with the next ids are
    added, and the 38 free slots are re-paired around the fixed pairs of the
    rest.  The search of a step reads only the chains its free slots open,
    their ends numbered by free slot in three int lists, so its cost does not
    grow with the genus; the copy of the pairing and the connectivity walk
    of each attempt do.  A step that leaves the track disconnected, as when
    its freed slots pair back with each other and cut the new switches off,
    is retried like a capped one.  Each handle adds 12 switches, 18
    rectangles and 4 trigons.

    Restart schedule: attempt k of a step searches at most
    ``min(MAX_SEARCH_NODES, 4 * n_free * 1.5**k)`` nodes before it restarts
    with fresh randomization (and, past genus 2, another rectangle), so a stuck
    attempt is abandoned early and later attempts get geometrically more room.
    Everything is deterministic in the seed; ``FixtureSearchError`` is raised
    when one step fails ``MAX_SEARCH_ATTEMPTS`` attempts.  Rectangles are
    numbered in slot order, and `validate` checks the result.
    """
    if g < 2:
        raise GenusMismatch(f"genus {g} < 2")
    if g > MAX_GENUS:
        raise GenusMismatch(f"genus {g} > MAX_GENUS = {MAX_GENUS}")
    pairing: Dict[Slot, Slot] = {}
    for h in range(2, g + 1):
        last = None
        for attempt in range(MAX_SEARCH_ATTEMPTS):
            try:
                pairing = _grow(pairing, h, seed, attempt)
                break
            except FixtureSearchError as err:
                last = err
        else:
            raise FixtureSearchError(
                f"no valid genus-{h} track after {MAX_SEARCH_ATTEMPTS} attempts: {last}")
    n_sw = 12 * g - 12
    ends = [(a, pairing[a]) for a in _slots(range(n_sw)) if a < pairing[a]]
    track = TrainTrack(g, range(n_sw), [Rect(i, *pair) for i, pair in enumerate(ends)])
    report = validate(track)
    if not report.valid:
        raise FixtureSearchError(f"search produced invalid track: {report.errors}")
    return track


def _slots(switches: Iterable[int]) -> List[Slot]:
    return [(s, p) for s in switches for p in PORTS]


def _grow(pairing: Dict[Slot, Slot], g: int, seed: int, attempt: int) -> Dict[Slot, Slot]:
    """Attempt ``attempt`` at a genus-g pairing: the genus-2 search when
    ``pairing`` is empty, else one handle on the genus-(g-1) ``pairing``."""
    # at genus 2 this is seed * 1_000_003 + attempt, the stream of the pinned genus-2 tracks
    rng = random.Random(seed * 1_000_003 + attempt + (g - 2) * 1_000_000_007)
    n_sw = 12 * g - 12
    fixed = dict(pairing)
    free = _slots(range(n_sw - 12, n_sw))
    if pairing:
        s, i = divmod(rng.choice(range(3 * (n_sw - 12))), 3)
        a = (s, PORTS[i])
        b = fixed.pop(a)
        del fixed[b]
        free[:0] = (a, b)
    cap = int(min(MAX_SEARCH_NODES, 4 * len(free) * 1.5 ** attempt))
    grown = _pair_slots(fixed, free, rng, cap)
    reach, todo = {0}, [0]  # the switches reachable from switch 0 through grown's pairs
    while todo:
        s = todo.pop()
        for p in PORTS:
            t = grown[s, p][0]
            if t not in reach:
                reach.add(t)
                todo.append(t)
    if len(reach) < n_sw:
        raise FixtureSearchError("the re-paired track is disconnected")
    return grown


def _pair_slots(pairing: Dict[Slot, Slot], free: List[Slot], rng: random.Random,
                max_nodes: int) -> Dict[Slot, Slot]:
    """Pair the ``free`` slots around the fixed pairs of ``pairing``, into
    ``pairing``, so that every cell is a trigon; returns ``pairing``.

    Slots are paired one at a time along open boundary chains.  One chain
    starts at each free slot's in-corner and runs along `SWITCH_ARCS` and
    fixed pairs to the first free out-corner; every other chain is a closed
    trigon of the fixed part, so a handle step seeds its 38 chains by walking
    only the cells around the freed rectangle, not the whole track.  A branch
    is cut as soon as a chain accumulates more than three cusps or closes on
    a number other than three.

    Chain ends are numbered: free slot i is ``free[i]``, and its out-corner
    (a chain's tail) and in-corner (a chain's head) both carry the number i.
    Three int lists hold the open chains: ``head_of[tail]``, ``tail_of[head]``
    and ``cusps[head]``.  A join leaves the entries of the two ends it closes
    as they were, so its undo record restores only the three entries it
    wrote, and closing a trigon writes none.  A search node builds no corner
    tuple: slots are mapped back through ``free`` only when a pair is written
    into ``pairing``, on the way back from a complete pairing.

    Selection order: each node pairs the most constrained unmatched slot,
    the one whose outgoing and incoming chains carry the most cusps between
    them (ties go to the earlier slot in the unmatched list).  Its partners
    are tried in the order `_shuffle` draws from ``rng``.  More than
    ``max_nodes`` nodes raise ``FixtureSearchError``.
    """
    number = {a: i for i, a in enumerate(free)}
    head_of, tail_of, cusps = [0] * len(free), [0] * len(free), [0] * len(free)
    for i, (s, p) in enumerate(free):
        count = 0
        while True:
            kind, q = SWITCH_ARCS[p]
            count += kind == "cusp"
            j = number.get((s, q))
            if j is not None:
                break
            s, p = pairing[(s, q)]
        tail_of[i], head_of[j], cusps[i] = j, i, count

    def connect(u: int, v: int):
        """Join the chain ending at out-corner u to the one starting at
        in-corner v: an undo record (empty when a trigon closes), or None if
        the trigon condition is violated."""
        head = head_of[u]
        if head == v:
            return () if cusps[v] == 3 else None
        c = cusps[head]
        if c + cusps[v] > 3:
            return None
        tail = tail_of[v]
        tail_of[head], head_of[tail], cusps[head] = tail, head, c + cusps[v]
        return head, u, c, tail, v

    def undo(record) -> None:
        if record:
            head, u, c, tail, v = record
            tail_of[head], head_of[tail], cusps[head] = u, v, c

    def try_pair(a: int, b: int):
        """Join out(a) -> in(b), then out(b) -> in(a); returns an undo record,
        or None if either join breaks the trigon condition."""
        first = connect(a, b)
        if first is None:
            return None
        second = connect(b, a)
        if second is None:
            undo(first)
            return None
        return first, second

    # Unmatched slot numbers: swap-pop removal and append restore, both O(1).
    unmatched = list(range(len(free)))
    index = list(unmatched)

    def take(a: int) -> None:
        i = index[a]
        moved = unmatched.pop()
        if moved != a:
            unmatched[i] = moved
            index[moved] = i

    def put(a: int) -> None:
        index[a] = len(unmatched)
        unmatched.append(a)

    nodes, getrandbits = 0, rng.getrandbits

    def search() -> bool:
        nonlocal nodes
        if not unmatched:
            return True
        nodes += 1
        if nodes > max_nodes:
            raise FixtureSearchError(f"search exceeded {max_nodes} nodes; retry with a new seed")
        # cusps on the chains through a slot's corners; 3 on either forces a
        # trigon.  The first slot of the greatest pressure wins.
        a, most = 0, -1
        for x in unmatched:
            pressure = cusps[head_of[x]] + cusps[x]
            if pressure > most:
                a, most = x, pressure
        take(a)
        order = unmatched[:]
        _shuffle(order, getrandbits)
        # the first join's refusal, read once: each tried partner is undone before the next
        head, c = head_of[a], cusps[head_of[a]]
        for b in order:
            if (cusps[b] != 3) if b == head else (c + cusps[b] > 3):
                continue
            record = try_pair(a, b)
            if record is None:
                continue
            take(b)
            if search():
                pairing[free[a]], pairing[free[b]] = free[b], free[a]
                return True
            put(b)
            undo(record[1])
            undo(record[0])
        put(a)
        return False

    if not search():
        raise FixtureSearchError("no pairing found")
    return pairing


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place as `random.Random.shuffle` does, drawing from
    ``getrandbits``, a `random.Random`'s bound method, in this one frame.

    CPython 3.10-3.12 swaps ``x[i]`` with ``x[j]`` for i from the end down to 1,
    each j being ``getrandbits(k)``, k the bit length of i + 1, drawn again while
    it exceeds i (`_randbelow_with_getrandbits`).  Here no ``_randbelow`` call is
    made per element, and the permutation and generator state stay the stdlib's.
    """
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


# -- oriented spanning trees -------------------------------------------------


class OrientedTree:
    """A maximal tree with its tie orientations; read-only, its derived data kept by `memo`."""

    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, track: TrainTrack, edges: FrozenSet[int], root: int, root_bit: int,
                 orientation: Mapping[int, int]):  # switch -> 0 canonical / 1 reversed
        vars(self).update(track=track, edges=edges, root=root, root_bit=root_bit,
                          orientation=orientation)

    def bit(self, s: int) -> int:
        return self.orientation[s]

    def flipped(self) -> "OrientedTree":
        flipped = {s: b ^ 1 for s, b in self.orientation.items()}
        return OrientedTree(self.track, self.edges, self.root, self.root_bit ^ 1, flipped)


def _propagate(track: TrainTrack, edges: FrozenSet[int], root: int, root_bit: int) -> Dict[int, int]:
    o = {root: root_bit}
    todo = [root]
    incident: Dict[int, List[Rect]] = {}
    for rid in edges:
        r = track.rect_by_id[rid]
        incident.setdefault(r.end0[0], []).append(r)
        incident.setdefault(r.end1[0], []).append(r)
    while todo:
        s = todo.pop()
        for r in incident.get(s, []):
            (s0, p0), (s1, p1) = r.ends
            if s1 == s:
                s0, p0, s1, p1 = s1, p1, s0, p0
            nb = o[s0] if transport_preserves(p0, p1) else o[s0] ^ 1
            if s1 not in o:
                o[s1] = nb
                todo.append(s1)
            elif o[s1] != nb:
                raise TreeStructureError(f"edge set not acyclic near switch {s1}")
    return o


def maximal_tree(
    track: TrainTrack,
    seed: Optional[int] = None,
    edges: Optional[Iterable[int]] = None,
    root: Optional[int] = None,
    root_bit: int = 0,
) -> OrientedTree:
    track.finalize()
    n = len(track.switch_ids)
    if edges is None:
        rng = random.Random(seed)
        order = list(track.rects)
        _shuffle(order, rng.getrandbits)
        parent = {s: s for s in track.switch_ids}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for r in order:
            a, b = find(r.end0[0]), find(r.end1[0])
            if a != b:
                parent[a] = b
                chosen.append(r.id)
        edge_set = frozenset(chosen)
    else:
        edge_set = frozenset(edges)
        unknown = edge_set - track.rect_by_id.keys()
        if unknown:
            raise TreeStructureError(f"edges {sorted(unknown)} are not rectangles")
    if len(edge_set) != n - 1:
        raise TreeStructureError(f"{len(edge_set)} edges cannot span {n} switches")
    if root is None:
        root = track.switch_ids[0]
    o = _propagate(track, edge_set, root, root_bit)
    if len(o) != n:
        raise TreeStructureError(f"edge set spans only {len(o)} of {n} switches")
    return OrientedTree(track, edge_set, root, root_bit, o)


class Classification(NamedTuple):
    orientable: FrozenSet[int]
    u_left: FrozenSet[int]
    u_right: FrozenSet[int]
    s_left: FrozenSet[int]
    s_right: FrozenSet[int]
    e_left: Tuple[Tuple[int, int], ...]
    e_right: Tuple[Tuple[int, int], ...]

    @property
    def unorientable(self) -> FrozenSet[int]:
        return self.u_left | self.u_right


def classify(tree: OrientedTree) -> Classification:
    """Rectangle and switch classes of a tree, computed once per tree."""
    return memo(tree, "classify", _classify)


def _classify(tree: OrientedTree) -> Classification:
    track = tree.track
    o = tree.orientation
    orientable_set = set()
    u_left = set()
    u_right = set()
    e_left: List[Tuple[int, int]] = []
    e_right: List[Tuple[int, int]] = []
    for r in track.rects:
        if r.id in tree.edges:
            continue
        sides = {}
        for e, (s, p) in enumerate(r.ends):
            if s not in o:
                continue
            side = exit_side(p, o[s])
            sides[e] = side
            (e_left if side == LEFT else e_right).append((r.id, e))
        if len(sides) < 2:
            continue
        (s0, p0), (s1, p1) = r.ends
        transported = o[s0] if transport_preserves(p0, p1) else o[s0] ^ 1
        if transported == o[s1]:
            orientable_set.add(r.id)
            assert sides[0] != sides[1]
        elif sides[0] == LEFT:
            assert sides[1] == LEFT
            u_left.add(r.id)
        else:
            assert sides[1] == RIGHT
            u_right.add(r.id)
    s_left = frozenset(s for s in o if o[s] == 1)
    s_right = frozenset(s for s in o if o[s] == 0)
    return Classification(
        orientable=frozenset(orientable_set),
        u_left=frozenset(u_left),
        u_right=frozenset(u_right),
        s_left=s_left,
        s_right=s_right,
        e_left=tuple(sorted(e_left)),
        e_right=tuple(sorted(e_right)),
    )


class CoverLifts:
    """Chosen lifts in the orientation double cover.

    A lift of a rectangle is encoded by its tie-orientation bit in the frame
    of its end0 switch; the covering involution flips the bit.  The chosen
    lift of every tree or orientable rectangle restricts to the tree
    orientation; for unorientable rectangles the recorded choice is the lift
    agreeing with the tree orientation at end0.
    """

    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, tree: OrientedTree, r_bit: Mapping[int, int]):
        vars(self).update(tree=tree, r_bit=r_bit)

    def end_bit(self, rid: int, lift_bit: int, e: int) -> int:
        r = self.tree.track.rect_by_id[rid]
        if e == 0:
            return lift_bit
        (_, p0), (_, p1) = r.ends
        return lift_bit if transport_preserves(p0, p1) else lift_bit ^ 1


def orientation_cover(tree: OrientedTree) -> CoverLifts:
    return CoverLifts(tree, {r.id: tree.orientation.get(r.end0[0], 0) for r in tree.track.rects})


# -- boundary walk -----------------------------------------------------------


class Step(NamedTuple):
    type: str  # "leaf" | "switch" | "rectangle"
    switch: Optional[int] = None
    side: Optional[str] = None
    rect: Optional[int] = None
    end: Optional[int] = None
    arcs: int = 0


def boundary_walk(tree: OrientedTree) -> Tuple[Step, ...]:
    """Counterclockwise boundary of the tree as typed steps, walked once per tree.

    Crossings (switch cusps and exit ties) alternate with leaf steps; each
    leaf step is a maximal horizontal run.
    """
    return memo(tree, "boundary_walk", _walk)


def _walk(tree: OrientedTree) -> Tuple[Step, ...]:
    track = tree.track
    o = tree.orientation
    succ = _corners(track, o, tree.edges)
    arcs = _loop(succ, min(succ))
    if succ:
        raise TreeStructureError("tree boundary is not a single loop")

    first_cross = next(i for i, (k, _, _) in enumerate(arcs) if k != "h")
    arcs = arcs[first_cross:] + arcs[:first_cross]
    # each step built in field order, without NamedTuple's keyword __new__
    new, steps, run = tuple.__new__, [], 0
    for kind, payload, _ in arcs:
        if kind == "h":
            run += 1
            continue
        if steps:
            steps.append(new(Step, ("leaf", None, None, None, None, run)))
        run = 0
        if kind == "cusp":
            s = payload  # type: ignore[assignment]
            steps.append(new(Step, ("switch", s, RIGHT if o[s] == 0 else LEFT, None, None, 0)))
        else:
            rid, e = payload  # type: ignore[misc]
            s, p = track.rect_by_id[rid].end(e)
            steps.append(new(Step, ("rectangle", None, exit_side(p, o[s]), rid, e, 0)))
    steps.append(new(Step, ("leaf", None, None, None, None, run)))
    return tuple(steps)


# The track document format lives in `io`; these names stay importable here.
from .io import track_from_json, track_to_json  # noqa: E402,F401
