"""Exact list decoding by recursive halving.

`list_decode(r, eta)` returns every lattice member w with
rsd(r, w) <= eta, with exact rational distances.  The recursion splits the
received word r = [r0, r1] into four level-(n-1) subproblems at the same
radius: r0, r1 and the two transformed words

    r_plus  = (phi/2) (r0 + r1)        r_minus = (phi/2) (r0 - r1)

then reassembles candidates from the four returned lists.  For a member
w = [w0, w1], knowing any one half plus the matching transform
(phi/2)(w0 +/- w1) determines the other half linearly, which is what the
four pairings in `_scan_blocks` implement.  Assembled candidates are
always members; the exact distance filter then keeps those within radius.
A member is found by every pairing whose two child lists hold its halves,
and only the first of them in scan order 0+, 1+, 0-, 1- keeps it.  The
halves' scaled distances add up: tot0 + tot1 = tot, and
tot_plus + tot_minus = 4 tot, as the transformed words' den is doubled and
|phi|^2 = 2.  So a pair's tot gives the exact distance of each half its
pairing did not use, and the limit of that half's child decode tells
whether an earlier pairing's list holds it.  Each member is assembled
once.

Internally everything runs on integer (re, im) pairs over one common
denominator so that every comparison is an integer comparison.  The result
keeps those integers too: `DecodeList.to_lines` formats straight from them,
and Fractions appear only when a caller iterates.

Candidate pairs are screened by a reconstruct-and-test scan: the child
lists carry each point's exact scaled squared distance, so a pair's total
distance accumulates coordinate by coordinate from the known half's total,
and a pair is dropped once its partial total exceeds the radius; only
surviving candidates are ever materialized.  For a fixed known half,
coordinate j's term depends only on the transformed half's coordinate j,
so inner lists that share coordinate prefixes share that work: an inner
list of at least _TRIE_MIN points goes into a radix trie keyed coordinate
by coordinate, and the known halves walk it together, pruning a whole
subtree once its partial total passes the radius (the partial-distance
pruning of sphere decoding, run as a trie join).  Known halves share
their leading coordinates too, so the walk is dual-tree, after Gray and
Moore's N-body algorithms: a state pairs the group of known halves that
share K[:j] with the frontier of inner prefixes still within reach of
one of them, and splits the group by K_j at each depth.  A term reads
only K_j and T_j, so each block tabulates, for each K_j that occurs, the
row of terms over the distinct T_j at depth j; a trie edge then costs an
addition and a lookup.  Shorter inner lists, as on sparse words and the
deep hole, share too little to pay for a trie and are scanned flat, pair
by pair.  The flat scan does each inner point's work once: it runs inner
by inner, and for an inner T it forms U = t_sign (1-i) T and the scaled
residual e = R - den U before the outers, so a pair's term at coordinate
j is |e_j - k_sign den K_j|^2 and a survivor's coordinate is
U_j + k_sign K_j.

Two bounds cut pairs the scan would visit only to drop.  The ownership
limits filter the lists before the scan: a pair's tot is at most the
radius's limit, so a known w1 whose own total leaves no room for a w0 past
r0's limit feeds neither 1+ nor 1-, and a minus transform that leaves no
room for a plus transform past r_plus's limit feeds neither 0- nor 1-;
the filter is necessary, not sufficient, and the test after the scan
stays.  In the trie walk, coordinate j's term is at least the least
entry of its row, the floor: the term of the nearest inner value present
at that depth.  An outer whose total plus every floor passes the limit
is skipped whole, and its inner terms through depth j are held to its
cap, the limit less its total and the floors after j.  A group is held
to the loosest cap among its outers, so a pair is dropped only once it
passes its own outer's cap.

Operation-counting convention (CostCounter, reported as `decode.ops` by
perfbench's traced run):

* base case (level 0): one op per grid cell examined;
* each internal node, after its combine: 2N ops for forming the two
  transformed half-words, plus N ops per candidate pair, the envelope of
  the reconstruct-and-test scan, counted from the list sizes whether the
  flat scan or the trie join visits it.

A node decodes its plain halves r0 and r1 first.  When both lists come
back empty, an uncounted decode returns the empty list without decoding
r_plus and r_minus.  This is exact: both halves of a member w = [w0, w1]
are level-(n-1) members, and rsd(r, w) = (rsd(r0, w0) + rsd(r1, w1)) / 2,
so a member within eta of r has a half within eta of r0 or of r1; with
no known half there is no pair to assemble.  A decode given a
CostCounter runs the literal recursion instead, all four child calls at
every node, so counted ops track the 4**n envelope rather than the luck
of a particular received word.

An uncounted decode does not split a level-1 node into four level-0
calls: level 1 is {(w0, w1) in Z[i]^2 : w1 - w0 in phi Z[i]}, the pairs
whose re + im parities agree, so `_level_one` enumerates each w0 within
the radius and then each w1 of its parity within the room left.  Per-call
overhead is most of a level-1 node's cost, and the level-1 nodes are most
of the nodes of a sparse decode.  A counted decode keeps the literal
recursion down to level 0.

Within one uncounted decode, each node of level >= 2 is decoded once per
distinct (word, den): a memo holds its list, and a repeat returns it.
Structured words repeat subproblems heavily: the level-8 all-phi/2 word
has 80 distinct nodes below its root, out of 87 380.  Level-1 nodes are
left out: they are cheap and so many that building and holding their keys
costs more than the repeats save.  The memo belongs to one
call and never outlives it; the lists it hands back are shared, and
nothing downstream mutates them.  A counted decode neither reads nor
writes the memo: it decodes every node of the literal recursion, and a
list lives only until its parent's combine.

A `max_list` cap aborts the whole decode with MaxListExceeded as soon as
any list the decode builds, intermediate or final, exceeds it:
intermediate lists can blow up near eta = 1 even when the final list is
small, and the cap exists to protect batch runs from exactly that.  A
list that an uncounted decode never builds cannot trip the cap: a list in
a subtree that the early exit skips, and the level-0 lists under a
level-1 node, which it enumerates directly.  A counted decode builds
every list and may raise where an uncounted one returns.  The level-0
grid and the level-1 enumeration check the cap as each member is stored,
so a huge radius fails before the grid is built, and a combine's pair
scan checks it as each survivor is stored.

Every combine runs through one pair scan, `_scan_blocks`, which holds
both the flat loop and the trie walk, and every decode through one
recursion, `_decode_core`, with one child schedule: r0, then r1, then
r_plus and r_minus, unless an uncounted decode got two empty lists or is
at level 1.

Every decode runs in this one process, at any worker count: `list_decode`
checks its `workers` argument and reads it no further.  The paper's
parallel bound, poly-logarithmic depth given enough processors, is not
exercised here.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from bwlist.arith import (
    CVector,
    GaussianInt,
    RationalLike,
    vector_to_scaled,
)
from bwlist.lattice import BWPoint

# join outers against a radix trie of any inner list at least this long;
# shorter inner lists are scanned flat, pair by pair
_TRIE_MIN = 8


class MaxListExceeded(RuntimeError):
    """A decode list grew past the configured cap."""

    def __init__(self, limit: int) -> None:
        # every cap check raises at the list's (limit + 1)-th entry
        super().__init__(f"list size {limit + 1} exceeds cap {limit}")
        self.limit = limit


class CostCounter:
    """Accumulates the counted arithmetic operations of one decode call."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0


class DecodeEntry(NamedTuple):
    point: BWPoint
    distance: Fraction


class _CoordText(dict):
    """The text of each (re, im) coordinate, formatted on its first lookup:
    a pass to collect the distinct coordinates first would hash every
    coordinate of every member once more."""

    __slots__ = ()

    def __missing__(self, key):
        x, y = key
        text = self[key] = f"{x},{y}"
        return text


class DecodeList:
    """The members within a radius of a received word, each with its exact
    relative squared distance, in canonical order.

    Built from what the decoder produces: scaled entries ((re, im) pairs,
    tot), tot the exact scaled squared distance
    sum_j |den * r_j - den * w_j|^2, so the relative squared distance is
    tot / (den^2 * size), size the vector length.  The list keeps them
    sorted, with the one scale den^2 * size, and `to_lines` formats
    straight from those integers.  The DecodeEntry objects behind the
    `entries` property and iteration are built when first read and then
    cached; `len` builds none.
    """

    __slots__ = ("_scaled", "_scale", "_entries")

    def __init__(self, size: int, den: int, entries) -> None:
        self._scaled = sorted(entries)
        self._scale = den * den * size
        self._entries = None

    @property
    def entries(self) -> tuple[DecodeEntry, ...]:
        if self._entries is None:
            scale = self._scale
            self._entries = tuple(
                DecodeEntry(BWPoint(GaussianInt(x, y) for x, y in pt),
                            Fraction(tot, scale))
                for pt, tot in self._scaled
            )
        return self._entries

    def __len__(self) -> int:
        return len(self._scaled)

    def __iter__(self) -> Iterator[DecodeEntry]:
        return iter(self.entries)

    def to_lines(self) -> list[str]:
        """One 'vector<TAB>rsd' line per entry, in canonical order: the text
        of `format_vector(e.point)` and `e.distance`, formatted from the
        scaled integers."""
        scaled, scale = self._scaled, self._scale
        # members share most coordinates and distances, so each distinct one
        # is formatted once: half the time of formatting every coordinate of
        # a large list
        text = _CoordText()
        dist = {tot: f"\t{Fraction(tot, scale)}" for tot in {t for _, t in scaled}}
        if scaled and len(scaled[0][0]) == 1:
            # itemgetter of one key returns the value, not a 1-tuple
            return [text[pt[0]] + dist[tot] for pt, tot in scaled]
        return [" ".join(itemgetter(*pt)(text)) + dist[tot]
                for pt, tot in scaled]


# ---------------------------------------------------------------------------
# Core recursion on scaled integers
# ---------------------------------------------------------------------------


def _split_words(nums, den, n):
    """Children of one node: r0, r1, the two transformed words, their den."""
    half = 1 << (n - 1)
    r0, r1 = nums[:half], nums[half:]
    rp, rm = [], []
    for (a, b), (c, d) in zip(r0, r1):
        sa, sb = a + c, b + d
        da, db = a - c, b - d
        rp.append((sa - sb, sa + sb))
        rm.append((da - db, da + db))
    return r0, r1, tuple(rp), tuple(rm), den + den


def _decode_core(nums, den, n, p, q, counter, max_list, memo=None):
    """Returns [(point, tot)]: tot is the exact scaled squared distance
    sum_j |R_j - den * w_j|^2, so rsd(r, w) = tot / (den^2 * N).

    An uncounted call (`counter` None) decodes a level-1 node with
    `_level_one` and memoises: `memo` maps the (nums, den) of each node of
    level >= 2 decoded so far to its list; a call without one starts its
    own, so a memo never outlives the decode it belongs to.  The lists it
    returns are shared and must not be mutated.  A counted call neither
    reads nor writes a memo, and adds each node's ops after its combine."""
    if n == 0:
        a0, b0 = nums[0]
        limit = (p * den * den) // q
        m = isqrt(limit) + 1
        xlo, xhi = -((m - a0) // den), (a0 + m) // den
        ylo, yhi = -((m - b0) // den), (b0 + m) // den
        out = []
        for x in range(xlo, xhi + 1):
            dx = a0 - x * den
            cx = dx * dx
            for y in range(ylo, yhi + 1):
                dy = b0 - y * den
                tot = cx + dy * dy
                if tot <= limit:
                    out.append((((x, y),), tot))
                    # the cap fires before the rest of the grid is built
                    if max_list is not None and len(out) > max_list:
                        raise MaxListExceeded(max_list)
        if counter is not None:
            counter.ops += (xhi - xlo + 1) * (yhi - ylo + 1)
        return out

    if counter is None:
        if n == 1:
            return _level_one(nums, den, p, q, max_list)
        if memo is None:
            memo = {}
        hit = memo.get((nums, den))
        if hit is not None:
            return hit
    r0, r1, rp, rm, den2 = _split_words(nums, den, n)
    sub0 = _decode_core(r0, den, n - 1, p, q, counter, max_list, memo)
    sub1 = _decode_core(r1, den, n - 1, p, q, counter, max_list, memo)
    # with empty r0 and r1 lists no pair has a known half: the list is
    # empty, and an uncounted decode need not build the transformed halves'
    # lists
    subp = subm = []
    if sub0 or sub1 or counter is not None:
        subp = _decode_core(rp, den2, n - 1, p, q, counter, max_list, memo)
        subm = _decode_core(rm, den2, n - 1, p, q, counter, max_list, memo)
    out = _combine_core(nums, den, n, p, q, sub0, sub1, subp, subm, max_list)
    if counter is not None:
        # ops count every candidate pair, pruned or not
        npairs = (len(sub0) + len(sub1)) * (len(subp) + len(subm))
        counter.ops += (2 + npairs) << n
    else:
        memo[nums, den] = out
    return out


def _disc(a, b, den, limit):
    """(x, y, t) for every Gaussian integer x + y i within the scaled
    radius: t = |(a, b) - den (x, y)|^2 <= limit, column by column."""
    s = isqrt(limit)
    for x in range(-((s - a) // den), (a + s) // den + 1):
        dx = a - x * den
        cx = dx * dx
        sy = isqrt(limit - cx)
        for y in range(-((sy - b) // den), (b + sy) // den + 1):
            dy = b - y * den
            yield x, y, cx + dy * dy


def _level_one(nums, den, p, q, max_list):
    """The level-1 list, enumerated directly rather than from four level-0
    lists: the members are the pairs (w0, w1) of Gaussian integers whose
    re + im parities agree, as w1 - w0 is in phi Z[i].  Each w0 within the
    radius is paired with every w1 of its parity within the room it
    leaves, and the cap is checked as each member is stored."""
    (a0, b0), (a1, b1) = nums
    limit = (p * den * den * 2) // q
    out = []
    for x0, y0, t0 in _disc(a0, b0, den, limit):
        for x1, y1, t1 in _disc(a1, b1, den, limit - t0):
            if not (x0 + y0 + x1 + y1) & 1:
                out.append((((x0, y0), (x1, y1)), t0 + t1))
                if max_list is not None and len(out) > max_list:
                    raise MaxListExceeded(max_list)
    return out


# Per pairing: which child lists pair up, the reconstruction signs for the
# unknown half w = t_sign * (1-i) * T + k_sign * K, and whether the unknown
# half is the left one.  2/phi = 1 - i, so (1-i)(c + d i) = (c+d) + (d-c) i.
_PAIRING_SPECS = {
    "0+": (1, -1, False),
    "0-": (-1, 1, False),
    "1+": (1, -1, True),
    "1-": (1, 1, True),
}


def _inner_trie(inners, den):
    """Radix trie of the inner list, keyed coordinate by coordinate.

    Depth j is keyed by a small int: the index of the inner point's
    coordinate T_j among the distinct values at that depth, in order of
    first appearance.  tvals[j] lists those values as den * (1-i) * T_j,
    the (re, im) term every pairing subtracts from its outer's scaled
    residual.  A node is a dict from key to either a child node or, where
    only one point shares the prefix, that point's index in `inners`: the
    leaf stores the point whole.  Returns (root, keys, tvals) with keys[i]
    the full key tuple of inners[i].  Built by grouping, without recursion:
    each node groups its points by their next key, in order of first
    appearance; the inner points must be distinct.
    """
    index = [{} for _ in inners[0][0]]
    keys = [tuple([ix.setdefault(c, len(ix)) for ix, c in zip(index, pt)])
            for pt, _ in inners]
    tvals = [[(den * (c + d), den * (d - c)) for c, d in ix] for ix in index]
    root = {}
    stack = [(root, range(len(keys)), 0)]
    while stack:
        node, ids, j = stack.pop()
        # the node maps each next key to its group, then to a leaf or child
        for i in ids:
            node.setdefault(keys[i][j], []).append(i)
        for k, group in node.items():
            if len(group) == 1:
                node[k] = group[0]
            else:
                node[k] = child = {}
                stack.append((child, group, j + 1))
    return root, keys, tvals


def _term_tables(outers, rs, tk, tvals, limit):
    """The outers a trie block can pair, each with its caps, and the
    block's term tables.

    rs[j] is t_sign * R_j and tk is t_sign * k_sign * den, so a pair's
    term at coordinate j is |rs[j] - tk K_j - tvals[j][k]|^2, k the
    index of T_j.  tables[j] maps each outer value K_j that occurs to
    (row, floor): row[k] that term for every value in tvals[j], floor the
    row's least entry, a lower bound on the term of every inner.  An
    outer comes back as (K, K's tot, caps), caps[j] = limit - K's tot less
    the floors after coordinate j: the most its inner terms through j may
    add up to.  An outer whose caps cannot be met is left out.
    """
    half = len(rs)
    tables = [{} for _ in range(half)]
    out = []
    for known_pt, known_tot in outers:
        caps = [0] * half
        cap = limit - known_tot
        for j in range(half - 1, -1, -1):
            caps[j] = cap
            kj = known_pt[j]
            entry = tables[j].get(kj)
            if entry is None:
                xr, yr = rs[j]
                a, b = kj
                bx, by = xr - tk * a, yr - tk * b
                row = [(bx - su) ** 2 + (by - sv) ** 2 for su, sv in tvals[j]]
                entry = tables[j][kj] = (row, min(row))
            cap -= entry[1]
        if cap >= 0:
            out.append((known_pt, known_tot, caps))
    return out, tables


def _scan_blocks(nums, den, half, limit, blocks, max_list):
    """Survivors of the pair scan over `blocks` as a list of (point, tot),
    each point once.

    Each block is (outers, inners, spec), spec the pairing's
    (t_sign, k_sign, unknown_left) from _PAIRING_SPECS followed by
    (own0, own_p): every outer known half K is tried against every inner
    transformed half T, the unknown half being
    w = t_sign * (1-i) * T + k_sign * K.  A pair's exact scaled distance
    accumulates coordinate by coordinate from K's stored total, the pair is
    dropped as soon as it exceeds `limit`, and only survivors are
    reconstructed.  A survivor is kept only if tot - K's tot exceeds own0
    and 4 * tot - T's tot exceeds own_p.  Where K is w1, the first is
    the scaled distance of w0 and own0 the limit of r0's decode; where T is
    (phi/2)(w0 - w1), the second is that of (phi/2)(w0 + w1) and own_p the
    limit of r_plus's.  So a member is kept by the first pairing in
    scan order whose lists hold its halves, and by no other; -1 keeps every
    survivor.  As tot <= `limit`, `_combine_core` has already dropped each
    outer K with K's tot >= limit - own0 and each inner T with
    T's tot >= 4 * limit - own_p, from which no pair can be kept.

    An inner list shorter than _TRIE_MIN shares too few prefixes to pay for
    a trie and is scanned flat, pair by pair.  A longer one is put in a
    radix trie (`_inner_trie`) that the outers join against; consecutive
    blocks with the same inner list share its trie.  The pair's term at
    coordinate j is |t_sign R_j - t_sign k_sign den K_j - den (1-i) T_j|^2,
    which `_term_tables` tabulates per block: for each K_j that occurs, a
    row over the trie's distinct T_j at depth j and the row's minimum, the
    floor.  It also gives each outer its caps, caps[j] the most the pair's
    inner terms through j may add up to: `limit` less K's tot and the
    floors after j.  The walk runs on an explicit stack of states: a group
    of outers that share K[:j] and a frontier of (trie node or leaf, the
    inner terms through j - 1).  At depth j the group splits by K_j, and
    each part reads its row and keeps every child within the largest cap
    among its outers; a leaf holds one point and steps one coordinate at a
    time.  At depth `half` each group is one outer and each frontier entry
    one pair, which gets the exact tests: tot <= `limit`, then ownership.

    The `max_list` cap is checked as each survivor is stored, so the scan
    stops at the (max_list + 1)-th point rather than after the last pair.
    """
    out = []
    trie_of = None
    for outers, inners, (t_sign, k_sign, unknown_left, own0, own_p) in blocks:
        off = 0 if unknown_left else half
        if len(inners) < _TRIE_MIN:
            # per inner T: U = t_sign (1-i) T and the scaled residual
            # e = R - den U, so a pair's coordinate term is
            # |e_j - k_sign den K_j|^2 and its unknown half U + k_sign K
            rs = nums[off:off + half]
            kd = k_sign * den
            for trans_pt, trans_tot in inners:
                terms = []
                for (c, d), (ra, rb) in zip(trans_pt, rs):
                    ux, uy = t_sign * (c + d), t_sign * (d - c)
                    terms.append((ra - den * ux, rb - den * uy, ux, uy))
                for known_pt, known_tot in outers:
                    tot = known_tot
                    buf = []
                    for (a, b), (ex, ey, ux, uy) in zip(known_pt, terms):
                        dx = ex - kd * a
                        dy = ey - kd * b
                        tot += dx * dx + dy * dy
                        if tot > limit:
                            break
                        buf.append((ux + k_sign * a, uy + k_sign * b))
                    else:
                        if (tot - known_tot <= own0
                                or 4 * tot - trans_tot <= own_p):
                            continue
                        body = tuple(buf)
                        out.append((body + known_pt if unknown_left
                                    else known_pt + body, tot))
                        if max_list is not None and len(out) > max_list:
                            raise MaxListExceeded(max_list)
            continue
        if inners is not trie_of:
            trie_of, (root, keys, tvals) = inners, _inner_trie(inners, den)
        rs = [(t_sign * ra, t_sign * rb) for ra, rb in nums[off:off + half]]
        group, tables = _term_tables(outers, rs, t_sign * k_sign * den,
                                     tvals, limit)
        # a state is a group of outers that share K[:j] and the frontier of
        # (trie node or leaf index, their shared inner terms through j - 1)
        stack = [(group, 0, [(root, 0)])]
        while stack:
            group, j, front = stack.pop()
            if j == half:
                # the groups are single outers by now, and each entry a pair
                for known_pt, known_tot, _ in group:
                    for child, acc in front:
                        tot = known_tot + acc
                        trans_pt, trans_tot = inners[child]
                        if (tot > limit or acc <= own0
                                or 4 * tot - trans_tot <= own_p):
                            continue
                        body = tuple([
                            (t_sign * (c + d) + k_sign * a,
                             t_sign * (d - c) + k_sign * b)
                            for (a, b), (c, d) in zip(known_pt, trans_pt)
                        ])
                        out.append((body + known_pt if unknown_left
                                    else known_pt + body, tot))
                        if max_list is not None and len(out) > max_list:
                            raise MaxListExceeded(max_list)
                continue
            if len(group) == 1:
                subs = (group,)
            else:
                split = {}
                for outer in group:
                    split.setdefault(outer[0][j], []).append(outer)
                subs = split.values()
            table = tables[j]
            for sub in subs:
                row = table[sub[0][0][j]][0]
                # the loosest cap in the group: a pair past its own cap
                # but under another outer's goes on, to be dropped later
                cap = max([outer[2][j] for outer in sub])
                nxt = []
                for node, acc in front:
                    if node.__class__ is dict:
                        for k, child in node.items():
                            tot = acc + row[k]
                            if tot <= cap:
                                nxt.append((child, tot))
                    else:
                        # a leaf holds one point: step to its next key
                        tot = acc + row[keys[node][j]]
                        if tot <= cap:
                            nxt.append((node, tot))
                if nxt:
                    stack.append((sub, j + 1, nxt))
    return out


def _combine_core(nums, den, n, p, q, sub0, sub1, subp, subm, max_list):
    # with no transformed half there is no pair
    if not (subp or subm):
        return []
    size = 1 << n
    half = size >> 1
    limit = (p * den * den * size) // q
    # the limits of r0's and r_plus's decodes: a pairing owns a member only
    # if an earlier pairing's lists miss its w0 or its plus transform.  As
    # tot <= limit, a w1 can feed 1+ and 1- only if its w0 may lie past
    # lim0, and a minus transform can feed 0- and 1- only if its plus
    # transform may lie past lim_p.  The filter is necessary, not
    # sufficient: the scan still tests each survivor
    lim0 = (p * den * den * half) // q
    lim_p = (p * 4 * den * den * half) // q
    top = limit - lim0
    sub1 = [e for e in sub1 if e[1] < top]
    top = 4 * limit - lim_p
    subm = [e for e in subm if e[1] < top]
    # the pairings that share an inner list are adjacent and read the same
    # list object, so the scan builds one trie per inner list
    blocks = [
        (outers, inners, _PAIRING_SPECS[pairing] + own)
        for pairing, outers, inners, own in (
            ("0+", sub0, subp, (-1, -1)),
            ("1+", sub1, subp, (lim0, -1)),
            ("0-", sub0, subm, (-1, lim_p)),
            ("1-", sub1, subm, (lim0, lim_p)),
        )
        if outers and inners
    ]
    return _scan_blocks(nums, den, half, limit, blocks, max_list)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def list_decode(
    r: CVector,
    eta: RationalLike,
    workers: int = 1,
    *,
    max_list: Optional[int] = None,
    counter: Optional[CostCounter] = None,
) -> DecodeList:
    """All members within relative squared distance eta of r, exactly.

    With a `counter`, the decode runs the literal recursion, all four child
    calls at every node, without the memo, and adds its ops to
    `counter.ops`; without one, it skips the subtrees that cannot hold
    a member (see the module docstring).  The list is the same either way;
    only a `max_list` cap can tell them apart, as the counted decode builds
    lists the uncounted one skips.

    `workers` must be at least 1 and changes nothing else: every decode
    runs in this process, so the output is the same, byte for byte, at
    every worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    if max_list is not None and max_list < 0:
        raise ValueError("max_list must be >= 0")
    nums, den = vector_to_scaled(r)
    pts = _decode_core(nums, den, r.n, eta.numerator, eta.denominator,
                       counter, max_list)
    return DecodeList(len(r), den, pts)


# the name the benchmark's traced run imports
list_decode_parallel = list_decode
