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
by coordinate, and each known half walks it depth first, pruning a whole
subtree once its partial total passes the radius (the partial-distance
pruning of sphere decoding, run as a trie join).  Shorter inner lists, as
on sparse words and the deep hole, share too little to pay for a trie and
are scanned flat, pair by pair.

Two bounds cut pairs the scan would visit only to drop.  The ownership
limits filter the lists before the scan: a pair's tot is at most the
radius's limit, so a known w1 whose own total leaves no room for a w0 past
r0's limit feeds neither 1+ nor 1-, and a minus transform that leaves no
room for a plus transform past r_plus's limit feeds neither 0- nor 1-;
the filter is necessary, not sufficient, and the test after the scan
stays.  In the trie walk, coordinate j's term |base_j - den (1-i) T_j|^2
is at least its coset floor, the squared distance from base_j to the
lattice den (1-i) Z[i], which reads the outer K only through the parity of
K_j.re + K_j.im.  An outer whose total plus every floor passes the limit
is skipped whole, and a trie edge at depth j is held to the limit less
the floors of the coordinates after j.

Operation-counting convention (CostCounter, reported as `decode.ops` by
perfbench's traced run):

* base case: one op per grid cell examined;
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

Within one uncounted decode, each node of level >= 2 is decoded once per
distinct (word, den): a memo holds its list, and a repeat returns it.
Structured words repeat subproblems heavily: the level-8 all-phi/2 word
has 80 distinct nodes below its root, out of 87 380.  Levels 0 and 1 are
left out: their nodes are cheap and so many that building and holding
their keys costs more than the repeats save.  The memo belongs to one
call and never outlives it; the lists it hands back are shared, and
nothing downstream mutates them.  A counted decode neither reads nor
writes the memo: it decodes every node of the literal recursion, and a
list lives only until its parent's combine.

A `max_list` cap aborts the whole decode with MaxListExceeded as soon as
any list the decode builds, intermediate or final, exceeds it:
intermediate lists can blow up near eta = 1 even when the final list is
small, and the cap exists to protect batch runs from exactly that.  A
list in a subtree that the early exit skips is never built, so its size
cannot trip the cap; a counted decode builds every list and may raise
where an uncounted one returns.  The base case checks the cap as its
grid grows, so a huge radius fails before the grid is built, and a
combine's pair scan checks it as each survivor is stored.

Every combine runs through one pair scan, `_scan_blocks`, which holds
both the flat loop and the trie walk, and every decode through one
recursion, `_decode_core`, with one child schedule: r0 first; then, when
r0's list is non-empty, r1, r_plus and r_minus as one round
(`_decode_round`); otherwise r1 alone, and r_plus and r_minus as one
round only when r1's list is non-empty or the decode is counted.  A round
decodes its words in order, in-process, unless the node has more than
one worker.

`list_decode` clamps the worker count w to the CPU count, and an
uncounted decode of level >= 4 with w > 1, on a platform with os.fork,
spreads each of its root's rounds over up to w processes: the caller
itself and children forked by `_fork_map`, with no pool.  Each of the
root's rounds is one `_fork_map`: the round decodes each distinct word
not yet in the memo once, each with the in-process round's call; the
calls are dealt round-robin, the caller makes its own share in-process,
and each child inherits its arguments (the words and the memo) by the
fork, so nothing is pickled on the way in, and sends back its pickled
results.  Results and the first exception come back in call order, so
the output and a cap are the same at every worker count.  The root's r0
and its pair scan run in the caller.  A round has at most three words,
so it uses at most three processes at any w: w > 3 adds nothing.
Machines wider than two CPUs are unmeasured.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import isqrt
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

    def __reduce__(self):
        return (MaxListExceeded, (self.limit,))


class CostCounter:
    """Accumulates the counted arithmetic operations of one decode call."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0


class DecodeEntry(NamedTuple):
    point: BWPoint
    distance: Fraction


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
        # members share most coordinates, so each distinct one is formatted
        # once: half the time of formatting every coordinate of a large list
        text = {(x, y): f"{x},{y}"
                for x, y in {c for pt, _ in scaled for c in pt}}
        return [f"{' '.join(map(text.__getitem__, pt))}\t{Fraction(tot, scale)}"
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


def _decode_core(nums, den, n, p, q, counter, max_list, memo=None,
                 workers=1):
    """Returns [(point, tot)]: tot is the exact scaled squared distance
    sum_j |R_j - den * w_j|^2, so rsd(r, w) = tot / (den^2 * N).

    An uncounted call (`counter` None) memoises: `memo` maps the
    (nums, den) of each node of level >= 2 decoded so far to its list; a
    call without one starts its own, so a memo never outlives the decode
    it belongs to.  The lists it returns are shared and must not be
    mutated.  A counted call neither reads nor writes a memo, and adds
    each node's ops after its combine.

    `workers` > 1, given to an uncounted root call only, spreads the
    root's rounds over up to that many processes: the caller and forked
    children (`_fork_map`); see the module docstring.  The root's pair
    scan and every call below the root run in one process."""
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
        if memo is None:
            memo = {}
        if n >= 2:
            hit = memo.get((nums, den))
            if hit is not None:
                return hit
    r0, r1, rp, rm, den2 = _split_words(nums, den, n)
    sub0 = _decode_core(r0, den, n - 1, p, q, counter, max_list, memo)
    if sub0:
        # r0's list needs every other child
        sub1, subp, subm = _decode_round(
            ((r1, den), (rp, den2), (rm, den2)), n - 1, p, q, counter,
            max_list, memo, workers)
    else:
        sub1 = _decode_core(r1, den, n - 1, p, q, counter, max_list, memo)
        # with empty r0 and r1 lists no pair has a known half: the list is
        # empty, and an uncounted decode need not build the transformed
        # halves' lists
        subp = subm = []
        if sub1 or counter is not None:
            subp, subm = _decode_round(((rp, den2), (rm, den2)), n - 1, p,
                                       q, counter, max_list, memo, workers)
    out = _combine_core(nums, den, n, p, q, sub0, sub1, subp, subm, max_list)
    if counter is not None:
        # ops count every candidate pair, pruned or not
        npairs = (len(sub0) + len(sub1)) * (len(subp) + len(subm))
        counter.ops += (2 + npairs) << n
    elif n >= 2:
        memo[nums, den] = out
    return out


def _decode_round(words, n, p, q, counter, max_list, memo, workers):
    """The lists of `words`, (nums, den) pairs of level n, in order.

    With one worker each word is decoded in-process, in order, with the
    decode's counter and memo.  With more (an uncounted decode's root),
    the distinct words not in the memo are decoded by `_fork_map`, each
    with the call the in-process round makes: a child decodes with a
    copy-on-write copy of the memo, and a cap raised in any of them comes
    out where the in-process round would raise it."""
    if workers == 1:
        return [_decode_core(nums, den, n, p, q, counter, max_list, memo)
                for nums, den in words]
    todo = [key for key in dict.fromkeys(words) if key not in memo]
    lists = _fork_map(_decode_core,
                      [(nums, den, n, p, q, counter, max_list, memo)
                       for nums, den in todo], workers)
    memo.update(zip(todo, lists))
    return [memo[key] for key in words]


def _run_calls(fn, calls):
    """(results, exc): fn's results on `calls` in order up to the first
    call that raises an Exception, and that exception, or None."""
    results = []
    try:
        for args in calls:
            results.append(fn(*args))
    except Exception as exc:
        return results, exc
    return results, None


def _fork_map(fn, calls, workers):
    """[fn(*c) for c in calls], made by w = min(workers, len(calls))
    processes: process k makes calls[k::w] in order.

    Process 0 is the caller; processes 1 .. w-1 are forked children,
    which inherit their arguments, send back their pickled results
    through a pipe and leave through os._exit.  The first exception in
    call order is re-raised, where the in-process loop would raise it: a
    child whose calls all come after it is not waited for.  A child that
    ends without sending its result raises RuntimeError.  Every child is
    reaped on every exit; the read ends are closed first, so a child
    blocked writing a result nobody reads gets EPIPE and ends."""
    w = min(workers, len(calls))
    if w < 2:
        return [fn(*args) for args in calls]
    import pickle

    pids, readers = [], []
    lost = None
    try:
        for k in range(1, w):
            rfd, wfd = os.pipe()
            readers.append(open(rfd, "rb"))
            with open(wfd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # a read end held open here, a sibling's or its own,
                        # would keep a writer from seeing EPIPE
                        for reader in readers:
                            reader.close()
                        pickle.dump(_run_calls(fn, calls[k::w]), writer,
                                    pickle.HIGHEST_PROTOCOL)
                        writer.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        results, error = _run_calls(fn, calls[::w])
        parts = [results]
        # the index of the first call that raised, len(calls) if none did
        first = len(calls) if error is None else len(results) * w
        for k, (pid, reader) in enumerate(zip(pids, readers), 1):
            if k >= first:
                break
            data = reader.read()
            if not data:
                lost = pid
                break
            results, exc = pickle.loads(data)
            parts.append(results)
            if exc is not None and k + len(results) * w < first:
                first, error = k + len(results) * w, exc
    finally:
        for reader in readers:
            reader.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in pids}
    if lost is not None:
        raise RuntimeError(
            f"worker process {lost} ended with exit status "
            f"{os.waitstatus_to_exitcode(statuses[lost])} before sending "
            f"its result")
    if error is not None:
        raise error
    out = [None] * len(calls)
    for k, results in enumerate(parts):
        out[k::w] = results
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

    Coordinate j of inner point T is keyed by den * (1-i) * T_j as an
    (re, im) pair, the term every pairing subtracts from its outer's
    scaled residual.  A node is a dict from key to either a child node or,
    where only one point shares the prefix, that point's index in
    `inners`: the leaf stores the point whole.  Returns (root, keys) with
    keys[i] the full key tuple of inners[i].  Built by grouping, without
    recursion: each node groups its points by their next key, in order of
    first appearance; the inner points must be distinct.
    """
    keys = [tuple((den * (c + d), den * (d - c)) for c, d in pt)
            for pt, _ in inners]
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
    return root, keys


def _coset_floor(x, y, den):
    """min |(x, y) - den (1-i) T|^2 over every Gaussian integer T.

    den (1-i) T runs over the (u, v) = (x - y, x + y) points with both
    coordinates multiples of D = 2 den, and |z|^2 = (u^2 + v^2) / 2, so
    each rotated coordinate is reduced to its nearest multiple of D; u and
    v have one parity, so the halving is exact."""
    d = den + den
    u = x - y
    v = x + y
    u -= d * ((u + den) // d)
    v -= d * ((v + den) // d)
    return (u * u + v * v) >> 1


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
    blocks with the same inner list share its trie.  For an outer K the
    scaled residual at coordinate j is
    t_sign * (t_sign * (R_j - k_sign * den * K_j) - key_j), so one base
    vector per outer turns every trie edge into a subtraction and a square.
    Each coordinate's term is at least its coset floor (`_coset_floor`),
    one of two values per coordinate by the parity of K_j.re + K_j.im: an
    outer whose total plus all its floors passes `limit` is skipped, and
    caps[j], `limit` less the floors after coordinate j, bounds the partial
    total through j.  The walk is depth first on an explicit stack and
    drops a subtree once its partial total passes its depth's cap; a leaf
    scans the rest of its point flat against `limit`.

    The `max_list` cap is checked as each survivor is stored, so the scan
    stops at the (max_list + 1)-th point rather than after the last pair.
    """
    out = []
    trie_of = None
    for outers, inners, (t_sign, k_sign, unknown_left, own0, own_p) in blocks:
        off = 0 if unknown_left else half
        if len(inners) < _TRIE_MIN:
            for known_pt, known_tot in outers:
                for trans_pt, trans_tot in inners:
                    tot = known_tot
                    buf = []
                    for j in range(half):
                        a, b = known_pt[j]
                        c, d = trans_pt[j]
                        wx = t_sign * (c + d) + k_sign * a
                        wy = t_sign * (d - c) + k_sign * b
                        ra, rb = nums[off + j]
                        dx = ra - wx * den
                        dy = rb - wy * den
                        tot += dx * dx + dy * dy
                        if tot > limit:
                            break
                        buf.append((wx, wy))
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
            trie_of, (root, keys) = inners, _inner_trie(inners, den)
        tk = t_sign * k_sign * den
        rs = [(t_sign * ra, t_sign * rb) for ra, rb in nums[off:off + half]]
        # coordinate j's least term over every T_j, for K_j.re + K_j.im even
        # and odd: den * K_j is in the lattice den (1-i) Z[i] just when even
        floors = [(_coset_floor(xr, yr, den), _coset_floor(xr - den, yr, den))
                  for xr, yr in rs]
        for known_pt, known_tot in outers:
            # caps[j]: the most the total through coordinate j may be, as the
            # coordinates after j add at least their floors
            caps = [limit] * half
            cap = limit
            for j in range(half - 1, 0, -1):
                a, b = known_pt[j]
                cap -= floors[j][(a + b) & 1]
                caps[j - 1] = cap
            a, b = known_pt[0]
            if known_tot > cap - floors[0][(a + b) & 1]:
                continue
            base = [(xr - tk * a, yr - tk * b)
                    for (a, b), (xr, yr) in zip(known_pt, rs)]
            stack = [(root, 0, known_tot)]
            while stack:
                node, j, acc = stack.pop()
                bx, by = base[j]
                cap = caps[j]
                for (su, sv), child in node.items():
                    dx = bx - su
                    dy = by - sv
                    tot = acc + dx * dx + dy * dy
                    if tot > cap:
                        continue
                    if child.__class__ is dict:
                        stack.append((child, j + 1, tot))
                        continue
                    kt = keys[child]
                    for m in range(j + 1, half):
                        su, sv = kt[m]
                        cx, cy = base[m]
                        dx = cx - su
                        dy = cy - sv
                        tot += dx * dx + dy * dy
                        if tot > limit:
                            break
                    else:
                        trans_pt, trans_tot = inners[child]
                        if (tot - known_tot <= own0
                                or 4 * tot - trans_tot <= own_p):
                            continue
                        body = tuple(
                            (t_sign * (c + d) + k_sign * a,
                             t_sign * (d - c) + k_sign * b)
                            for (a, b), (c, d) in zip(known_pt, trans_pt)
                        )
                        out.append((body + known_pt if unknown_left
                                    else known_pt + body, tot))
                        if max_list is not None and len(out) > max_list:
                            raise MaxListExceeded(max_list)
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
    calls at every node, in-process at any worker count and without the
    memo, and adds its ops
    to `counter.ops`; without one, it skips the subtrees that cannot hold
    a member (see the module docstring).  The list is the same either way;
    only a `max_list` cap can tell them apart, as the counted decode builds
    lists the uncounted one skips.

    `workers` is clamped to the CPU count w.  An uncounted decode of a word
    of level 4 or more with w > 1 spreads each of its root's rounds, at
    most three child decodes, over up to w processes: the caller and the
    children it forks for the round, and reaps on every exit, a raised cap
    included.  There is no pool.  The root's pair scan runs in the caller.
    Where os.fork is missing the decode runs in-process.  The decoder
    starts no thread; a threaded caller that passes w > 1 takes on the
    usual hazards of forking a threaded process.  The output is the same,
    byte for byte, at every worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    if max_list is not None and max_list < 0:
        raise ValueError("max_list must be >= 0")
    # each worker past the first is a forked process: no more than the
    # machine has, and none where the platform cannot fork
    workers = min(workers, os.cpu_count() or 1)
    # a counted decode stays the in-process recursion at any worker count
    if r.n < 4 or counter is not None or not hasattr(os, "fork"):
        workers = 1
    nums, den = vector_to_scaled(r)
    pts = _decode_core(nums, den, r.n, eta.numerator, eta.denominator,
                       counter, max_list, workers=workers)
    return DecodeList(len(r), den, pts)


# the name the benchmark's traced run imports
list_decode_parallel = list_decode
