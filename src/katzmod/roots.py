"""Root systems of the simple types, exponents, and the Weyl dimension formula.

A simple type is its Dynkin diagram and the half squared lengths d_i of its
simple roots, shortest 1 (Bourbaki LIE VI, Planches I-IX).  The Cartan matrix
is derived from them: linked simple roots have (alpha_i, alpha_j) =
-max(d_i, d_j), and A[i][j] = <alpha_j, alpha_i^vee> = (alpha_i, alpha_j) / d_i.
Positive roots are generated from the Cartan matrix by root-string closure
(Bourbaki LIE VI 1.6), one height layer at a time, with no Euclidean
coordinates: a candidate alpha + alpha_i is a root exactly when
q = p - <alpha, alpha_i^vee> is positive, where p is the depth of the
alpha_i-string below alpha.  A root is packed into one integer, one byte per
simple-root coordinate with alpha_0 in the most significant byte, so
alpha + alpha_i is one integer addition and integer order is coordinate order.
Each root is stored as those n bytes: indexing gives its coordinates, and
bytes order is coordinate order too.  Each root of the current layer carries
sparse maps up from the layer below: its string depths where they are
positive, and its pairings where they are nonzero or its depth is positive
(a zero copied from the root below may stay; it is tried and refused).
Since q >= 1 needs p > 0 or a negative pairing, only the indices of the
pairing map are tried, not all n.  The pairings of
alpha + alpha_i are those of alpha plus the sparse Cartan column i; its depth
along alpha_j is set by the root alpha + alpha_i - alpha_j when that lies in
the layer.  Nothing is probed.  Each root also carries its Weyl denominator
h_alpha = sum_j c_j d_j: h of alpha + alpha_i is h_alpha + d_i, one addition
per new root, so the Weyl dimension formula makes no second pass over the
roots.  Exponents have a closed form for every type (Bourbaki LIE VI,
Planches I-IX), given by type_exponents without building anything; each
root system that is built also reads them off its layer sizes
as their dual partition (the number of exponents >= h equals the number of
positive roots of height h; Kostant) and refuses to exist if the two
disagree.  2 rho^vee in the simple-coroot basis has a closed form too
(principal_heights), checked against the equation A^T x = (2, ..., 2) it
solves.  A lower rank of a classical type is cut from a higher one
(restrict): the last nodes of A_N, B_N, C_N or D_N form the same type, and
its roots are those of the higher one that vanish on the first coordinates,
a prefix of each height layer, so a sweep over the ranks of one type runs
one closure.  The cut reads the layers only up to the first that keeps no
root, and keeps each root's last coordinates as one bytes slice.  Dimensions
of irreducibles come from the Weyl dimension formula, multiplying only the
factors that differ from 1, lowest height first; as no factor is below 1, a
search up to a bound drops a weight once they pass it.  As no factor falls
when a coordinate grows, the weights inside a bound form a staircase, closed
downwards, and the search walks it once: it raises one coordinate at a time
above a weight found inside and goes on into the later coordinates from each
weight it finds, so each weight it probes is one step above a weight inside,
in its last nonzero coordinate, and is probed once.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import count
from operator import itemgetter

from .linalg import _is_int, _check_type

# each letter's first and last rank: every rank from the first for the four
# classical series (D_3 permitted; isomorphic to A_3), a few for the others
_RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}
SIMPLE_TYPES = tuple(_RANKS)


def _valid_type(type_label, rank):
    if not _is_int(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if type_label not in SIMPLE_TYPES:
        return False
    first, last = _RANKS[type_label]
    return first <= rank and (last is None or rank <= last)


def _ranks(type_label):
    """A letter's ranks in increasing order, without end for A, B, C and D."""
    first, last = _RANKS[type_label]
    return count(first) if last is None else range(first, last + 1)


_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def type_exponents(type_label, rank):
    """Sorted exponents of a simple type in closed form, with no root system."""
    if not _valid_type(type_label, rank):
        raise ValueError(f"not a simple type: {type_label}{rank}")
    if type_label == "A":
        return tuple(range(1, rank + 1))
    if type_label in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if type_label == "D":
        return tuple(sorted((*range(1, 2 * rank - 2, 2), rank - 1)))
    return _EXCEPTIONAL_EXPONENTS[(type_label, rank)]


_EXCEPTIONAL_HEIGHTS = {
    ("E", 6): (16, 22, 30, 42, 30, 16),
    ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58),
    ("F", 4): (22, 42, 30, 16),
    ("G", 2): (6, 10),
}


def principal_heights(type_label, rank):
    """2 rho^vee = sum_i x_i alpha_i^vee of a simple type, as the tuple x, in closed form.

    A dominant weight lam has principal height <lam, 2 rho^vee> = sum lam_i x_i,
    the h-eigenvalue of its highest weight vector under the principal sl2.  x
    is 2 rho of the dual type (Bourbaki LIE VI, Planches I-IX) and solves
    A^T x = (2, ..., 2); that equation is checked in one pass over the Dynkin
    edges, and RuntimeError raised if it fails.
    """
    edges, d = _dynkin(type_label, rank)
    n = rank
    if type_label == "A":
        x = [i * (n + 1 - i) for i in range(1, n + 1)]
    elif type_label == "B":
        x = [i * (2 * n + 1 - i) for i in range(1, n)] + [n * (n + 1) // 2]
    elif type_label == "C":
        x = [i * (2 * n - i) for i in range(1, n + 1)]
    elif type_label == "D":
        x = [i * (2 * n - 1 - i) for i in range(1, n - 1)] + [n * (n - 1) // 2] * 2
    else:
        x = list(_EXCEPTIONAL_HEIGHTS[(type_label, rank)])
    # sum_i x_i A[i][j]: 2 x_j from the diagonal, and A[i][j] = -max(d_i, d_j) / d_i
    # for each Dynkin edge
    sums = [2 * v for v in x]
    for i, j in edges:
        m = max(d[i], d[j])
        sums[j] -= x[i] * m // d[i]
        sums[i] -= x[j] * m // d[j]
    if any(s != 2 for s in sums):
        raise RuntimeError(f"{type_label}{rank}: heights {tuple(x)} do not solve A^T x = 2")
    return tuple(x)


def _dynkin(type_label, rank):
    """Dynkin edges and half squared simple-root lengths d, Bourbaki numbering."""
    if not _valid_type(type_label, rank):
        raise ValueError(f"not a simple type: {type_label}{rank}")
    n = rank
    edges = [(i, i + 1) for i in range(n - 1)]
    if type_label == "D":
        edges[-1] = (n - 3, n - 1)
    elif type_label == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][:n - 2] + [(1, 3)]
    d = {"B": (2,) * (n - 1) + (1,), "C": (1,) * (n - 1) + (2,),
         "F": (2, 2, 1, 1), "G": (1, 3)}.get(type_label, (1,) * n)
    return edges, d


def _cartan(edges, d):
    a = [[2 if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    for i, j in edges:
        a[i][j] = -max(d[i], d[j]) // d[i]
        a[j][i] = -max(d[i], d[j]) // d[j]
    return a


def cartan_matrix(type_label, rank):
    """Cartan matrix with A[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering."""
    return _cartan(*_dynkin(type_label, rank))


class RootSystem(namedtuple("RootSystem", "type_label rank cartan positive_roots "
                                         "symmetrizers exponents rho_pairings")):
    """A simple type's root system.

    cartan holds the rows of the Cartan matrix, positive_roots the roots in
    the simple-root basis as bytes, one byte per coordinate (no coefficient
    exceeds 6), symmetrizers the d_i (half the squared simple-root lengths,
    shortest 1; with the Dynkin edges they give the Cartan matrix) and
    exponents the sorted dual partition of the height-layer sizes.
    rho_pairings holds the Weyl denominators
    h_alpha = sum_j c_j d_j of the positive roots alpha = sum_j c_j alpha_j,
    in positive_roots order: h_alpha is <rho, alpha^vee> (alpha, alpha) / 2,
    carried by the closure.  It takes part in ==, hash and repr, but it is
    derived from the other fields, so two genuine systems are equal exactly
    when those are.
    """
    __slots__ = ()

    @property
    def name(self):
        return f"{self.type_label}{self.rank}"

    @property
    def a3_isomorphic(self):
        # D_3 carries the same root system as A_3
        return self.type_label == "D" and self.rank == 3


@lru_cache(maxsize=None, typed=True)
def build_root_system(type_label, rank):
    """Root system for one simple type, positive roots by string closure."""
    edges, d = _dynkin(type_label, rank)
    cartan = _cartan(edges, d)
    n = rank
    # alpha_i packed, alpha_0 in the most significant byte; one byte per
    # coordinate suffices because no coefficient of a root exceeds 6 (the
    # highest root of E_8), so sums never carry into the next coordinate
    unit = [1 << 8 * (n - 1 - i) for i in range(n)]
    # column i of the Cartan matrix, sparse: adding alpha_i to a root changes
    # its pairings <., alpha_j^vee> by A[j][i], for the diagonal and at most
    # 3 neighbours j
    cols = [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]
    # the current height layer: root -> (its pairings, its positive depths
    # p_j, its h = sum_j c_j d_j)
    layer = {unit[i]: (dict(cols[i]), {}, d[i]) for i in range(n)}
    positive = []
    denominators = []        # h of each positive root, in the same order
    sizes = []               # number of positive roots of each height 1, 2, ...
    while layer:
        for r in sorted(layer):
            positive.append(r.to_bytes(n, "big"))
            denominators.append(layer[r][2])
        sizes.append(len(layer))
        nxt = {}
        for alpha, (pairings, depths, h) in layer.items():
            for i, a in pairings.items():
                p = depths.get(i, 0)
                if p - a < 1:
                    continue
                t = alpha + unit[i]
                entry = nxt.get(t)
                if entry is None:
                    up = pairings.copy()
                    for j, c in cols[i]:
                        v = up.get(j, 0) + c
                        if v:
                            up[j] = v
                        else:
                            del up[j]
                    entry = nxt[t] = (up, {}, h + d[i])
                # every root t - alpha_j lies in this layer and reaches t, so
                # each positive depth of t is set here, its pairing kept even
                # when 0 so that the index is tried
                entry[0].setdefault(i, 0)
                entry[1][i] = p + 1
        layer = nxt
    return RootSystem(type_label, rank, tuple(tuple(r) for r in cartan), tuple(positive),
                      d, _layer_exponents(type_label, rank, sizes), tuple(denominators))


def _layer_exponents(type_label, rank, sizes):
    """The exponents read off the sizes of the height layers 1, 2, ..., as
    their dual partition; RuntimeError unless they are the closed form."""
    sizes = [*sizes, 0]
    exps = tuple(h for h in range(1, len(sizes)) for _ in range(sizes[h - 1] - sizes[h]))
    want = type_exponents(type_label, rank)
    if exps != want:
        raise RuntimeError(f"{type_label}{rank}: layer sizes give exponents {exps}, "
                           f"not the closed form {want}")
    return exps


def restrict(rs, rank):
    """rs's classical type at a lower rank, cut from rs, as a RootSystem; rs at its own rank.

    In Bourbaki numbering the last `rank` nodes of A_N, B_N, C_N or D_N form
    the diagram of the same type at that rank, and the roots of a subdiagram
    are the roots in the span of its simple roots (Bourbaki LIE VI 1.7): those
    whose first m = N - rank coordinates are 0.  positive_roots runs through
    the height layers, layer h holding the #{exponents >= h} roots of height h
    in coordinate order, so the kept roots are a prefix of each layer, found
    by one bisection against the unit vector of coordinate m - 1 and taken,
    with their Weyl denominators, by one builtin slice per layer.  The layers
    are read up to the first one that keeps no root: every positive root of
    height h + 1 is one of height h plus a simple root (Bourbaki LIE VI 1.6,
    Prop. 19), so in the cut, as in any root system, no layer above an empty
    one holds a root.  Each kept root keeps its last `rank` coordinates (one
    bytes slice per root), the Cartan matrix its lower-right block and d its
    last `rank` entries.  The exponents are read again from the cut layer
    sizes and checked against the closed form, and the layers must hold every
    root of rs; RuntimeError otherwise.  A rank that is not an int, or is a
    bool, or is above rs.rank or not a rank of the type, and a lower rank of
    E, F or G, raise ValueError.
    """
    if not _is_int(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if rank == rs.rank:
        return rs
    if rs.type_label not in ("A", "B", "C", "D") or rank > rs.rank \
            or not _valid_type(rs.type_label, rank):
        raise ValueError(f"cannot cut {rs.type_label}{rank} from {rs.name}")
    m = rs.rank - rank
    unit = bytes(m - 1) + b"\x01" + bytes(rank)
    roots, exps = rs.positive_roots, rs.exponents
    # the layer sizes #{exponents >= h} add up to the sum of the exponents
    if sum(exps) != len(roots):
        raise RuntimeError(f"{rs.name}: {len(roots)} positive roots, but its exponents "
                           f"give layers of {sum(exps)}")
    positive, denominators, sizes = [], [], []
    start = 0
    for h in range(1, exps[-1] + 1):
        end = start + len(exps) - bisect_left(exps, h)
        cut = bisect_left(roots, unit, start, end)
        if cut == start:
            break
        positive += roots[start:cut]
        denominators += rs.rho_pairings[start:cut]
        sizes.append(cut - start)
        start = end
    return RootSystem(rs.type_label, rank, tuple(row[m:] for row in rs.cartan[m:]),
                      tuple(map(itemgetter(slice(m, None)), positive)), rs.symmetrizers[m:],
                      _layer_exponents(rs.type_label, rank, sizes), tuple(denominators))


def exponents(rs):
    """Exponents, as recorded when the root system was built."""
    _check_type(rs, RootSystem, "exponents")
    return rs.exponents


def algebra_dimension(rs):
    """dim g = 2 * (number of positive roots) + rank."""
    _check_type(rs, RootSystem, "algebra_dimension")
    return 2 * len(rs.positive_roots) + rs.rank


def _weyl_product(rs, weight, bound=None):
    """Weyl dimension of a dominant weight, or None once it is seen to exceed bound.

    Each factor (h_alpha + sum c_j w_j d_j) / h_alpha is at least 1, so once
    the product num / part of those taken so far passes bound, so does the rest.
    A weight with one nonzero coordinate j reads only coordinate j of each
    root (a builtin itemgetter pass) and skips the roots where it is 0; the
    factors it multiplies, and their order, are those of the general loop,
    which takes every other weight.
    """
    d = rs.symmetrizers
    terms = [(j, w * d[j]) for j, w in enumerate(weight) if w]
    num = part = 1
    if len(terms) == 1:
        (j, t), = terms
        for c, h in zip(map(itemgetter(j), rs.positive_roots), rs.rho_pairings):
            if c:
                num *= h + c * t
                part *= h
                if bound is not None and num > bound * part:
                    return None
    else:
        for c, h in zip(rs.positive_roots, rs.rho_pairings):
            a = h
            for j, t in terms:
                a += c[j] * t
            if a != h:
                num *= a
                part *= h
                if bound is not None and num > bound * part:
                    return None
    q, r = divmod(num, part)
    if r:
        raise RuntimeError("Weyl dimension failed to be an integer")
    return q


def weyl_dimension(rs, weight):
    """Dimension of the irreducible with the given fundamental-weight coordinates.

    dim = prod over positive roots of <w + rho, alpha^vee> / <rho, alpha^vee>;
    with alpha = sum c_j alpha_j each factor is
    (h_alpha + sum c_j w_j d_j) / h_alpha with h_alpha = sum c_j d_j.
    """
    _check_type(rs, RootSystem, "weyl_dimension")
    weight = tuple(weight)
    if len(weight) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} coordinates")
    for w in weight:
        if not _is_int(w):
            raise ValueError(f"weight coordinate {w!r} is not an integer")
    if any(w < 0 for w in weight):
        raise ValueError("weight must be dominant (nonnegative coordinates)")
    return _weyl_product(rs, weight)


def irreps_up_to(rs, bound):
    """All dominant weights of dimension <= bound, with their dimensions.

    Each factor (h_alpha + sum c_j w_j d_j) / h_alpha of the Weyl dimension
    is nondecreasing in each coordinate, and the dimension strictly
    increasing, so the weights of dimension <= bound form a downward-closed
    staircase.  The search descends it from the zero weight: from a weight
    found inside, whose nonzero coordinates lie before coordinate j, it
    raises each coordinate i >= j one step at a time while the dimension
    stays inside, and from each weight so found goes on into the coordinates
    after i.  Each weight inside is found once, from the weight one step
    below it in its last nonzero coordinate, so the search is complete and
    no weight is probed twice.  A weight whose dimension is not above that of
    the weight one step below it, as in a system whose roots do not meet it,
    raises RuntimeError: the search would not end.
    """
    if not _is_int(bound) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    _check_type(rs, RootSystem, "irreps_up_to")
    n = rs.rank
    found = [((0,) * n, 1)]

    def descend(w, dim, j):
        # w is inside, and its coordinates from j on are 0
        for i in range(j, n):
            below, below_dim = w, dim
            while True:
                up = below[:i] + (below[i] + 1,) + below[i + 1:]
                up_dim = _weyl_product(rs, up, bound)
                if up_dim is None:
                    break
                if up_dim <= below_dim:
                    raise RuntimeError(f"{rs.name}: weight {up} has dimension {up_dim}, "
                                       f"not above the {below_dim} of {below}")
                found.append((up, up_dim))
                descend(up, up_dim, i + 1)
                below, below_dim = up, up_dim

    descend((0,) * n, 1, 0)
    return sorted(found)


def irreps_of_dimension(rs, k):
    """All dominant weights whose irreducible has dimension exactly k."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"dimension must be a positive integer, got {k!r}")
    return [w for w, d in irreps_up_to(rs, k) if d == k]
