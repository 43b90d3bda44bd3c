"""Finite-index subgroups of PSL2(Z) from generator matrices.

PSL2(Z) is the free product C2 * C3 on s = S and u = ST, where
S = (0 -1; 1 0) and T = (1 1; 0 1).  The Euclidean algorithm writes each
generator matrix straight in the letters s, u, u^-1 (T = s u,
T^-1 = u^-1 s), reducing freely as it goes, so each word is the normal form
of its element in C2 * C3.  Its quotients are truncated toward zero, so it
takes one step per digit of the regular continued fraction; the normal form
does not depend on which quotients were taken.  Coset folding over the
presentation < s, u | s^2 = u^3 = 1 > (Stallings, Invent. Math. 71 (1983),
for free products as in Kulkarni, Amer. J. Math. 113 (1991)) traces those
words from both ends in a graph whose s-edges come in pairs and whose u-edges
come as whole 3-cycles, so both relators hold by construction, and a conjugate
x c x^-1 defines its path x once; a graph left incomplete proves the index
infinite.  The cosets are numbered breadth-first from the base coset, trying
s before u, so the resulting pair of permutations (of S and of T acting on
the cosets) is the subgroup's value: two tables are equal exactly when they
come from the same subgroup (Kulkarni).  The pair carries everything else:
cusp widths are the T-cycles, elliptic point counts are fixed points of S and
of ST, the genus comes from Riemann-Hurwitz, the level is the lcm of the
widths (Wohlfahrt), and the congruence test is Hsu's criterion [Hsu, Proc.
AMS 124 (1996)] on words in L = T and R = S T^-1 S, built from S and powers
of T since S^2 = 1 makes R^x = S T^-x S.  Hsu's words generate Gamma(N) as a
normal subgroup, so unifying each coset with its images under them folds the
table into that of the congruence closure Gamma Gamma(N), against which
dim_rho_prim measures the primitive part.  The readers of a table refuse
anything but a CosetTable.

Three subgroups ship as named presets ("gamma43", "gamma52", "gamma711");
user-defined subgroups load from a small JSON document with fields "name"
and "generators" (rows [a, b, c, d] for the matrix (a b; c d), determinant 1).
"""

import json
import os
from collections import namedtuple
from itertools import cycle, islice
from math import lcm

from .linalg import _is_int, _make_checked, _check_type

DEFAULT_COSET_CAP = 100_000

S_MAT = (0, -1, 1, 0)
T_MAT = (1, 1, 0, 1)


class CosetCapExceeded(RuntimeError):
    """Coset table grew past the configured capacity (index bound exceeded)."""


class InfiniteIndex(CosetCapExceeded):
    """The folded coset graph is incomplete: the subgroup has infinite index.

    A CosetCapExceeded, since no coset table exists within any cap.
    """


def mat_det(a):
    return a[0] * a[3] - a[1] * a[2]


def _int_entries(m):
    """The four entries of m as a tuple; any entry that is not an int (or is a
    bool), and any other number of entries, is rejected."""
    m = tuple(m)
    for x in m:
        if not _is_int(x):
            raise ValueError(f"matrix entry {x!r} is not an integer")
    if len(m) != 4:
        raise ValueError(f"matrix must have four entries, got {m}")
    return m


def psl2_canonical(m):
    """Representative of {m, -m} with the first nonzero entry positive."""
    for x in m:
        if x > 0:
            return tuple(m)
        if x < 0:
            return tuple(-e for e in m)
    raise ValueError("zero matrix is not in PSL2(Z)")


class GeneratorSet(namedtuple("GeneratorSet", "name generators")):
    """A named list of determinant-1 integer matrices, taken modulo +-1.

    The name must be a str, the generators a list or tuple of matrices, and
    each matrix a list or tuple of four ints; anything else raises ValueError,
    also from _replace.
    """
    __slots__ = ()

    def __new__(cls, name, generators):
        if not isinstance(name, str):
            raise ValueError(f"subgroup name must be a string, got {name!r}")
        if not isinstance(generators, (list, tuple)):
            raise ValueError(f"generators must be a list of matrices, got {generators!r}")
        gens = []
        for m in generators:
            if not isinstance(m, (list, tuple)):
                raise ValueError(f"generator must be a list of four integers, got {m!r}")
            m = _int_entries(m)
            if mat_det(m) != 1:
                raise ValueError(f"generator {m} has determinant {mat_det(m)}, not 1")
            gens.append(psl2_canonical(m))
        return super().__new__(cls, name, tuple(gens))

    _make = classmethod(_make_checked)


PRESETS = {
    "gamma43": GeneratorSet("gamma43", [(1, 4, 0, 1), (2, 1, 1, 1), (1, -1, 2, -1)]),
    "gamma52": GeneratorSet("gamma52", [(1, 5, 0, 1), (0, -1, 1, 0), (2, 3, 1, 2)]),
    "gamma711": GeneratorSet("gamma711", [(1, 7, 0, 1), (0, -1, 1, 0),
                                          (3, -4, 1, -1), (-1, -4, 1, 3)]),
}

FULL_GROUP = GeneratorSet("psl2z", [S_MAT, T_MAT])


def _check_path(path):
    # open() and os.path.exists() take an int as a file descriptor, and the
    # with block would close the caller's descriptor
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError(f"expected a preset name or a path, got {path!r}")


def load_generator_file(path):
    """Read a GeneratorSet from a JSON document {"name": ..., "generators": [[a,b,c,d], ...]};
    any malformed content raises ValueError naming the file, and a path that
    is not a str or os.PathLike raises TypeError."""
    _check_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict) or "name" not in doc or "generators" not in doc:
                raise ValueError("expected an object with fields 'name' and 'generators'")
            return GeneratorSet(doc["name"], doc["generators"])
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: nested too deeply") from None


def resolve_subgroup(spec):
    """A preset name, or a path to a generator file; TypeError unless a str or os.PathLike."""
    _check_path(spec)
    if spec in PRESETS:
        return PRESETS[spec]
    if os.path.exists(spec):
        return load_generator_file(spec)
    raise ValueError(f"unknown subgroup {spec!r}: not a preset name "
                     f"({', '.join(sorted(PRESETS))}) and not a readable file")


# ---------------------------------------------------------------------------
# words in s, u

# letters of the coset machine: s = 0, u = 1, u^-1 = 2, where u = ST.  A
# u-letter is its exponent of u, so two u-letters merge into their sum mod 3.
_INVERSE = (0, 2, 1)


def _t_power(e, then_s=False):
    """T^e, followed by S if then_s, as a reduced run of letters.

    T = s u and T^-1 = u^-1 s, so T^e S is (s u)^e s for e >= 0 and
    (u^-1 s)^(-e-1) u^-1 for e < 0: one letter more or one fewer.
    """
    unit, n = ((0, 1), 2 * e) if e >= 0 else ((2, 0), -2 * e)
    if then_s:
        n += 1 if e >= 0 else -1
    return islice(cycle(unit), n)


def _extend_reduced(word, run):
    """Append a freely reduced run of letters to the freely reduced list word.

    A letter meets the end of the word when both are s or both are u-letters:
    s s cancels, and two u-letters merge into the sum of their exponents mod 3
    (u u = u^-1, u^-1 u^-1 = u, u u^-1 = 1).  Letters are taken one at a time
    only while they cancel; once one stays, nothing after it can meet the
    word, and the rest of the run is appended as it is.
    """
    run = iter(run)
    for x in run:
        if word and (x == 0) == (word[-1] == 0):
            x = (word.pop() + x) % 3
            if x == 0:
                continue
        word.append(x)
        word.extend(run)
        return


def matrix_to_word(m):
    """The freely reduced word of a determinant-1 matrix, as a tuple of
    coset-machine letters.

    Column reduction repeatedly peels T^q S from the left while the
    lower-left entry is nonzero, and ends with a T^e.  The quotient q = a / c
    is truncated toward zero, so the remainder keeps a's sign and is smaller
    than c in size: the loop takes one step per digit of the regular
    continued fraction of a / c, where a floored quotient would take about
    |q| steps of q = -2 for each positive T^q once c < 0.  Each T^q S and the
    last T^e go straight into a reducing stack (_extend_reduced), so the word
    has no s s, no u u^-1 or u^-1 u, and no u u or u^-1 u^-1.  By the normal
    form theorem for C2 * C3 it is the only such word that evaluates to the
    input up to overall sign, whichever quotients were taken.
    """
    m = _int_entries(m)
    if mat_det(m) != 1:
        raise ValueError(f"matrix {m} has determinant {mat_det(m)}, not 1")
    word = []
    a, b, c, d = m
    while c != 0:
        q = a // c if (a < 0) == (c < 0) else -(-a // c)
        _extend_reduced(word, _t_power(q, then_s=True))
        # m <- S^-1 T^-q m, with S^-1 = (0 1; -1 0)
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    _extend_reduced(word, _t_power(b if a == 1 else -b))
    return tuple(word)


# ---------------------------------------------------------------------------
# coset folding (Stallings folding for the free product C2 * C3)


class _CosetGraph:
    """The coset graph of a subgroup of < s, u | s^2 = u^3 = 1 >, built by folding.

    Each vertex holds one row of neighbours under s, u and u^-1; coincident
    vertices merge by union-find.  A missing s-edge is defined together with
    its return edge, and a missing u-edge as a whole 3-cycle, so s^2 = 1 and
    u^3 = 1 hold at every vertex by construction and unify keeps them true:
    no relator is ever scanned.
    """

    def __init__(self, cap):
        self.cap = cap
        self.labels = []
        self.neighbors = []
        self.start = self.add_vertex()

    def add_vertex(self):
        if len(self.labels) >= self.cap:
            raise CosetCapExceeded(
                f"index bound exceeded: coset table grew past {self.cap} entries "
                f"({len(self.labels)} cosets defined, {len(self.live())} still live; "
                "the subgroup may have infinite index)")
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([None, None, None])
        return c

    def live(self):
        return [c for i, c in enumerate(self.labels) if i == c]

    def find(self, c):
        labels = self.labels
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(self, c1, c2):
        find, labels, neighbors = self.find, self.labels, self.neighbors
        stack = [(c1, c2)]
        while stack:
            c1, c2 = stack.pop()
            if labels[c1] != c1:  # nearly every vertex met is a root already
                c1 = find(c1)
            if labels[c2] != c2:
                c2 = find(c2)
            if c1 == c2:
                continue
            if c2 < c1:
                c1, c2 = c2, c1
            labels[c2] = c1
            row1, row2 = neighbors[c1], neighbors[c2]
            for d in range(3):
                n1, n2 = row1[d], row2[d]
                if n1 is None:
                    row1[d] = n2
                elif n2 is not None:
                    stack.append((n1, n2))

    def step(self, c, d):
        labels = self.labels
        if labels[c] != c:
            c = self.find(c)
        row = self.neighbors[c]
        if row[d] is None:
            if d == 0:  # c <-> n under s
                n = self.add_vertex()
                row[0] = n
                self.neighbors[n][0] = c
            else:  # c -> a -> b -> c under u
                a, b = self.add_vertex(), self.add_vertex()
                row[1], row[2] = a, b
                self.neighbors[a][1], self.neighbors[a][2] = b, c
                self.neighbors[b][1], self.neighbors[b][2] = c, a
        n = row[d]
        return n if labels[n] == n else self.find(n)

    def path(self, c, word):
        for d in word:
            c = self.step(c, d)
        return c

    def build(self, words):
        """Fold each word, shortest first, into a loop at the start vertex.

        A word is traced forward from the start vertex, and its inverse
        backward, along the edges that already exist; only the letters in
        between are defined, and their end is unified with the backward point.
        While both points are one vertex and the letters left read a ... a^-1,
        a is defined once for both ends.  So a conjugate x c x^-1 folds to the
        path x with the loop c at its end, and a later conjugate by x follows
        that path instead of copying it.  A vertex left without an s- or a
        u-edge once every word is folded proves that the subgroup has infinite
        index.
        """
        find, labels, neighbors, start = self.find, self.labels, self.neighbors, self.start
        for w in sorted(words, key=len):
            i, j = 0, len(w)
            head = tail = start  # the start vertex stays a root: unify keeps the smaller
            while i < j and (n := neighbors[head][w[i]]) is not None:
                head = n if labels[n] == n else find(n)
                i += 1
            while i < j and (n := neighbors[tail][_INVERSE[w[j - 1]]]) is not None:
                tail = n if labels[n] == n else find(n)
                j -= 1
            while head == tail and j - i >= 2 and w[i] == _INVERSE[w[j - 1]]:
                head = tail = self.step(head, w[i])
                i += 1
                j -= 1
            self.unify(self.path(head, w[i:j]), tail)
        live = self.live()
        if any(None in self.neighbors[c] for c in live):
            raise InfiniteIndex(
                f"infinite index: the folded coset graph has {len(live)} cosets, "
                "and some coset lacks an s- or a u-edge")

    def permutations(self):
        """The permutations of s and of u on the live vertices, numbered
        breadth-first from the start vertex (coset 0), trying s before u."""
        find, neighbors = self.find, self.neighbors
        label, order, perms = {self.start: 0}, [self.start], ([], [])
        for c in order:  # grows while it is read
            for d, perm in enumerate(perms):
                n = find(neighbors[c][d])
                if n not in label:
                    label[n] = len(order)
                    order.append(n)
                perm.append(label[n])
        return [tuple(p) for p in perms]


def _compose(p, q):
    """Apply p, then q; with this composition the coset action is a homomorphism."""
    return tuple([q[i] for i in p])  # exact size: no resize


class CosetTable(namedtuple("CosetTable", "index perm_S perm_T")):
    """Permutation action of PSL2(Z) on the cosets of a finite-index subgroup.

    Validated when it is built, also by _replace, so every CosetTable
    satisfies the relations.
    """
    __slots__ = ()

    def __new__(cls, index, perm_S, perm_T):
        return super().__new__(cls, index, perm_S, perm_T).validate()

    _make = classmethod(_make_checked)

    def validate(self):
        """The table, once perm_S and perm_T are tuples of index ints in
        range(index) with S^2 = (ST)^3 = 1, acting transitively; else RuntimeError."""
        n = self.index
        for name, p in (("perm_S", self.perm_S), ("perm_T", self.perm_T)):
            if (not _is_int(n) or type(p) is not tuple or len(p) != n
                    or set(map(type, p)) != {int} or min(p) < 0 or max(p) >= n):
                raise RuntimeError(f"coset table {name} is not a tuple of {n!r} ints in range({n!r})")
        identity = tuple(range(n))
        if _compose(self.perm_S, self.perm_S) != identity:
            raise RuntimeError("coset table violates S^2 = 1")
        st = _compose(self.perm_S, self.perm_T)
        if _compose(_compose(st, st), st) != identity:
            raise RuntimeError("coset table violates (ST)^3 = 1")
        seen, order = {0}, [0]  # transitivity of the joint action
        for c in order:  # grows while it is read
            for p in (self.perm_S, self.perm_T):
                if p[c] not in seen:
                    seen.add(p[c])
                    order.append(p[c])
        if len(seen) != n:
            raise RuntimeError(f"coset table is not transitive: {len(seen)} of {n} cosets reached")
        return self


def coset_enumerate(gens, cap=None):
    """Coset table of the subgroup generated by a GeneratorSet, by folding.

    Coset 0 is the base coset, and the others are numbered breadth-first from
    it, trying s before u (u = ST).  The table is therefore the subgroup's own
    value: two generator sets give equal tables exactly when they generate the
    same subgroup.  Raises CosetCapExceeded when the graph would grow past
    the cap (None means DEFAULT_COSET_CAP, 100000), and its subclass
    InfiniteIndex when the folded graph is incomplete, which proves the index
    infinite; anything but a GeneratorSet raises TypeError, and then a cap
    that is not a positive int, or is a bool, ValueError.  Each generator's
    word is then walked through the validated permutations of s, u and u^-1,
    and one that moves the base coset raises RuntimeError.
    """
    _check_type(gens, GeneratorSet, "coset_enumerate")
    if cap is None:
        cap = DEFAULT_COSET_CAP
    elif not _is_int(cap) or cap < 1:
        raise ValueError(f"coset cap must be a positive integer, got {cap!r} from the cap argument")
    words = [matrix_to_word(m) for m in gens.generators]
    graph = _CosetGraph(cap)
    graph.build(words)
    perm_s, perm_u = graph.permutations()
    perm_T = _compose(perm_s, perm_u)  # T = s u
    table = CosetTable(len(perm_s), perm_s, perm_T)
    letter_perms = (perm_s, perm_u, _compose(perm_u, perm_u))
    for w, m in zip(words, gens.generators):
        c = 0
        for x in w:
            c = letter_perms[x][c]
        if c != 0:
            raise RuntimeError(f"generator {m} does not fix the base coset")
    return table


# ---------------------------------------------------------------------------
# invariants


def _cycle_lengths(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            n = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                n += 1
            out.append(n)
    out.sort(reverse=True)
    return tuple(out)


def _perm_inverse(p):
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return tuple(q)


def _perm_power(p, e):
    """p**e by squaring: no product with the identity, no square past the top bit."""
    if e < 0:
        p = _perm_inverse(p)
        e = -e
    result = None
    while e:
        if e & 1:
            result = p if result is None else _compose(result, p)
        e >>= 1
        if e:
            p = _compose(p, p)
    return tuple(range(len(p))) if result is None else result


def _perm_order(p):
    return lcm(*_cycle_lengths(p))


def _is_identity(p):
    return all(i == j for i, j in enumerate(p))


class SubgroupInvariants(namedtuple("SubgroupInvariants",
                                    "index cusp_widths nu2 nu3 genus level congruence")):
    """cusp_widths is a multiset, sorted decreasing; nu2 and nu3 count the
    elliptic points of order 2 and 3; level is the lcm of the cusp widths."""
    __slots__ = ()

    @property
    def cusp_count(self):
        return len(self.cusp_widths)


def invariants(table):
    """All standard invariants of the subgroup from its coset permutations.

    Cusp widths are the cycle lengths of the T-permutation; nu2 and nu3 count
    fixed points of S and of ST; the genus solves
    12 g = 12 + index - 3 nu2 - 4 nu3 - 6 (#cusps).  Anything but a
    CosetTable raises TypeError.
    """
    _check_type(table, CosetTable, "invariants")
    widths = _cycle_lengths(table.perm_T)
    mu = table.index
    nu2 = sum(1 for i, j in enumerate(table.perm_S) if i == j)
    st = _compose(table.perm_S, table.perm_T)
    nu3 = sum(1 for i, j in enumerate(st) if i == j)
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * len(widths)
    if twelve_g % 12 != 0 or twelve_g < 0:
        raise RuntimeError(f"Riemann-Hurwitz failed: 12g = {twelve_g}")
    return SubgroupInvariants(mu, widths, nu2, nu3, twelve_g // 12, lcm(*widths),
                              congruence_test(table))


def _hsu_words(table):
    """The permutations of Hsu's seven words in L = T and R = S T^-1 S,
    built from S and powers of T.

    The level N = order of L is split as e m (e a power of 2, m odd) by the
    Chinese remainder theorem.  Hsu's odd and power-of-2 criteria are the
    cases e = 1 and m = 1, since L R^-1 L = S^-1 and L^-1 R = (T^-1 S)^2 act
    with order dividing 2 and 3 in any coset table.  For e = 1, l = r = s = 1
    and every word but (R R L^-half)^-3 is trivial; for m = 1, a = b = 1 and
    the last word only gains the trivial factor (L R^-1 L)^2; for N = 1 every
    power is trivial.  Their normal closure in PSL2(Z) is Gamma(N).

    S^2 = 1 on the cosets, so R^x = S T^-x S: with a = L^c and l = L^d,
    each power of R is two compositions with S around a power of a or l,
    and no power of R is raised by squaring.  Each sub-word that several
    words share (the inverses of a and l, a b^-1 a and its square,
    l r^-1 l) is built once.
    """
    S, L = table.perm_S, table.perm_T
    N = _perm_order(L)
    m = N
    e = 1
    while m % 2 == 0:
        m //= 2
        e *= 2

    def word(p, *perms):
        for q in perms:
            p = _compose(p, q)
        return p

    def conj(p):  # S p S; R^x = conj(T^-x)
        return word(S, p, S)

    c = e * pow(e, -1, m) % N       # 1 mod m, 0 mod e
    d = m * pow(m, -1, e) % N       # 1 mod e, 0 mod m
    a = _perm_power(L, c)
    l = _perm_power(L, d)
    a_inv, l_inv = _perm_inverse(a), _perm_inverse(l)
    b, b_inv = conj(a_inv), conj(a)
    r, r_inv = conj(l_inv), conj(l)
    half = pow(2, -1, m)
    fifth = pow(5, -1, e)
    s = word(_perm_power(l, 20), conj(_perm_power(l_inv, fifth)), _perm_power(l_inv, 4), r_inv)
    aba = word(a, b_inv, a)
    aba2 = _compose(aba, aba)
    lrl = word(l, r_inv, l)
    return [
        word(a_inv, r_inv, a, r),
        _compose(aba2, aba2),
        word(aba2, _perm_power(word(a_inv, b), 3)),
        word(aba2, _perm_power(word(_perm_power(a, half), b_inv, b_inv), 3)),
        word(l_inv, r, l_inv, s, l, r_inv, l, s),
        word(_perm_inverse(s), r, s, conj(_perm_power(l, 25))),
        word(_compose(lrl, lrl), _perm_power(word(s, conj(_perm_power(l_inv, 5)), lrl), 3)),
    ]


def congruence_test(table):
    """Hsu's congruence criterion: True exactly for congruence subgroups,
    which is when each of Hsu's words fixes every coset.  Anything but a
    CosetTable raises TypeError."""
    _check_type(table, CosetTable, "congruence_test")
    return all(_is_identity(w) for w in _hsu_words(table))


def congruence_closure(table):
    """The coset table of the congruence closure Gamma Gamma(N), N the level.

    Gamma(N) is normal and the normal closure of Hsu's words, so a coset x
    and its image x w under a Hsu word w lie in one coset of the closure.
    Each such pair is unified in a coset graph loaded with the table, unify
    carries every merge along s and u, and the classes left are numbered
    breadth-first from the class of coset 0, like every other table.
    Anything but a CosetTable raises TypeError.
    """
    _check_type(table, CosetTable, "congruence_closure")
    graph = _CosetGraph(table.index)
    u = _compose(table.perm_S, table.perm_T)
    graph.labels = list(range(table.index))
    graph.neighbors = [list(row) for row in zip(table.perm_S, u, _compose(u, u))]
    for w in _hsu_words(table):
        for c, n in enumerate(w):
            graph.unify(c, n)
    perm_s, perm_u = graph.permutations()
    return CosetTable(len(perm_s), perm_s, _compose(perm_s, perm_u))


# ---------------------------------------------------------------------------
# dimension formulas


def dim_cusp_forms(inv, w):
    """dim S_w for even weight w >= 2, from genus, cusps, and elliptic counts.

    For w >= 4: (w-1)(g-1) + (w/2 - 1) t + nu2 floor(w/4) + nu3 floor(w/3);
    for w = 2 the dimension is the genus.  Odd weights are rejected (fields
    of definition are ambiguous there and no formula is offered).  Anything
    but a SubgroupInvariants raises TypeError.
    """
    _check_type(inv, SubgroupInvariants, "dim_cusp_forms")
    if not _is_int(w) or w % 2 != 0 or w < 2:
        raise ValueError(f"weight must be an even integer >= 2, got {w!r}")
    if w == 2:
        return inv.genus
    return ((w - 1) * (inv.genus - 1) + (w // 2 - 1) * inv.cusp_count
            + inv.nu2 * (w // 4) + inv.nu3 * (w // 3))


def dim_rho_prim(table, kmax):
    """{k: dim rho_prim in weight k + 2} for each even k with 2 <= k <= kmax.

    dim rho_prim is the dimension of the primitive part of the attached
    parabolic-cohomology representation: twice the excess of dim S_(k+2)
    over that of the congruence closure (Scholl, Invent. Math. 79 (1985)),
    which is computed once for all k.  A kmax that is not an int, is a bool
    or is below 2 raises ValueError.
    """
    if not _is_int(kmax) or kmax < 2:
        raise ValueError(f"need an integer kmax >= 2, got {kmax!r}")
    _check_type(table, CosetTable, "dim_rho_prim")
    inv, closure = invariants(table), invariants(congruence_closure(table))
    return {k: 2 * (dim_cusp_forms(inv, k + 2) - dim_cusp_forms(closure, k + 2))
            for k in range(2, kmax + 1, 2)}
