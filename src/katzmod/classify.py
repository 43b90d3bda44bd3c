"""Classification of simple subalgebras of sl_k containing a one-block nilpotent.

The scan follows the exponent criteria: a simple algebra g inside sl(V) whose
principal sl2 is the principal sl2 of sl(V) has distinct exponents bounded by
k-1, closed under (r, s) -> r+s-1 for r+s <= k, and must admit a k-dimensional
irreducible on which its principal nilpotent acts by one Jordan block.
Bounded means max E < k, and closed means k < m, m the least r + s (r, s in
E) with r + s - 1 not in E, so distinct exponents pass on the open interval
(max E, m) of k, read off bitmasks of E (_passing_ks).  Each simple algebra
is read once, under one name, with its exponents in closed form
(roots.type_exponents), so the scan builds no root system for the types that
fail.  Within a letter the largest exponent, h - 1, grows with the rank, so
each letter's ranks are read in increasing order up to the first whose
largest exponent reaches the largest k asked for, and no higher rank is read.

The highest weight vector of V(lam) spans Sym^(<lam, 2 rho^vee>) of the
principal sl2, so dim V(lam) >= <lam, 2 rho^vee> + 1, with equality exactly
when the principal nilpotent acts by one block (Kostant 1959).  So a type
that passes at k is realised by its weights of principal height k - 1, the
nonnegative lam with sum lam_i x_i = k - 1 for x = 2 rho^vee in closed form
(roots.principal_heights), whose Weyl dimension is checked to be k.  Root
systems are built only for the types with such a candidate: each letter's
once, at its largest such rank, its exponents checked against its
height-layer sizes, and the lower ranks cut from it (roots.restrict), one
at a time.  This leaves exactly: sl2 acting by Sym^(k-1); sl_k; sp_k for
even k; so_k for odd k; G_2 at k = 7.

Two extra filters reproduce the arithmetic endgame for even k: a two-weight
Hodge-Tate constraint kills the Sym^(k-1) case (its nonzero semisimple
elements have k distinct eigenvalues), and the invariant alternating form
singles out the symplectic algebra, so the connected monodromy group is the
full group of symplectic similitudes GSp_k.  One form decides the second
filter: every case contains the principal sl2, whose invariant forms are the
multiples of one form B, so a case preserves a form only if it preserves B.
E_00 - E_11, which generates sl_k together with that sl2, moves B once k > 2,
so sl_k preserves no form; Sym^(k-1) and sp_k preserve B, which is
alternating for even k.
"""

from collections import namedtuple
from itertools import accumulate

from .linalg import _is_int, _check_type
from .sl2 import principal_triple, invariant_bilinear_form
from .roots import build_root_system, type_exponents, principal_heights, weyl_dimension, \
    SIMPLE_TYPES, restrict, _ranks

LABEL_SYM_POWER = "sym_power_sl2"
LABEL_FULL_SL = "full_sl"
LABEL_SYMPLECTIC = "symplectic"
LABEL_ORTHOGONAL = "orthogonal"
LABEL_G2 = "g2"


def _passing_ks(exps, limit):
    """The k <= limit at which sorted integer exponents pass the criteria, a range.

    They pass on the open interval (max(exps), m) when distinct, m the least
    r + s (r, s in exps) whose r + s - 1 is not in exps: the pairs with
    r + s <= k only grow with k.  Bounded is tested first.  When the least
    exponent is 0 or below, m is twice it, since 2 min - 1 < min is no
    exponent, and the interval is empty.  Otherwise m is read off bitmasks
    of the exponents when they are dense: the exponents are M, a repeat
    leaves M fewer bits than exponents, E + E is the OR of M shifted by each
    exponent, and m is the lowest bit of E + E not in M shifted by one.  When
    their span is above the square of their count, the masks would be wider
    than the pairs are many, and m is read off the pair sums instead.
    """
    lo, least = exps[-1], exps[0]
    if lo >= limit:
        return range(0)
    end = limit + 1
    if least <= 0 or lo - least > len(exps) ** 2:
        eset = set(exps)
        if len(eset) != len(exps):
            return range(0)
        if least <= 0:
            return range(lo + 1, min(end, 2 * least))
        m = min((r + s for i, r in enumerate(exps) for s in exps[i:] if r + s - 1 not in eset),
                default=end)
        return range(lo + 1, min(end, m))
    mask = 0
    for r in exps:
        mask |= 1 << r
    if mask.bit_count() != len(exps):
        return range(0)
    sums = 0
    for r in exps:
        sums |= mask << r
    gaps = sums & ~(mask << 1)
    if gaps:
        end = min(end, (gaps & -gaps).bit_length() - 1)
    return range(lo + 1, end)


def exponent_criteria(exps, k):
    """Whether the exponents pass the exponent criteria against dimension k.

    They must be pairwise distinct, all <= k-1, and closed: for every pair
    r, s of exponents (repetition allowed) with r + s <= k, the integer
    r + s - 1 is again an exponent.
    """
    if not _is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    exps = tuple(exps)
    if not exps:
        raise ValueError("empty exponent list")
    for e in exps:
        if not _is_int(e):
            raise ValueError(f"exponent {e!r} is not an integer")
    return k in _passing_ks(tuple(sorted(exps)), k)


class ClassificationCase(namedtuple("ClassificationCase",
                                    "label type_label rank exponents realizing_weights")):
    __slots__ = ()

    @property
    def name(self):
        return f"{self.type_label}_{self.rank}"

    def describe(self, k):
        return {
            LABEL_SYM_POWER: f"A_1 acting by Sym^{k - 1}",
            LABEL_FULL_SL: f"A_{k - 1} = sl_{k}",
            LABEL_SYMPLECTIC: f"C_{k // 2} = sp_{k}",
            LABEL_ORTHOGONAL: f"B_{(k - 1) // 2} = so_{k}",
            LABEL_G2: "G_2 in its 7-dimensional representation",
        }[self.label]


def _left_out(k):
    """The models of low-rank isomorphisms that are not candidates at k.

    D_3 = A_3 is dropped, and of B_2 = C_2 the model of k's parity is kept:
    C_2 = sp_4 for even k, B_2 = so_5 for odd k (both pass the criteria only
    at k = 4 and k = 5).
    """
    return (("D", 3), ("B", 2) if k % 2 == 0 else ("C", 2))


def _weights_of_height(heights, height):
    """The dominant weights lam with sum lam_i x_i = height, in decreasing order.

    heights is x (roots.principal_heights).  Every x_i is at least 1, and a
    coordinate whose x_i is above height is 0 in every such weight, so only
    the others are enumerated, each from its largest value down.
    """
    free = [i for i, x in enumerate(heights) if x <= height]
    weight = [0] * len(heights)
    found = []

    def fill(p, left):
        if p == len(free):
            if not left:
                found.append(tuple(weight))
            return
        i = free[p]
        for v in range(left // heights[i], -1, -1):
            weight[i] = v
            fill(p + 1, left - v * heights[i])
        weight[i] = 0

    fill(0, height)
    return found


def _label_for(type_label, rank, k):
    if type_label == "A" and rank == 1:
        return LABEL_SYM_POWER
    if type_label == "A" and rank == k - 1:
        return LABEL_FULL_SL
    if type_label == "C" and 2 * rank == k:
        return LABEL_SYMPLECTIC
    if type_label == "B" and 2 * rank + 1 == k:
        return LABEL_ORTHOGONAL
    if type_label == "G":
        return LABEL_G2
    return None


def classify_all(ks):
    """classify(k) for every k in ks, from one sweep over the simple types.

    Each letter's types are read once, in increasing rank, up to the first
    rank whose largest exponent reaches max(ks): their closed-form exponents
    give the interval of k at which each passes the criteria.  A type that
    passes at some k in ks lists its weights of principal height k - 1 there;
    a k with none is dropped.  Root systems are built once per letter A..G,
    at the largest rank that still has a candidate, and the lower such ranks
    are cut from that one (roots.restrict), each dropped before the next is
    cut.  The candidates whose Weyl dimension is k are kept, in decreasing
    order.  Returns {k: cases}, keyed in the order of ks, each list in
    classify's candidate order.
    """
    ks = tuple(ks)
    for k in ks:
        if not _is_int(k) or k < 2:
            raise ValueError(f"need an integer k >= 2, got {k!r}")
    out = {k: [] for k in ks}
    top = max(ks, default=0)
    for type_label in SIMPLE_TYPES:
        passing = []
        # the largest exponent, h - 1, grows with the rank: the first rank
        # whose largest exponent reaches max(ks) is not bounded, nor any above
        for rank in _ranks(type_label):
            exps = type_exponents(type_label, rank)
            if exps[-1] >= top:
                break
            ks_here = [k for k in _passing_ks(exps, top)
                       if k in out and (type_label, rank) not in _left_out(k)]
            if not ks_here:
                continue
            heights = principal_heights(type_label, rank)
            here = [(k, found) for k in ks_here if (found := _weights_of_height(heights, k - 1))]
            if here:
                passing.append((rank, exps, here))
        if not passing:
            continue
        largest = build_root_system(type_label, passing[-1][0])
        for rank, exps, here in passing:
            rs = restrict(largest, rank)
            for k, candidates in here:
                weights = tuple(w for w in candidates if weyl_dimension(rs, w) == k)
                if not weights:
                    continue
                label = _label_for(type_label, rank, k)
                if label is None:
                    raise RuntimeError(
                        f"unexpected classification case {type_label}_{rank} at k={k}")
                out[k].append(ClassificationCase(label, type_label, rank, exps, weights))
            # free this cut before the next is made, so that one is held at a time
            del rs
    return out


def classify(k):
    """All simple algebras passing the exponent criteria with a k-dim irreducible.

    The one-k case of classify_all: each letter is read up to the first rank
    whose largest exponent reaches k; a type that passes lists its weights of
    principal height k - 1, and a root system is built, and its exponents
    checked against its layer sizes, only for the types with such a
    candidate, to check that its Weyl dimension is k.

    Returns ClassificationCase values in candidate order, which is: Sym-power
    sl2, full sl_k, the symplectic/orthogonal case, then G_2 (when k = 7).  For
    k = 2 the cases collapse and the single canonical A_1 is reported.
    """
    return classify_all((k,))[k]


def _checked_cases(cases, caller):
    """cases as a tuple, each one refused unless it is a ClassificationCase."""
    cases = tuple(cases)
    for case in cases:
        _check_type(case, ClassificationCase, caller)
    return cases


def ht_filter(cases, k, weights):
    """Remove the Sym-power case given exactly two distinct Hodge-Tate weights.

    The weights stand in for the Hodge-Tate cocharacter; any weight that is
    not an int, or is a bool, raises ValueError, and so does an empty list or
    a k that is not an integer >= 2.  A case that is not a ClassificationCase
    raises TypeError, as in form_filter.
    The exclusion is recomputed, not assumed: the diagonal semisimple element
    h of the Sym^(k-1) model, which is the h of principal_triple(k), has k
    distinct eigenvalues, so for k > 2 it cannot have only two.
    """
    cases = _checked_cases(cases, "ht_filter")
    if not _is_int(k) or k < 2:
        raise ValueError(f"need an integer k >= 2, got {k!r}")
    weights = tuple(weights)  # checked before a set can merge True into 1
    for w in weights:
        if not _is_int(w):
            raise ValueError(f"Hodge-Tate weight {w!r} is not an integer")
    if not weights:
        raise ValueError("need at least one Hodge-Tate weight")
    if len(set(weights)) != 2 or k <= 2:
        return list(cases)
    eigenvalue_count = len(set(principal_triple(k).h))
    if eigenvalue_count != k:
        raise RuntimeError("Sym^(k-1) semisimple element must have k distinct eigenvalues")
    return [c for c in cases if c.label != LABEL_SYM_POWER]


def form_filter(cases, k):
    """Keep the cases preserving an alternating form; conclude GSp_k if unique.

    Only defined for even k: a k that is odd, or is not an integer >= 2,
    raises ValueError, and a case that is not a ClassificationCase raises
    TypeError.  Returns the pair (kept, conclusion): the kept cases as
    a tuple, and "GSp_k" when the one case left is the symplectic algebra (or
    sl2 itself at k = 2), None otherwise.

    Every case contains the principal sl2, so a form one of them preserves is
    a multiple of that sl2's invariant form B, which is computed once and
    decides all three cases: the symplectic case preserves its defining form;
    the Sym-power case (if still present) is kept when B is alternating; the
    full sl_k case is kept only when B is also invariant under E_00 - E_11,
    which with the principal sl2 generates sl_k.
    """
    cases = _checked_cases(cases, "form_filter")
    if not _is_int(k) or k < 2:
        raise ValueError(f"need an integer k >= 2, got {k!r}")
    if k % 2 != 0:
        raise ValueError("form filter applies to even k only")
    form = invariant_bilinear_form(principal_triple(k))
    # D = E_00 - E_11 scales B's antidiagonal entry (a, k-1-a) by d_a + d_(k-1-a)
    d = [1, -1] + [0] * (k - 2)
    sl_preserves_form = not any(b * (d[a] + d[k - 1 - a]) for a, b in enumerate(form.form))
    # orthogonal and G_2 cases preserve only symmetric forms and cannot arise
    # for even k; they are dropped.
    kept = tuple(case for case in cases
                 if case.label == LABEL_SYMPLECTIC
                 or case.label == LABEL_SYM_POWER and not form.symmetric
                 or case.label == LABEL_FULL_SL and sl_preserves_form)
    conclusion = None
    if len(kept) == 1:
        sole = kept[0]
        if sole.label == LABEL_SYMPLECTIC or (k == 2 and sole.label == LABEL_SYM_POWER):
            conclusion = f"GSp_{k}"
    return kept, conclusion


def frobenius_dimension_check(w, k):
    """Admissible invariant-subspace dimensions, read off the principal triple.

    The subspaces stable under the one-block nilpotent x are ker x^j, j = 1..k.
    The Frobenius eigenvalues on V have magnitude exponent e = (w - k + 1)/2,
    and a j-dimensional stable subspace carries the same e only when its
    h-weights are centred where V's are, summing to 0; w shifts both sides
    alike, so it is only checked to be an integer.  ker x^j is spanned by the
    columns c < j and by the columns whose entry x[c-j] ... x[c-1] in x^j's
    strip is 0: the columns c whose run of nonzero entries x[c-1], x[c-2], ...
    is shorter than j.  For the principal h the sum is j(k - j), so exactly
    [k] is returned; k = 1 reads h = (0,) and x = ().
    """
    for name, x in (("w", w), ("k", k)):
        if not _is_int(x):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        h, x = (0,), ()
    else:
        t = principal_triple(k)
        h, x = t.h, t.x
    by_run = [0] * k  # by_run[r]: the h-weights of the columns whose run is r
    run = 0
    for weight, entry in zip(h, (*x, 0)):
        by_run[run] += weight
        run = run + 1 if entry else 0
    return [j for j, kernel_weight in enumerate(accumulate(by_run), 1) if kernel_weight == 0]
