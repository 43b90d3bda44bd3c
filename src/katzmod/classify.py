"""Classification of simple subalgebras of sl_k containing a one-block nilpotent.

The scan follows the exponent criteria: a simple algebra g inside sl(V) whose
principal sl2 is the principal sl2 of sl(V) has distinct exponents bounded by
k-1, closed under (r, s) -> r+s-1 for r+s <= k, and must admit an irreducible
representation of dimension k.  Bounded means max E < k, and closed means
k < m, m the least r + s (r, s in E) with r + s - 1 not in E, so distinct
exponents pass on the open interval (max E, m) of k.  Each simple algebra is
read once, under one name, with its exponents in closed form
(roots.type_exponents), so the scan builds no root system for the types that
fail; a type whose interval meets the requested k has its root system built
once, which checks those exponents against its height-layer sizes, and one
weight search up to the largest such k.  This leaves exactly: sl2 acting by
Sym^(k-1); sl_k; sp_k for even k; so_k for odd k; G_2 at k = 7.

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

from dataclasses import dataclass

from .linalg import _is_int
from .sl2 import principal_triple, invariant_bilinear_form
from .roots import build_root_system, type_exponents, weyl_dimension, irreps_up_to, \
    SIMPLE_TYPES, _valid_type

LABEL_SYM_POWER = "sym_power_sl2"
LABEL_FULL_SL = "full_sl"
LABEL_SYMPLECTIC = "symplectic"
LABEL_ORTHOGONAL = "orthogonal"
LABEL_G2 = "g2"


def _passing_ks(exps, limit):
    """The k <= limit at which sorted integer exponents pass the criteria, a range.

    They pass on the open interval (max(exps), m) when distinct, m the least
    r + s (r, s in exps) whose r + s - 1 is not in exps: the pairs with
    r + s <= k only grow with k.  Bounded is tested first, and m is searched
    only up to limit.
    """
    lo = exps[-1]
    if lo >= limit:
        return range(0)
    eset = set(exps)
    if len(eset) != len(exps):
        return range(0)
    end = limit + 1
    for i, r in enumerate(exps):
        for s in exps[i:]:
            if r + s >= end:
                break
            if r + s - 1 not in eset:
                end = r + s
                break
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


@dataclass(frozen=True)
class ClassificationCase:
    label: str
    type_label: str
    rank: int
    exponents: tuple
    realizing_weights: tuple

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


def _candidate_types(k):
    """Isomorphism classes of simple types with rank at most k-1, type by type.

    roots decides which (type, rank) exist; _left_out(k) names each low-rank
    isomorphism once.
    """
    return [(t, n) for t in SIMPLE_TYPES for n in range(1, k)
            if _valid_type(t, n) and (t, n) not in _left_out(k)]


def _realizing_weights(rs, ks):
    """{k: dominant weights of dimension exactly k} for k in ks, from one search.

    The search runs up to max(ks).  For A_(k-1), which passes the criteria
    only at k, the defining weight and its dual are verified directly by the
    Weyl dimension formula instead of searching the weight lattice.
    """
    n = rs.rank
    if rs.type_label == "A" and n >= 2 and ks == [n + 1]:
        first = (1,) + (0,) * (n - 1)
        last = (0,) * (n - 1) + (1,)
        out = [w for w in (first, last) if weyl_dimension(rs, w) == n + 1]
        if not out:
            raise RuntimeError("defining representation of A_(k-1) must have dimension k")
        return {n + 1: tuple(out)}
    found = {k: [] for k in ks}
    for w, d in irreps_up_to(rs, max(ks)):
        if d in found:
            found[d].append(w)
    return {k: tuple(weights) for k, weights in found.items()}


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

    Each type of rank below max(ks) is read once: its closed-form exponents
    give the interval of k at which it passes the criteria, and only a type
    whose interval meets ks has its root system built, once, and its weights
    searched, once, up to the largest such k.  Returns {k: cases}, keyed in
    the order of ks, each list in classify's candidate order.
    """
    ks = tuple(ks)
    for k in ks:
        if not _is_int(k) or k < 2:
            raise ValueError(f"need an integer k >= 2, got {k!r}")
    out = {k: [] for k in ks}
    top = max(ks, default=0)
    for type_label in SIMPLE_TYPES:
        # a rank of at least k leaves an exponent of at least k: not bounded
        for rank in range(1, top):
            if not _valid_type(type_label, rank):
                continue
            exps = type_exponents(type_label, rank)
            here = [k for k in _passing_ks(exps, top)
                    if k in out and (type_label, rank) not in _left_out(k)]
            if not here:
                continue
            rs = build_root_system(type_label, rank)
            for k, weights in _realizing_weights(rs, here).items():
                if not weights:
                    continue
                label = _label_for(type_label, rank, k)
                if label is None:
                    raise RuntimeError(
                        f"unexpected classification case {type_label}_{rank} at k={k}")
                out[k].append(ClassificationCase(label, type_label, rank, exps, weights))
    return out


def classify(k):
    """All simple algebras passing the exponent criteria with a k-dim irreducible.

    The one-k case of classify_all: a type is skipped as soon as its largest
    exponent reaches k, and a root system is built, and its exponents checked
    against its layer sizes, only for the types that pass, to search their
    weights of dimension k.

    Returns ClassificationCase values in candidate order, which is: Sym-power
    sl2, full sl_k, the symplectic/orthogonal case, then G_2 (when k = 7).  For
    k = 2 the cases collapse and the single canonical A_1 is reported.
    """
    return classify_all((k,))[k]


def ht_filter(cases, k, weights):
    """Remove the Sym-power case given exactly two distinct Hodge-Tate weights.

    The weights stand in for the Hodge-Tate cocharacter; any weight that is
    not an int, or is a bool, raises ValueError, and so does an empty list.
    The exclusion is recomputed, not assumed: the diagonal semisimple element
    h of the Sym^(k-1) model, which is the h of principal_triple(k), has k
    distinct eigenvalues, so for k > 2 it cannot have only two.
    """
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

    Only defined for even k.  Returns the pair (kept, conclusion): the kept
    cases as a tuple, and "GSp_k" when the one case left is the symplectic
    algebra (or sl2 itself at k = 2), None otherwise.

    Every case contains the principal sl2, so a form one of them preserves is
    a multiple of that sl2's invariant form B, which is computed once and
    decides all three cases: the symplectic case preserves its defining form;
    the Sym-power case (if still present) is kept when B is alternating; the
    full sl_k case is kept only when B is also invariant under E_00 - E_11,
    which with the principal sl2 generates sl_k.
    """
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
    """Admissible invariant-subspace dimensions from the Frobenius eigenvalues.

    The scalar on the one-dimensional inertia-invariant line has magnitude
    exponent e = (w - k + 1)/2; a k'-dimensional invariant subspace would
    force e = (w - k' + 1)/2, so only k' = k survives (the integers 2e are
    compared).  Returned as the full filtered list, which is always exactly
    [k].
    """
    for name, x in (("w", w), ("k", k)):
        if not _is_int(x):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    if k < 1:
        raise ValueError("need k >= 1")
    two_e = w - k + 1
    return [kp for kp in range(1, k + 1) if w - kp + 1 == two_e]
