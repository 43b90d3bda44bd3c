"""Seeded workload inputs and the benchmark's own oracles.

Nothing here imports katzmod: every expected value is derived from the
generated input itself or from a closed formula, so a wrong answer from the
package cannot also corrupt the value it is checked against.

Subgroups of PSL2(Z) = <S> * <U> (S of order 2, U = ST of order 3) are made
from a transitive permutation pair (sigma, rho) with sigma^2 = rho^3 = 1 on
n points.  The subgroup is the stabiliser of point 0 under the right action
sigma -> S, rho -> U, and it is handed to the package as its Schreier
generators, one matrix per non-tree edge of a breadth-first spanning tree.
The pair itself gives every invariant the package computes.
"""

import random
from math import lcm

S_MAT = (0, -1, 1, 0)
U_MAT = (0, -1, 1, 1)  # S T, of order 3 in PSL2(Z)
IDENTITY = (1, 0, 0, 1)

# Workload shapes.  Each pass covers a fixed list of inputs so that its
# sample count, and with it the tail percentile, is the same on every pass.
CLASSIFY_KS = range(2, 33)
CENSUS_INDEX = (8, 256)
CENSUS_OPS = 300
CONJUGATED_INDEX = (8, 32)
CONJUGATED_OPS = 80
CONJUGATOR_LETTERS = 3
CONJUGATOR_EXPONENT = (100, 300)

# Above this group order the mod-N closure oracle is skipped as unaffordable.
CLOSURE_ORDER_LIMIT = 12_000


# ---------------------------------------------------------------------------
# matrices


def mat_mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def mat_inv(a):
    return (a[3], -a[1], -a[2], a[0])


def t_power(e):
    return (1, e, 0, 1)


def psl2_key(m):
    """Representative of {m, -m} with the first nonzero entry positive."""
    for x in m:
        if x:
            return tuple(m) if x > 0 else tuple(-e for e in m)
    raise ValueError("zero matrix")


# ---------------------------------------------------------------------------
# permutation pairs


def _orbit_size(perms):
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for p in perms:
            if p[c] not in seen:
                seen.add(p[c])
                stack.append(p[c])
    return len(seen)


def _random_cycles(rng, n, length, fixed):
    """A permutation of range(n) made of (n - fixed) / length random cycles."""
    perm = list(range(n))
    pts = list(range(n))
    rng.shuffle(pts)
    moved = pts[fixed:]
    for i in range(0, len(moved), length):
        cyc = moved[i:i + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def random_pair(rng, n, more_fixed2=False, more_fixed3=False):
    """A random transitive pair (sigma, rho) of degree n, sigma^2 = rho^3 = 1.

    sigma fixes n mod 2 points, or two more with more_fixed2; rho fixes
    n mod 3 points, or three more with more_fixed3 (these counts are the
    elliptic counts nu2 and nu3 of the subgroup).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    f2 = n % 2 + 2 * more_fixed2
    f3 = n % 3 + 3 * more_fixed3
    # a transitive pair needs (n - f2)/2 + 2 (n - f3)/3 >= n - 1 edges of a tree
    if 3 * (n - f2) + 4 * (n - f3) < 6 * (n - 1):
        f2, f3 = n % 2, n % 3
    for _ in range(10_000):
        sigma = _random_cycles(rng, n, 2, f2)
        rho = _random_cycles(rng, n, 3, f3)
        if _orbit_size((sigma, rho)) == n:
            return sigma, rho
    raise RuntimeError(f"no transitive pair of degree {n} found")


def schreier_generators(sigma, rho):
    """Schreier generators of the stabiliser of point 0, as matrices mod sign.

    The transversal follows a breadth-first tree from point 0; each non-tree
    edge c -x-> c.x gives t_c X t_(c.x)^-1, which fixes point 0.
    """
    transversal = {0: IDENTITY}
    order = [0]
    for c in order:
        for perm, mat in ((sigma, S_MAT), (rho, U_MAT)):
            d = perm[c]
            if d not in transversal:
                transversal[d] = mat_mul(transversal[c], mat)
                order.append(d)
    gens = set()
    for c in range(len(sigma)):
        for perm, mat in ((sigma, S_MAT), (rho, U_MAT)):
            g = psl2_key(mat_mul(mat_mul(transversal[c], mat), mat_inv(transversal[perm[c]])))
            if g != IDENTITY and psl2_key(mat_inv(g)) not in gens:
                gens.add(g)
    return sorted(gens)


def conjugator(rng, magnitudes):
    """The product of T^e S over the given |e|, each with a random sign."""
    w = IDENTITY
    for m in magnitudes:
        w = mat_mul(mat_mul(w, t_power(m * rng.choice((-1, 1)))), S_MAT)
    return w


def conjugate(gens, w):
    """The generators of w^-1 H w."""
    wi = mat_inv(w)
    return [mat_mul(mat_mul(wi, g), w) for g in gens]


def cycle_type(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            n = 0
            while not seen[i]:
                seen[i] = True
                i = p[i]
                n += 1
            out.append(n)
    return sorted(out, reverse=True)


def pair_invariants(sigma, rho):
    """Index, cusp widths, nu2, nu3, genus and level read off the pair.

    T = sigma then rho; cusp widths are its cycle lengths; nu2 and nu3 are
    the fixed points of sigma and rho; the genus solves Riemann-Hurwitz.
    """
    n = len(sigma)
    widths = cycle_type(tuple(rho[sigma[c]] for c in range(n)))
    nu2 = sum(1 for c in range(n) if sigma[c] == c)
    nu3 = sum(1 for c in range(n) if rho[c] == c)
    twelve_g = 12 + n - 3 * nu2 - 4 * nu3 - 6 * len(widths)
    if twelve_g % 12 or twelve_g < 0:
        raise ValueError(f"pair violates Riemann-Hurwitz: 12g = {twelve_g}")
    return {"index": n, "cusp_widths": widths, "nu2": nu2, "nu3": nu3,
            "genus": twelve_g // 12, "level": lcm(*widths)}


# ---------------------------------------------------------------------------
# congruence oracle: the mod-N closure


def psl2_mod_n_order(n):
    """|PSL2(Z/n)| = n^3 prod_(p|n) (1 - 1/p^2), halved for n > 2."""
    size = n ** 3
    m = n
    p = 2
    while m > 1:
        if m % p == 0:
            while m % p == 0:
                m //= p
            size = size // (p * p) * (p * p - 1)
        p += 1
    return size // 2 if n > 2 else size


def image_order_mod_n(gens, n):
    """Order of the image of <gens> in PSL2(Z/n), by breadth-first closure."""
    def reduce(m):
        m = tuple(x % n for x in m)
        return min(m, tuple((-x) % n for x in m))

    mats = sorted({reduce(g) for g in gens})
    seen = {reduce(IDENTITY)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in mats:
                c = reduce(mat_mul(a, b))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def closure_congruence(gens, index, level):
    """Congruence flag from the mod-N closure, or None when unaffordable.

    A subgroup of level N is congruence exactly when the preimage of its image
    in PSL2(Z/N) has the same index as the subgroup itself.
    """
    order = psl2_mod_n_order(level)
    if order > CLOSURE_ORDER_LIMIT:
        return None
    image = image_order_mod_n(gens, level)
    if order % image:
        raise ValueError("image order does not divide the group order")
    return order // image == index


# ---------------------------------------------------------------------------
# workload inputs


def classify_inputs(seed):
    """Every k in CLASSIFY_KS once, in seeded order."""
    ks = list(CLASSIFY_KS)
    random.Random(seed).shuffle(ks)
    return [{"k": k, "expected": expected_case_names(k)} for k in ks]


def census_inputs(seed):
    """CENSUS_OPS subgroups with index spread evenly over CENSUS_INDEX."""
    return _subgroup_inputs(seed, CENSUS_INDEX, CENSUS_OPS, letters=0)


def conjugated_inputs(seed):
    """CONJUGATED_OPS subgroups with index spread evenly over CONJUGATED_INDEX,
    each conjugated by CONJUGATOR_LETTERS letters T^e S."""
    return _subgroup_inputs(seed, CONJUGATED_INDEX, CONJUGATED_OPS, CONJUGATOR_LETTERS)


def _spread(rng, lo, hi, count):
    """count integers spaced evenly over [lo, hi], in random order.

    Every seed draws the same multiset of sizes and only pairs them
    differently, which keeps the cost of a pass nearly seed-independent.
    """
    steps = max(count - 1, 1)
    values = [lo + ((hi - lo) * 2 * i + steps) // (2 * steps) for i in range(count)]
    rng.shuffle(values)
    return values


def _subgroup_inputs(seed, index_range, count, letters):
    rng = random.Random(seed)
    sizes = _spread(rng, *index_range, count)
    more2 = _spread(rng, 0, 1, count)
    more3 = _spread(rng, 0, 1, count)
    magnitudes = _spread(rng, *CONJUGATOR_EXPONENT, count * letters)
    items = []
    for i, n in enumerate(sizes):
        sigma, rho = random_pair(rng, n, more2[i], more3[i])
        gens = schreier_generators(sigma, rho)
        rng.shuffle(gens)
        item = {"generators": gens, "expected": pair_invariants(sigma, rho)}
        if letters:
            w = conjugator(rng, magnitudes[i * letters:(i + 1) * letters])
            item["plain_generators"] = gens
            item["generators"] = conjugate(gens, w)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# expected answers on the Lie side


def expected_case_names(k):
    """The classification for dimension k, in the package's case order:
    A_1 by Sym^(k-1), A_(k-1), then C_(k/2) or B_((k-1)/2), then G_2 at k = 7."""
    if k == 2:
        return ["A_1"]
    names = ["A_1", f"A_{k - 1}"]
    if k % 2 == 0:
        names.append(f"C_{k // 2}")
    elif k >= 5:
        names.append(f"B_{(k - 1) // 2}")
    if k == 7:
        names.append("G_2")
    return names


_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): [1, 4, 5, 7, 8, 11],
    ("E", 7): [1, 5, 7, 9, 11, 13, 17],
    ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
    ("F", 4): [1, 5, 7, 11],
    ("G", 2): [1, 5],
}


def _exponents(t, n):
    if t == "A":
        return list(range(1, n + 1))
    if t in "BC":
        return list(range(1, 2 * n, 2))
    if t == "D":
        return sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
    return _EXCEPTIONAL_EXPONENTS[(t, n)]


_DIMENSION_RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(3, 9)}


def _least_dims_a(n):
    # defining representation, then the exterior square (the symmetric
    # square for A_2, whose exterior square is the dual)
    return [n + 1, 6 if n == 2 else n * (n + 1) // 2]


def verify_expected():
    """(section, claim) -> expected `computed` string for every verify-paper row.

    The gamma711 dimension rows expect 2 (k - floor((k + 2) / 3)), the count
    forced by its invariants; the package's own reference says k, so those
    eight rows (k = 6..20) are correct here while their `ok` flag is false.
    """
    rows = {}

    def add(section, claim, computed):
        rows[(section, claim)] = computed

    for k in range(2, 31):
        add("classification", f"classify({k}) case list", ", ".join(sorted(expected_case_names(k))))
    for k in range(2, 31, 2):
        add("pipeline", f"k={k}: two HT weights + alternating form", f"GSp_{k}")
    for k in range(2, 13):
        n = k * k - 1
        add("adjoint", f"k={k}: block dimensions and invertible basis",
            f"{[2 * r + 1 for r in range(1, k)]}, sum {n}, rank {n}")
    for k in range(2, 11):
        add("bracket", f"k={k}: [x^r, ad(y)x^s] = 2rs x^(r+s-1) and support", "all pairs pass")
    types = [(t, n) for t, ranks in _DIMENSION_RANKS.items() for n in ranks]
    types += sorted(_EXCEPTIONAL_EXPONENTS)
    for t, n in sorted(types):
        exps = _exponents(t, n)
        add("exponents", f"{t}_{n} exponents and dimension sum",
            f"{exps}, sum(2r+1) {sum(2 * r + 1 for r in exps)}")
    for (t, n), dim in sorted({("A", 3): 15, ("G", 2): 14, ("E", 7): 133, ("E", 8): 248}.items()):
        add("exponents", f"dim {t}_{n}", str(dim))
    add("weyl", "A_1 least dimension", "2")
    for n in range(2, 9):
        add("weyl", f"A_{n} least dimensions", str(_least_dims_a(n)))
    for n in range(3, 9):
        add("weyl", f"B_{n} least dimension", str(2 * n + 1))
    for n in range(2, 9):
        add("weyl", f"C_{n} least dimension", str(2 * n))
    add("weyl", "G_2 least dimensions", "[7, 14]")
    for k in range(2, 13):
        add("form", f"k={k}: invariant form parity", "symmetric" if k % 2 else "antisymmetric")
    for name, index, widths in (("gamma43", 7, [4, 3]), ("gamma52", 7, [5, 2]),
                                ("gamma711", 9, [7, 1, 1])):
        add("subgroups", f"{name}: index, widths, noncongruence",
            f"index {index}, widths {widths}, noncongruence")
    for name in ("gamma43", "gamma52", "gamma711"):
        for k in range(2, 21, 2):
            want = 2 * (k - (k + 2) // 3) if name == "gamma711" else k
            add("dimension", f"{name}: dim rho_prim at k={k}", str(want))
    for k in range(1, 31):
        add("frobenius", f"k={k}, w=k+1: admissible subspace dimensions", f"[{k}]")
    return rows
