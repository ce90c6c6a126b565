"""Simplicial chain/cochain engine over the integers.

Ordered complexes with barycentric subdivision, the last-vertex collapse
map, dual cells realized as explicit chains in the subdivision, cup and
cap products by front/back face evaluation, and the absolute and relative
intersection pairings built from them.  Everything is exact; the identity
suite (`verify_suite`, exposed as the chains-verify CLI command) checks
the defining equations on small closed manifolds.

Conventions:
  * cap(c, a) evaluates the cochain on the front face and keeps the back
    face: (v0..vm) cap a = a(v0..vp) (vp..vm);
  * the dual cell of a simplex is D(s) = sd(fundamental cycle) cap
    theta*(u_s), which pins every orientation sign downstream;
  * the collapse map sends the barycenter of a simplex to its last vertex.
"""

import random

from .errors import DimensionMismatch, InputError, NotManifold


# ---------------------------------------------------------------------------
# chains and cochains


class _Combination:
    """Finitely supported integer combination of same-dimension simplices
    (or of the cells dual to them), keyed by vertex tuples."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        if coeffs:
            for s, c in coeffs.items():
                if c:
                    self.coeffs[tuple(s)] = c

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("%s dims %d vs %d"
                                    % (type(self).__name__, self.dim, other.dim))
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return type(self)(self.dim, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return type(self)(self.dim, {s: k * c for s, c in self.coeffs.items()})

    def __eq__(self, other):
        return self.dim == other.dim and self._clean() == other._clean()

    def _clean(self):
        return {s: c for s, c in self.coeffs.items() if c}

    def is_zero(self):
        return not self._clean()

    def __repr__(self):
        items = sorted(self._clean().items())
        return "%s%d(%s)" % (type(self).__name__, self.dim,
                             ", ".join("%r:%d" % t for t in items))


class Chain(_Combination):
    """Integer combination of same-dimension simplices."""

    __slots__ = ()

    def support(self):
        return set(self._clean())


class Cochain(_Combination):
    __slots__ = ()

    def __call__(self, arg):
        if isinstance(arg, Chain):
            if arg.dim != self.dim:
                raise DimensionMismatch(
                    "evaluating %d-cochain on %d-chain" % (self.dim, arg.dim)
                )
            return sum(c * self.coeffs.get(s, 0) for s, c in arg.coeffs.items())
        return self.coeffs.get(tuple(arg), 0)


def boundary(chain):
    out = {}
    for s, c in chain.coeffs.items():
        if len(s) == 1:
            continue
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            out[f] = out.get(f, 0) + c * (-1) ** i
    return Chain(chain.dim - 1, out)


def coboundary(complex_, alpha):
    """delta(a), evaluated over the simplices of the given complex."""
    out = {}
    for t in complex_.simplices(alpha.dim + 1):
        v = alpha(boundary(Chain(alpha.dim + 1, {t: 1})))
        if v:
            out[t] = v
    return Cochain(alpha.dim + 1, out)


def augmentation(chain):
    """Coefficient sum of a 0-chain."""
    if chain.dim != 0:
        raise DimensionMismatch("augmentation is defined on 0-chains")
    return sum(chain.coeffs.values())


def cup(alpha, beta, simplices):
    """Front/back cup product evaluated over the given (p+q)-simplices."""
    p, q = alpha.dim, beta.dim
    out = {}
    for s in simplices:
        v = alpha(s[: p + 1]) * beta(s[p:])
        if v:
            out[tuple(s)] = v
    return Cochain(p + q, out)


def cap(chain, alpha):
    """Front-evaluation cap product: C_m x C^p -> C_{m-p}."""
    p = alpha.dim
    if chain.dim < p:
        raise DimensionMismatch("cap needs chain dim >= cochain dim")
    out = {}
    for s, c in chain.coeffs.items():
        v = c * alpha(s[: p + 1])
        if v:
            back = s[p:]
            out[back] = out.get(back, 0) + v
    return Chain(chain.dim - p, out)


def u_basis(simplex):
    """The dual basis cochain of one simplex."""
    return Cochain(len(simplex) - 1, {tuple(simplex): 1})


def _face_sign(top, face):
    (v,) = set(top) - set(face)
    return (-1) ** top.index(v)


# ---------------------------------------------------------------------------
# ordered complexes


class OrderedComplex:
    """Simplicial complex on totally ordered vertices 0..n-1; simplices are
    strictly increasing index tuples."""

    def __init__(self, maximal, n_vertices=None):
        by_dim = {}
        seen = set()

        def add(s):
            if s in seen:
                return
            seen.add(s)
            by_dim.setdefault(len(s) - 1, set()).add(s)
            for i in range(len(s)):
                f = s[:i] + s[i + 1:]
                if f:
                    add(f)

        for s in maximal:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise ValueError("degenerate simplex %r" % (s,))
            add(t)
        self._simplices = {d: sorted(ss) for d, ss in by_dim.items()}
        self.dim = max(self._simplices) if self._simplices else -1
        if n_vertices is None:
            n_vertices = max((v for s in seen for v in s), default=-1) + 1
        self.n_vertices = n_vertices

    def simplices(self, d):
        return self._simplices.get(d, [])

    def all_simplices(self):
        for d in sorted(self._simplices):
            for s in self._simplices[d]:
                yield s

    def counts(self):
        return {d: len(ss) for d, ss in self._simplices.items()}

    def fundamental_cycle(self):
        """Coherently oriented top-dimensional cycle; NotManifold if the
        complex is not a closed orientable pseudomanifold."""
        n = self.dim
        tops = self.simplices(n)
        cofaces = {}
        for t in tops:
            for i in range(n + 1):
                f = t[:i] + t[i + 1:]
                cofaces.setdefault(f, []).append(t)
        for f, ts in cofaces.items():
            if len(ts) != 2:
                raise NotManifold(
                    "face %r lies in %d top simplices" % (f, len(ts))
                )
        sign = {tops[0]: 1}
        stack = [tops[0]]
        while stack:
            t = stack.pop()
            for i in range(n + 1):
                f = t[:i] + t[i + 1:]
                other = [x for x in cofaces[f] if x != t][0]
                need = -sign[t] * _face_sign(t, f) * _face_sign(other, f)
                if other in sign:
                    if sign[other] != need:
                        raise NotManifold("complex is not orientable")
                else:
                    sign[other] = need
                    stack.append(other)
        if len(sign) != len(tops):
            raise NotManifold("top dimension is not connected")
        xi = Chain(n, sign)
        if not boundary(xi).is_zero():
            raise NotManifold("fundamental cycle has a boundary")
        return xi


# ---------------------------------------------------------------------------
# barycentric subdivision with its chain maps


class Subdivision:
    """K' = barycentric subdivision of K; vertices of K' are the simplices
    of K ordered by (dimension, lexicographic), so the last-vertex collapse
    map theta is monotone on every flag."""

    def __init__(self, K):
        self.K = K
        verts = sorted(K.all_simplices(), key=lambda s: (len(s), s))
        self.vertex_of = {s: i for i, s in enumerate(verts)}
        self.simplex_of = verts
        tops = K.simplices(K.dim)
        maximal = []
        for t in tops:
            for fl in self._full_flags(t):
                maximal.append(tuple(self.vertex_of[x] for x in fl))
        self.Kp = OrderedComplex(maximal, n_vertices=len(verts))
        self._sd_cache = {}

    def _full_flags(self, s):
        if len(s) == 1:
            return [(s,)]
        out = []
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            for fl in self._full_flags(f):
                out.append(fl + (s,))
        return out

    # -- subdivision chain map --------------------------------------------

    def _sd_simplex(self, s):
        if s in self._sd_cache:
            return self._sd_cache[s]
        b = self.vertex_of[s]
        if len(s) == 1:
            out = {(b,): 1}
        else:
            out = {}
            for f, c in boundary(Chain(len(s) - 1, {s: 1})).coeffs.items():
                for fl, c2 in self._sd_simplex(f).items():
                    q = len(fl) - 1
                    key = fl + (b,)
                    out[key] = out.get(key, 0) + c * c2 * (-1) ** (q + 1)
        self._sd_cache[s] = out
        return out

    def sd(self, chain):
        out = {}
        for s, c in chain.coeffs.items():
            for fl, c2 in self._sd_simplex(s).items():
                out[fl] = out.get(fl, 0) + c * c2
        return Chain(chain.dim, out)

    # -- the collapse map ---------------------------------------------------

    def theta_vertex(self, kp_vertex):
        return self.simplex_of[kp_vertex][-1]

    def theta_chain(self, chain):
        out = {}
        for fl, c in chain.coeffs.items():
            img = tuple(self.theta_vertex(v) for v in fl)
            if len(set(img)) != len(img):
                continue
            # images are nondecreasing along a flag, so no sorting sign
            out[img] = out.get(img, 0) + c
        return Chain(chain.dim, out)

    def theta_pullback(self, alpha):
        """theta^# of a cochain on K, as a cochain on K'."""
        out = {}
        for fl in self.Kp.simplices(alpha.dim):
            img = tuple(self.theta_vertex(v) for v in fl)
            if len(set(img)) != len(img):
                continue
            v = alpha(img)
            if v:
                out[fl] = v
        return Cochain(alpha.dim, out)

    def sd_pullback(self, alpha):
        """sd^# of a cochain on K', as a cochain on K."""
        out = {}
        for s in self.K.simplices(alpha.dim):
            v = alpha(self.sd(Chain(alpha.dim, {s: 1})))
            if v:
                out[s] = v
        return Cochain(alpha.dim, out)


# ---------------------------------------------------------------------------
# dual cells and intersection products on a closed oriented manifold


class CellChain(_Combination):
    """Chain of dual cells: an integer map on the simplices dual to them."""

    __slots__ = ()


class DualComplex:
    """Dual cell structure of a closed oriented triangulated n-manifold."""

    def __init__(self, K):
        self.K = K
        self.n = K.dim
        self.sub = Subdivision(K)
        self.xi = K.fundamental_cycle()
        self.sd_xi = self.sub.sd(self.xi)
        self._dual_cache = {}
        self._dual_bdy_cache = {}

    # -- dual cells ---------------------------------------------------------

    def dual_cell(self, s):
        """D(s) as an explicit chain in K'."""
        s = tuple(s)
        if s not in self._dual_cache:
            self._dual_cache[s] = cap(self.sd_xi, self.sub.theta_pullback(u_basis(s)))
        return self._dual_cache[s]

    def phi(self, alpha):
        """The duality isomorphism C^p(K) -> C_{n-p}(K*)."""
        return CellChain(
            self.n - alpha.dim, {s: c for s, c in alpha.coeffs.items()}
        )

    def phi_inverse(self, b):
        return Cochain(self.n - b.dim, dict(b.coeffs))

    def realize(self, b):
        """A cell chain as a chain of K'."""
        out = Chain(b.dim, {})
        for s, c in b.coeffs.items():
            out = out + c * self.dual_cell(s)
        return out

    def dual_boundary(self, b):
        """Boundary in the dual cell complex, exact basis expansion."""
        out = {}
        for s, c in b.coeffs.items():
            for t, c2 in self._dual_boundary_cell(s).items():
                out[t] = out.get(t, 0) + c * c2
        return CellChain(b.dim - 1, out)

    def _dual_boundary_cell(self, s):
        s = tuple(s)
        if s in self._dual_bdy_cache:
            return self._dual_bdy_cache[s]
        bdy = boundary(self.dual_cell(s))
        cofaces = [
            t for t in self.K.simplices(len(s)) if set(s) <= set(t)
        ]
        expansion = {}
        rest = bdy
        for t in cofaces:
            dt = self.dual_cell(t)
            wf, w = next(iter(dt._clean().items()))
            c = rest.coeffs.get(wf, 0)
            if c % w:
                raise NotManifold("dual boundary fails to expand over cofaces")
            k = c // w
            if k:
                expansion[t] = k
                rest = rest - k * dt
        if not rest.is_zero():
            raise NotManifold("dual boundary has terms outside coface cells")
        self._dual_bdy_cache[s] = expansion
        return expansion

    # -- intersection product -----------------------------------------------

    def intersection_product(self, a, b):
        """C_p(K) x C_q(K*) -> C_{p+q-n}(K')."""
        if a.dim + b.dim < self.n:
            raise DimensionMismatch("product needs p + q >= n")
        v = self.phi_inverse(b)
        return cap(self.sub.sd(a), self.sub.theta_pullback(v))

    def cup_on(self, alpha, beta):
        return cup(alpha, beta, self.K.simplices(alpha.dim + beta.dim))


# ---------------------------------------------------------------------------
# relative machinery for a pair (K, L)


class RelativePair:
    """Pair machinery: cochains away from L, the relative duality map and
    the relative intersection product."""

    def __init__(self, K, L_simplices):
        self.dual = DualComplex(K)
        self.K = K
        self.L = set(tuple(s) for s in L_simplices)
        # closure check
        for s in self.L:
            for i in range(len(s)):
                f = s[:i] + s[i + 1:]
                if f and f not in self.L:
                    raise ValueError("L is not closed under faces")

    def in_L(self, s):
        return tuple(s) in self.L

    def reduce_K(self, chain):
        """Reduce a K-chain mod L."""
        return Chain(
            chain.dim, {s: c for s, c in chain.coeffs.items() if not self.in_L(s)}
        )

    def reduce_Kp(self, chain):
        """Reduce a K'-chain mod L' (flags whose top simplex lies in L)."""
        sub = self.dual.sub
        out = {}
        for fl, c in chain.coeffs.items():
            top = sub.simplex_of[fl[-1]]
            if top not in self.L:
                out[fl] = c
        return Chain(chain.dim, out)

    def phi_bar(self, alpha):
        """Relative duality: away-cochains to relative cell chains."""
        for s in alpha.coeffs:
            if self.in_L(s):
                raise ValueError("cochain is supported on L")
        return CellChain(
            self.dual.n - alpha.dim, {s: c for s, c in alpha.coeffs.items()}
        )

    def reduce_cells(self, b):
        return CellChain(
            b.dim, {s: c for s, c in b.coeffs.items() if not self.in_L(s)}
        )

    def relative_intersection_product(self, a_bar, b_bar):
        """C_p(K,L) x C_q(K*,L*) -> C_{p+q-n}(K',L')."""
        return self.reduce_Kp(self.dual.intersection_product(
            self.reduce_K(a_bar), self.reduce_cells(b_bar)))


# ---------------------------------------------------------------------------
# identity evaluator used by tests and the verification CLI


def evaluate_triple_pairing(dual, T, alpha, beta):
    """Both sides of the cup-versus-double-intersection identity:
    (alpha cup beta)(T) versus the augmented double product."""
    lhs = dual.cup_on(alpha, beta)(T)
    sub = dual.sub
    step1 = sub.theta_chain(dual.intersection_product(T, dual.phi(alpha)))
    step2 = sub.theta_chain(dual.intersection_product(step1, dual.phi(beta)))
    rhs = augmentation(step2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# test complexes


def boundary_simplex(n):
    """The boundary of the n-simplex: a triangulated (n-1)-sphere."""
    verts = tuple(range(n + 1))
    maximal = [verts[:i] + verts[i + 1:] for i in range(n + 1)]
    return OrderedComplex(maximal, n_vertices=n + 1)


def torus_9():
    """The 9-vertex 18-triangle flat torus (3x3 grid with identifications)."""
    tris = []
    for i in range(3):
        for j in range(3):
            v = lambda a, b: 3 * (a % 3) + (b % 3)
            tris.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            tris.append((v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)))
    return OrderedComplex(tris, n_vertices=9)


def circle_complex():
    return OrderedComplex([(0, 1), (1, 2), (0, 2)], n_vertices=3)


def product_complex(K, L):
    """Staircase triangulation of |K| x |L| on lexicographic vertex order."""
    nL = L.n_vertices
    vid = lambda u, v: u * nL + v

    maximal = []
    for s in K.simplices(K.dim):
        for t in L.simplices(L.dim):
            a, b = len(s) - 1, len(t) - 1
            for path in _lattice_paths(a, b):
                i = j = 0
                simplex = [vid(s[0], t[0])]
                for move in path:
                    if move == "R":
                        i += 1
                    else:
                        j += 1
                    simplex.append(vid(s[i], t[j]))
                maximal.append(tuple(simplex))
    return OrderedComplex(maximal, n_vertices=K.n_vertices * nL)


def _lattice_paths(a, b):
    if a == 0:
        return ["U" * b]
    if b == 0:
        return ["R" * a]
    return ["R" + p for p in _lattice_paths(a - 1, b)] + [
        "U" + p for p in _lattice_paths(a, b - 1)
    ]


def s1_x_s2():
    return product_complex(circle_complex(), boundary_simplex(3))


COMPLEXES = {
    "boundary_delta3": lambda: boundary_simplex(3),
    "boundary_delta4": lambda: boundary_simplex(4),
    "torus9": torus_9,
    "s1xs2": s1_x_s2,
}


# ---------------------------------------------------------------------------
# identity suite


def _random_chain(rng, simplices, dim, lo=-3, hi=3):
    return Chain(dim, {s: rng.randint(lo, hi) for s in simplices})


def _random_cochain(rng, simplices, dim, lo=-3, hi=3):
    return Cochain(dim, {s: rng.randint(lo, hi) for s in simplices})


def verify_suite(complex_name="boundary_delta4", seed=0, cases=200):
    """Run the full identity suite; returns a JSON-ready report.

    `cases` random cases per randomized identity, at least one: with none,
    those identities would pass without checking anything.
    """
    if cases < 1:
        raise InputError("cases must be a positive integer, got %d" % cases)
    K = COMPLEXES[complex_name]()
    dual = DualComplex(K)
    sub = dual.sub
    n = dual.n
    rng = random.Random(seed)

    # each identity yields its (lhs, rhs) cases; the randomized ones draw
    # from `rng` in table order

    # collapse/subdivision identities, exhaustive on bases
    def theta_after_sd_is_identity():
        for s in K.all_simplices():
            c = Chain(len(s) - 1, {s: 1})
            yield sub.theta_chain(sub.sd(c)), c

    def sd_pullback_after_theta_pullback_is_identity():
        for s in K.all_simplices():
            u = u_basis(s)
            yield sub.sd_pullback(sub.theta_pullback(u)), u

    def sd_is_a_chain_map():
        for s in K.all_simplices():
            c = Chain(len(s) - 1, {s: 1})
            yield boundary(sub.sd(c)), sub.sd(boundary(c))

    # duality: phi(delta u_s) = (-1)^(p+1) boundary D(s), realized in K'
    def phi_coboundary_identity():
        for s in K.all_simplices():
            p = len(s) - 1
            if p == n:
                continue
            yield (dual.realize(dual.phi(coboundary(K, u_basis(s)))),
                   (-1) ** (p + 1) * boundary(dual.dual_cell(s)))

    # Leibniz boundary formula.  The realized products obey
    #   boundary(a.b) = (-1)^(n-q) boundary(a).b + a.boundary(b)
    # uniformly; on odd-dimensional manifolds (the case the linking theory
    # lives in, n = 3) the last sign equals the classical (-1)^(n+1).
    def leibniz_boundary_formula():
        for _ in range(cases):
            p = rng.randint(1, n)
            qmin = max(n - p + 1, 1)
            if qmin > n:
                continue
            q = rng.randint(qmin, n)
            a = _random_chain(rng, K.simplices(p), p)
            b_cells = _random_cochain(rng, K.simplices(n - q), n - q)
            b = dual.phi(b_cells)
            yield (boundary(dual.intersection_product(a, b)),
                   (-1) ** (n - q) * dual.intersection_product(boundary(a), b)
                   + dual.intersection_product(a, dual.dual_boundary(b)))

    # cap through the subdivision (collapse compatibility)
    def cap_collapse_compatibility():
        for _ in range(cases):
            p = rng.randint(0, n)
            m = rng.randint(p, n)
            a = _random_chain(rng, K.simplices(m), m)
            beta = _random_cochain(rng, K.simplices(p), p)
            yield (cap(a, beta),
                   sub.theta_chain(cap(sub.sd(a), sub.theta_pullback(beta))))

    # cup evaluated against the double intersection product
    def cup_equals_double_intersection():
        for _ in range(cases):
            p = rng.randint(1, n - 1)
            q = rng.randint(1, n - p)
            alpha = _random_cochain(rng, K.simplices(p), p)
            beta = _random_cochain(rng, K.simplices(q), q)
            T = _random_chain(rng, K.simplices(p + q), p + q)
            yield evaluate_triple_pairing(dual, T, alpha, beta)

    # support of the product inside both supports: nothing outside them
    def product_support_inclusion():
        for s in K.simplices(n - 1):
            for t in (s[:-1], s[1:]):
                if len(t) - 1 + len(s) - 1 < n:
                    continue
                prod = dual.intersection_product(
                    Chain(len(s) - 1, {s: 1}), dual.phi(u_basis(t))
                )
                sd_supp = _closure(sub.sd(Chain(len(s) - 1, {s: 1})).support())
                d_supp = _closure(dual.dual_cell(t).support())
                yield set(prod.support()) - (sd_supp & d_supp), set()

    # cycle . boundary bounds, by explicit filling (Leibniz with da = 0)
    def cycle_dot_boundary_bounds():
        for _ in range(max(1, cases // 10)):
            b = dual.phi(_random_cochain(rng, K.simplices(0), 0))
            a = dual.xi  # a cycle
            db = dual.dual_boundary(b)
            if a.dim + db.dim < n:
                continue
            yield (boundary(dual.intersection_product(a, b)),
                   dual.intersection_product(a, db))

    report = {"complex": complex_name, "seed": seed, "cases": cases, "identities": {}}
    for identity in (
        theta_after_sd_is_identity,
        sd_pullback_after_theta_pullback_is_identity,
        sd_is_a_chain_map,
        phi_coboundary_identity,
        leibniz_boundary_formula,
        cap_collapse_compatibility,
        cup_equals_double_intersection,
        product_support_inclusion,
        cycle_dot_boundary_bounds,
    ):
        checked = failures = 0
        for lhs, rhs in identity():
            checked += 1
            failures += lhs != rhs
        report["identities"][identity.__name__] = {
            "checked": checked, "failures": failures,
        }
    report["pass"] = all(
        v["failures"] == 0 for v in report["identities"].values()
    )
    return report


def _closure(simplices):
    out = set()
    for s in simplices:
        k = len(s)
        for mask in range(1, 1 << k):
            f = tuple(s[i] for i in range(k) if mask >> i & 1)
            out.add(f)
    return out
