"""Milnor triple invariants via Wirtinger presentations and Magnus expansion.

This module is the independent oracle for the geometric pipeline: it never
touches any geometry, only the diagram combinatorics.  Arc generators are
expanded into noncommutative power series over one symbol per component
(arc = conjugate of its component's base meridian, conjugators resolved
iteratively up to the truncation degree), and the triple invariant is read
off a longitude's degree-two coefficient.

``milnor_mu`` truncates at degree 2, the length of the word it reads.  That
is exact: truncation at degree n is a ring map, so the degree <= 2 part of a
product depends only on the degree <= 2 parts of its factors, and each
resolving round fixes one more degree of every arc series, so one round
settles degree 2.  Each conjugator's inverse is carried along with it
(conj * g goes with g^-1 * conj^-1), so no conjugator is inverted per arc.
"""


class TruncatedSeries:
    """Integer power series in noncommuting symbols, truncated by word length.

    Words are tuples of symbols (ints); multiplication silently drops any
    product word longer than the truncation degree.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if c and len(w) <= degree:
                    self.coeffs[tuple(w)] = c

    @classmethod
    def one(cls, degree):
        return cls(degree, {(): 1})

    @classmethod
    def generator(cls, degree, sym, power=1):
        """Magnus image of a meridian power: (1 + X)^power, truncated."""
        out = cls.one(degree)
        base = cls(degree, {(): 1, (sym,): 1})
        if power >= 0:
            for _ in range(power):
                out = out * base
        else:
            inv = base.inverse()
            for _ in range(-power):
                out = out * inv
        return out

    def coefficient(self, word):
        return self.coeffs.get(tuple(word), 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return TruncatedSeries(self.degree, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return TruncatedSeries(self.degree, out)

    def __mul__(self, other):
        deg = self.degree
        out = {}
        for w1, c1 in self.coeffs.items():
            room = deg - len(w1)
            for w2, c2 in other.coeffs.items():
                if len(w2) > room:
                    continue
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return TruncatedSeries(deg, out)

    def inverse(self):
        """Inverse of a series with constant term 1."""
        if self.coefficient(()) != 1:
            raise ValueError("only series with constant term 1 are invertible")
        p = self - TruncatedSeries.one(self.degree)
        out = TruncatedSeries.one(self.degree)
        term = TruncatedSeries.one(self.degree)
        for n in range(self.degree):
            term = term * p
            if not term.coeffs:
                break
            out = out + term if n % 2 else out - term
        return out

    def __eq__(self, other):
        return self.degree == other.degree and self._clean() == other._clean()

    def _clean(self):
        return {w: c for w, c in self.coeffs.items() if c}

    def __repr__(self):
        terms = sorted(self._clean().items(), key=lambda t: (len(t[0]), t[0]))
        return "Series(%s)" % ", ".join("%r:%d" % (w, c) for w, c in terms)


def longitude_word(d, i):
    """Longitude of component i as a list of (arc_generator, exponent).

    The word collects the signed over-arcs at every underpass along the
    component and ends with the base arc raised to minus the self-writhe,
    so the longitude carries zero framing.
    """
    arcs = d.component_arcs(i)
    under_at = {x.under_in: x for x in d.crossings}
    word = []
    for a in arcs:
        x = under_at.get(a)
        if x is not None:
            word.append((x.over_in, x.sign))
    w = d.writhe(i)
    if w:
        word.append((arcs[0], -w))
    return word


def _arc_expansions(d, degree):
    """Magnus series of every arc generator, resolved to the given degree.

    Each round rewrites every arc as conj^-1 * base * conj from the previous
    round's series, which fixes one more degree, so degree - 1 rounds (at
    least one) settle every coefficient up to the degree.  The conjugator's
    inverse is carried next to it, and each over-arc series is inverted at
    most once per round.
    """
    over_pairs = {x.over_out: x.over_in for x in d.crossings}
    exp = {}
    for ci, arcs in enumerate(d.components):
        for a in arcs:
            exp[a] = TruncatedSeries.generator(degree, ci + 1)
    under_at = {x.under_in: x for x in d.crossings}
    for _ in range(max(degree - 1, 1)):
        new = {}
        inverses = {}
        for ci, arcs in enumerate(d.components):
            base = TruncatedSeries.generator(degree, ci + 1)
            conj = conj_inv = TruncatedSeries.one(degree)
            for a in arcs:
                new[a] = conj_inv * base * conj
                x = under_at.get(a)
                if x is not None:
                    g = exp[x.over_in]
                    g_inv = inverses.get(x.over_in)
                    if g_inv is None:
                        g_inv = inverses[x.over_in] = g.inverse()
                    if x.sign < 0:
                        g, g_inv = g_inv, g
                    conj = conj * g
                    conj_inv = g_inv * conj_inv
        # over-strand arcs are literally the same generator
        for out_arc, in_arc in over_pairs.items():
            new[out_arc] = new[in_arc]
        exp = new
    return exp


def longitude_series(d, i, degree=3):
    exp = _arc_expansions(d, degree)
    out = TruncatedSeries.one(degree)
    for g, e in longitude_word(d, i):
        s = exp[g]
        if e < 0:
            s = s.inverse()
            e = -e
        for _ in range(e):
            out = out * s
    return out


def milnor_mu(d, indices):
    """Triple Milnor invariant mu-bar(i j k) for distinct components.

    Defined when the three pairwise linking numbers vanish, which
    ``d.check_unlinked`` decides; the value is the coefficient of X_i X_j
    in the Magnus expansion of the k-th longitude, truncated at degree 2,
    the length of that word.  The truncation is exact: it is a ring map, and
    the one resolving round run at degree 2 settles every degree-2
    coefficient.  Conjugator inverses are carried, not recomputed per arc.
    """
    d.check_unlinked(indices, 3)
    i, j, k = indices
    return longitude_series(d, k, len(indices) - 1).coefficient((i, j))
