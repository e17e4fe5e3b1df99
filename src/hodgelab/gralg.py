"""Graded commutative algebra substrate.

Provides the exact coefficient rings (Z, Q, F_p, Z/p^2) and
divided-power (PD) polynomial algebras in normal form.  Forms over
plain polynomial and Laurent bases live in :mod:`hodgelab.derham`.

The rings are the engine's one coefficient type: the field eliminations
of :mod:`hodgelab.exactlin` and :mod:`hodgelab.specseq` run on QQ_R and
FP(p) too, and ``is_field()`` tells Q and F_p from Z and Z/p^2.  A ring
takes ints and Fractions and maps them exactly (1/2 is 2 in F_3 and 5 in
Z/9); a denominator divisible by p, a non-integral Fraction over Z and
a float are refused, never truncated.  FP(p) and ZP2(p) refuse a p
that is not prime.

Weight conventions: every generator carries a weight; the weight of a
monomial is the exponent-weighted sum.  A PD model adjoins p^depth-th
roots of its generators and stores each exponent as a non-negative int
in units of 1/q, q = p^depth, so every key is a pair of int tuples.  A
PD model may carry a weight cap: a nonzero normal-form term past it
raises :class:`WeightOverflow`, while a product that vanishes mod p
(mod p^2 over Z/p^2) does not.  An exponent finer than 1/q raises
:class:`TruncationOverflow`; nothing is silently truncated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from operator import add

__all__ = [
    "RingMismatch", "WrongCharacteristic", "WeightOverflow",
    "TruncationOverflow", "ZZ", "QQ_R", "FP", "ZP2", "PDContext",
    "PDElement",
]


class RingMismatch(Exception):
    pass


class WrongCharacteristic(Exception):
    pass


class WeightOverflow(Exception):
    """A term left the modelled weight window."""


class TruncationOverflow(Exception):
    """An exponent needed a deeper p-power root than the model carries."""


class _Ring:
    """One coefficient ring: Z, Q, F_p or Z/p^2.

    normalize maps an int or a Fraction into the ring exactly: over F_p
    and Z/p^2 a Fraction a/b is a * b^-1, and ZeroDivisionError is
    raised when p divides b; over Z a non-integral Fraction raises
    ValueError.  Any other type, a float included, raises TypeError.
    zero, one, div and is_field serve the field eliminations, and
    add_to is the one in-place sparse accumulation.
    """

    __slots__ = ("name", "char", "modulus", "p", "zero", "one")

    def __init__(self, name, char, modulus=None, p=None):
        self.name = name
        self.char = char
        self.modulus = modulus
        self.p = p
        self.zero = self.normalize(0)
        self.one = self.normalize(1)

    def normalize(self, c):
        # an exact type test: isinstance(c, Fraction) goes through ABCMeta
        # and would cost the int path, which runs per coefficient
        if type(c) is int:
            if self.modulus is not None:
                return c % self.modulus
            return Fraction(c) if self.name == "Q" else c
        if type(c) is not Fraction:
            raise TypeError("%s coefficients are ints or Fractions, not %s"
                            % (self.name, type(c).__name__))
        if self.name == "Q":
            return c
        if c.denominator == 1:
            return self.normalize(c.numerator)
        if self.modulus is None:
            raise ValueError("%s is not an integer" % (c,))
        if c.denominator % self.p == 0:
            raise ZeroDivisionError("%s has p = %d in its denominator"
                                    % (c, self.p))
        return (c.numerator * pow(c.denominator, -1, self.modulus)
                % self.modulus)

    def is_field(self):
        """Q or F_p: every nonzero element is a unit."""
        return self.name == "Q" or (self.p is not None
                                    and self.modulus == self.p)

    def add(self, a, b):
        return self.normalize(a + b)

    def add_to(self, terms, key, c):
        """terms[key] += c in place, normalized once; a zero sum drops
        the key."""
        s = self.normalize(terms.get(key, 0) + c)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a):
        return self.normalize(a) == 0

    def is_unit(self, a):
        a = self.normalize(a)
        if self.is_field():
            return a != 0
        if self.modulus is None:
            return a in (1, -1)
        return a % self.p != 0  # Z/p^2: units are the prime-to-p classes

    def inv(self, a):
        a = self.normalize(a)
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit in %s: %r" % (self.name, a))
        if self.modulus is None:
            return 1 / a if self.name == "Q" else a
        return pow(a, -1, self.modulus)

    def __repr__(self):
        return self.name


ZZ = _Ring("Z", 0)
QQ_R = _Ring("Q", 0)
_fp_cache = {}
_zp2_cache = {}


# Miller-Rabin to the prime bases up to 41 is exact below _MR_LIMIT
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Exact primality by deterministic Miller-Rabin; ValueError from
    _MR_LIMIT on, where its bases no longer certify a prime."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True  # a composite below 43^2 has a prime factor <= 41
    if n >= _MR_LIMIT:
        raise ValueError("primality past %d is not certified" % _MR_LIMIT)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _prime(p):
    if not (isinstance(p, int) and _is_prime(p)):
        raise ValueError("p = %r is not a prime" % (p,))
    return p


def FP(p):
    """The field F_p; ValueError unless p is prime."""
    if p not in _fp_cache:
        _fp_cache[p] = _Ring("F%d" % p, p, modulus=p, p=_prime(p))
    return _fp_cache[p]


def ZP2(p):
    """The ring Z/p^2; ValueError unless p is prime."""
    if p not in _zp2_cache:
        _zp2_cache[p] = _Ring("Z/%d^2" % p, p * p, modulus=p * p,
                              p=_prime(p))
    return _zp2_cache[p]


# ---------------------------------------------------------------------------
# divided-power polynomial models


class PDContext:
    """PD envelope model D_I(R) in normal form.

    R is a (possibly p-root-deepened) polynomial ring over F_p or Z/p^2 on
    nvars generators of weight 1; I is generated by the given regular
    relator sequence, each relator either ('var', i) -- the generator x_i
    itself -- or ('diff', i, j) with i < j -- the difference x_i - x_j.

    Every exponent of x is a non-negative int u in units of 1/q, where
    q = p^depth: the key exponent u stands for x^(u/q).  Elements are
    kept in the normal form

        x^e * prod_j s_j^[k_j],

    where for a ('var', i) or ('diff', i, j) relator the exponent e_i lies
    in [0, q), that is x_i^(u/q) with u/q in [0, 1).  One rewrite rule
    takes integer parts out: x_i^a = (x_j + s_j)^a, where a ('var', i)
    relator has no x_j and keeps only s_j^a = a! s_j^[a].  Distinct
    relators must have distinct i, ordered increasingly, and a
    difference target j must not itself be a leading index of an earlier
    relator.

    With max_weight set, a nonzero normal-form term of larger weight
    raises WeightOverflow; a product that vanishes in the ring (mod p,
    or mod p^2) is zero and does not raise, even when its raw weight is
    past the cap.
    """

    __slots__ = ("ring", "p", "q", "nvars", "relators", "depth",
                 "max_weight")

    def __init__(self, ring, nvars, relators, depth=0, max_weight=None):
        if ring.p is None:
            raise WrongCharacteristic("PD model needs F_p or Z/p^2")
        if not isinstance(depth, int) or depth < 0:
            raise ValueError("root depth must be an int >= 0, got %r"
                             % (depth,))
        self.ring = ring
        self.p = ring.p
        self.nvars = nvars
        lead = []
        for rel in relators:
            if rel[0] == "var":
                lead.append(rel[1])
            elif rel[0] == "diff":
                i, j = rel[1], rel[2]
                if not i < j:
                    raise ValueError("difference relator needs i < j")
                lead.append(i)
            else:
                raise ValueError("unknown relator kind %r" % (rel[0],))
        if lead != sorted(set(lead)):
            raise ValueError("relator leading indices must be strictly "
                             "increasing")
        for rel in relators:
            if rel[0] == "diff" and rel[2] in lead[:lead.index(rel[1]) + 1]:
                raise ValueError("difference target shadows an earlier "
                                 "leading index")
        self.relators = tuple(relators)
        self.depth = depth
        self.q = self.p ** depth
        self.max_weight = max_weight

    # -- exponents ---------------------------------------------------------

    def check_exp(self, e):
        """An exponent must be a whole number of 1/q units, at least 0."""
        if e < 0:
            raise ValueError("negative exponent in PD model")
        if e != int(e):
            raise TruncationOverflow(
                "exponent of %s units of 1/%d exceeds root depth %d"
                % (e, self.q, self.depth))

    def zero(self):
        return PDElement(self, {})

    def one(self):
        return self.monomial((0,) * self.nvars, (0,) * len(self.relators))

    def monomial(self, exps, pd, coeff=1):
        """coeff * x^exps * prod_j s_j^[pd_j], exps in units of 1/q."""
        for e in exps:
            self.check_exp(e)
        exps = tuple(int(e) for e in exps)
        pd = tuple(int(k) for k in pd)
        el = PDElement(self, {})
        el._accumulate(exps, pd, self.ring.normalize(coeff),
                       sum(exps) + sum(pd) * self.q)
        return el

    def var(self, i, exp=1):
        """x_i^exp; exp is a power of x_i, not a count of units."""
        exps = [0] * self.nvars
        exps[i] = exp * self.q
        return self.monomial(exps, (0,) * len(self.relators))

    def pd_gen(self, j, k=1):
        pd = [0] * len(self.relators)
        pd[j] = k
        return self.monomial((0,) * self.nvars, tuple(pd))

    # -- strand enumeration --------------------------------------------------

    def strand_basis(self, w):
        """Ordered list of the normal-form keys of exact weight w.

        Keys are (exps, pd) pairs of int tuples, exps in units of 1/q, in
        lexicographic order; the recursion emits them in that order.

        >>> PDContext(FP(2), 2, [], depth=1).strand_basis(1)
        [((0, 2), ()), ((1, 1), ()), ((2, 0), ())]
        """
        q = self.q
        W = Fraction(w) * q
        if W < 0 or W.denominator != 1:
            return []
        W = int(W)
        nv, npd = self.nvars, len(self.relators)
        led = [False] * nv
        for rel in self.relators:
            led[rel[1]] = True
        last = nv + npd - 1 if npd else nv
        keys, slots = [], []

        # slots[:nv] are exponents in units, slots[nv:] PD exponents; the
        # last PD slot takes the rest, and with no relators none may be left
        def rec(i, left):
            if i >= nv and left % q:
                return
            if i == last:
                if npd or not left:
                    rest = (left // q,) if npd else ()
                    keys.append((tuple(slots[:nv]),
                                 tuple(slots[nv:]) + rest))
                return
            if i < nv:
                top, unit = (min(left, q - 1) if led[i] else left), 1
            else:
                top, unit = left // q, q
            # past the last exponent slot what is left must be a whole
            # number of q units, so there only c = left (mod q) lives
            first, step = (left % q, q) if i == nv - 1 else (0, 1)
            for c in range(first, top + 1, step):
                slots.append(c)
                rec(i + 1, left - c * unit)
                slots.pop()

        rec(0, W)
        # rec holds itself through its closure cell; clearing the cell
        # frees that cycle, and the lists it holds, on return instead of
        # at the next cyclic collection
        del rec
        return keys


class PDElement:
    """Element of a PDContext in normal form."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items()
                      if not ctx.ring.is_zero(v)}

    # normal-form accumulation: rewrite a raw monomial into basis keys

    def _accumulate(self, exps, pd, coeff, weight):
        # coeff is a raw int, reduced once where its term lands; weight, in
        # 1/q units, is kept by every rewrite, and the zero test comes
        # first, so a branch that vanishes never reaches the cap test
        ctx = self.ctx
        if not coeff % ctx.ring.modulus:
            return
        q = ctx.q
        # find first relator whose leading variable has integer part >= 1
        for j, rel in enumerate(ctx.relators):
            i = rel[1]
            a, frac = divmod(exps[i], q)
            if a:
                # x_i^a = (x_t + s)^a, s^c s^[k] = ((k+c)!/k!) s^[k+c]; a
                # ('var', i) relator has no x_t: only c = a, and t = i gains 0
                first, t = (0, rel[2]) if rel[0] == "diff" else (a, i)
                k = pd[j]
                for c in range(first, a + 1):
                    ne = list(exps)
                    ne[i] = frac
                    ne[t] += (a - c) * q
                    npd = list(pd)
                    npd[j] = k + c
                    self._accumulate(tuple(ne), tuple(npd),
                                     coeff * comb(a, c) * perm(k + c, c),
                                     weight)
                return
        # normal form reached
        if ctx.max_weight is not None and weight > ctx.max_weight * q:
            raise WeightOverflow("PD term of weight %s exceeds cap %s"
                                 % (Fraction(weight, q), ctx.max_weight))
        ctx.ring.add_to(self.terms, (exps, pd), coeff)

    def _require(self, other):
        if self.ctx is not other.ctx:
            raise RingMismatch("PD elements from different models")

    def __iadd__(self, other):
        """Sum in place: the left operand changes, so it must never be
        an element some cache still hands out."""
        self._require(other)
        add_to = self.ctx.ring.add_to
        # a copy of the items, since other may be self
        for k, v in list(other.terms.items()):
            add_to(self.terms, k, v)
        return self

    def __add__(self, other):
        out = PDElement(self.ctx, {})
        out.terms.update(self.terms)
        out += other
        return out

    def __neg__(self):
        ring = self.ctx.ring
        return PDElement(self.ctx, {k: ring.neg(v)
                                    for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        ring = self.ctx.ring
        c = ring.normalize(c)
        return PDElement(self.ctx, {k: ring.mul(v, c)
                                    for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PDElement):
            return self.scale(other)
        self._require(other)
        ctx = self.ctx
        q = ctx.q
        out = PDElement(ctx, {})
        # a product's weight is the sum of its factors' weights
        rhs = [(e2, k2, c2, sum(e2) + sum(k2) * q)
               for (e2, k2), c2 in other.terms.items()]
        for (e1, k1), c1 in self.terms.items():
            w1 = sum(e1) + sum(k1) * q
            for e2, k2, c2, w2 in rhs:
                # s^[a] s^[b] = C(a+b, a) s^[a+b]; one raw int per pair
                c = c1 * c2
                for a, b in zip(k1, k2):
                    c *= comb(a + b, a)
                out._accumulate(tuple(map(add, e1, e2)),
                                tuple(map(add, k1, k2)), c, w1 + w2)
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self.ctx.one()
        for _ in range(n):
            out = out * self
        return out

    def divided_power(self, n):
        """gamma_n of an element of the PD ideal, for n < p.

        For n < p this is x^n / n!, which is all the engine ever needs
        (higher divided powers of sums are never formed).
        """
        if n >= self.ctx.p:
            raise ValueError("divided_power only defined here for n < p")
        inv = self.ctx.ring.inv(factorial(n))
        return (self ** n).scale(inv)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, PDElement) and self.ctx is other.ctx
                and self.terms == other.terms)

    def coeff(self, key):
        return self.terms.get(key, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        ctx = self.ctx
        bits = []
        for (exps, pd), c in sorted(self.terms.items()):
            parts = []
            for i, e in enumerate(exps):
                if e != 0:
                    parts.append("x%d^%d" % (i + 1, e) if ctx.q == 1
                                 else "x%d^(%d/%d)" % (i + 1, e, ctx.q))
            for j, k in enumerate(pd):
                if k:
                    parts.append("s%d^[%d]" % (j + 1, k))
            bits.append("%s%s" % (c, "*" + "*".join(parts) if parts else ""))
        return " + ".join(bits)
