"""The partial-aggregate algebra: exact, mergeable, order-free.

A :class:`Partial` is the merge-state of one region's contribution to
an aggregate query -- the ``(count, sum, min, max)`` tuple of the
Multiresolution Cube Estimators shape, carried in a representation
chosen so that **merging is associative, commutative and
duplicate-safe** (the properties the hierarchy depends on and the
property tests pin):

* the running sum is an exact rational (``fractions.Fraction``), not a
  float -- float addition is famously non-associative, and a sum that
  depends on merge order would make the rollup tree's answer depend on
  which child replied first.  Conversion ``float -> Fraction`` is
  exact; the single rounding happens once, at :func:`finalize`;
* non-finite inputs never enter the rational: ``NaN`` poisons the
  whole partial (one ``nan`` flag), infinities are tracked as signed
  presence flags, so ``inf + (-inf) = NaN`` falls out of flag algebra
  instead of float accumulation order;
* ``min``/``max`` track finite extrema only, in a total order that
  puts ``-0.0`` below ``0.0`` (hence associative and order-free), and
  re-introduce infinities from the flags at finalization.

Value extraction mirrors the XPath evaluator exactly --
``to_number(node_string_value(node))`` -- so ``count`` and ``sum``
answered from summaries agree with the naive
:func:`~repro.xpath.functions.fn_count` / ``fn_sum`` fan-out path.

A **merge-state** is a mapping ``{region id_path: (Partial, as_of)}``
-- one entry per contributing subtree, ``as_of`` the earliest time all
its data was known current.  Merging two states is a keyed union where
a key present in both resolves deterministically to the entry with the
larger ``(as_of, encoding)`` pair: merging a state
with itself (a duplicated reply) is a no-op, and merge order never
matters.  :func:`collapse` folds a state into one ``(Partial, ts)``
pair -- what a site ships upward, keyed by its own region, so state
maps stay fan-out-sized instead of leaf-sized.
"""

import math
from fractions import Fraction

#: The aggregate shapes the subsystem serves.  ``count`` and ``sum``
#: exist in the evaluator's core library too (the naive fallback);
#: ``avg``/``min``/``max`` are new capability only the rollup path
#: provides.
SHAPES = ("count", "sum", "avg", "min", "max")


def _signed(value):
    """The extrema order: by value, then ``-0.0`` below ``0.0``."""
    return value, math.copysign(1.0, value)


class Partial:
    """One mergeable partial aggregate (see module docstring)."""

    __slots__ = ("count", "total", "nan", "pos_inf", "neg_inf",
                 "minimum", "maximum")

    def __init__(self, count=0, total=Fraction(0), nan=False,
                 pos_inf=False, neg_inf=False, minimum=None, maximum=None):
        self.count = int(count)
        self.total = total if isinstance(total, Fraction) \
            else Fraction(total)
        self.nan = bool(nan)
        self.pos_inf = bool(pos_inf)
        self.neg_inf = bool(neg_inf)
        self.minimum = minimum
        self.maximum = maximum

    @classmethod
    def of_values(cls, values):
        """The partial over an iterable of extracted numbers."""
        partial = cls()
        for value in values:
            partial.add(float(value))
        return partial

    def add(self, value):
        """Fold one extracted value in (mutates; builders only)."""
        self.count += 1
        if math.isnan(value):
            self.nan = True
            return
        if math.isinf(value):
            if value > 0:
                self.pos_inf = True
            else:
                self.neg_inf = True
            return
        self.total += Fraction(value)
        self.minimum = value if self.minimum is None \
            else min(self.minimum, value, key=_signed)
        self.maximum = value if self.maximum is None \
            else max(self.maximum, value, key=_signed)

    def merge(self, other):
        """The combined partial (pure; the merge-operator core)."""
        merged = Partial(
            count=self.count + other.count,
            total=self.total + other.total,
            nan=self.nan or other.nan,
            pos_inf=self.pos_inf or other.pos_inf,
            neg_inf=self.neg_inf or other.neg_inf,
        )
        lows = [x for x in (self.minimum, other.minimum) if x is not None]
        highs = [x for x in (self.maximum, other.maximum) if x is not None]
        merged.minimum = min(lows, key=_signed) if lows else None
        merged.maximum = max(highs, key=_signed) if highs else None
        return merged

    # -- finalization --------------------------------------------------
    def _sum(self):
        if self.nan or (self.pos_inf and self.neg_inf):
            return float("nan")
        if self.pos_inf:
            return float("inf")
        if self.neg_inf:
            return float("-inf")
        try:
            return float(self.total)
        except OverflowError:
            # The exact total is finite but beyond float range; the
            # correctly-rounded float is the signed infinity.
            return float("inf") if self.total > 0 else float("-inf")

    def finalize(self, shape):
        """The scalar answer for *shape*, as the evaluator would type it.

        ``count`` is ``float(count)`` (``fn_count`` returns a float);
        ``sum`` of nothing is ``0.0`` (``fn_sum`` over an empty
        node-set); ``avg``/``min``/``max`` of nothing are ``NaN``, and
        any ``NaN`` input poisons every shape but ``count``.
        """
        if shape == "count":
            return float(self.count)
        if shape == "sum":
            return self._sum()
        if self.count == 0 or self.nan:
            return float("nan")
        if shape == "avg":
            total = self._sum()
            if math.isnan(total) or math.isinf(total):
                return total
            return total / self.count
        if shape == "min":
            if self.neg_inf:
                return float("-inf")
            return self.minimum if self.minimum is not None \
                else float("inf")
        if shape == "max":
            if self.pos_inf:
                return float("inf")
            return self.maximum if self.maximum is not None \
                else float("-inf")
        raise ValueError(f"unknown aggregate shape {shape!r}")

    # -- wire form -----------------------------------------------------
    def to_attrs(self):
        """The flat string-attribute form the wire codec embeds."""
        attrs = {
            "count": str(self.count),
            "num": str(self.total.numerator),
            "den": str(self.total.denominator),
        }
        if self.nan:
            attrs["nan"] = "1"
        if self.pos_inf:
            attrs["pinf"] = "1"
        if self.neg_inf:
            attrs["ninf"] = "1"
        if self.minimum is not None:
            attrs["lo"] = repr(float(self.minimum))
        if self.maximum is not None:
            attrs["hi"] = repr(float(self.maximum))
        return attrs

    @classmethod
    def from_attrs(cls, attrs):
        get = attrs.get
        minimum = get("lo")
        maximum = get("hi")
        return cls(
            count=int(get("count", "0")),
            total=Fraction(int(get("num", "0")), int(get("den", "1"))),
            nan=get("nan") == "1",
            pos_inf=get("pinf") == "1",
            neg_inf=get("ninf") == "1",
            minimum=float(minimum) if minimum is not None else None,
            maximum=float(maximum) if maximum is not None else None,
        )

    def signature(self):
        """A canonical, order-free identity (ties in state merges)."""
        return tuple(sorted(self.to_attrs().items()))

    def __eq__(self, other):
        return isinstance(other, Partial) and \
            self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return (f"Partial(count={self.count}, sum={self._sum()!r}, "
                f"min={self.minimum!r}, max={self.maximum!r})")


# ----------------------------------------------------------------------
# Merge-states: {region id_path: (Partial, as_of)}
# ----------------------------------------------------------------------
def _as_path(id_path):
    return tuple(tuple(entry) for entry in id_path)


def state_of(region, partial, as_of):
    """A single-entry merge-state."""
    return {_as_path(region): (partial, float(as_of))}


def merge_states(*states):
    """The keyed union of merge-states (associative/commutative).

    A region present in several states resolves to the entry with the
    larger ``(as_of, partial signature)`` pair -- a total order, so
    any merge tree over the same multiset of states yields the same
    result, and a duplicated state changes nothing.
    """
    merged = {}
    for state in states:
        for region, (partial, as_of) in state.items():
            region = _as_path(region)
            existing = merged.get(region)
            if existing is not None and \
                    (existing[1], existing[0].signature()) >= \
                    (as_of, partial.signature()):
                continue
            merged[region] = (partial, as_of)
    return merged


def collapse(state, now=None):
    """Fold a merge-state into one ``(Partial, as_of)`` pair.

    The as-of time is the **minimum** over entries -- a rollup is only
    as fresh as its stalest contributor.  An empty state collapses to
    an empty partial current at *now* (``0.0`` without one).
    """
    partial = Partial()
    as_of = None
    for entry, ts in state.values():
        partial = partial.merge(entry)
        as_of = ts if as_of is None else min(as_of, ts)
    if as_of is None:
        as_of = float(now) if now is not None else 0.0
    return partial, as_of
