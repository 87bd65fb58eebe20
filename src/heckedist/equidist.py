"""Weighted empirical statistics against the semicircle measure family.

A Dataset is a nonempty weighted list of normalized Hecke eigenvalues
(optionally with per-place Casimir eigenvalues).  The tests are the weighted
Kolmogorov-Smirnov distance against a target CDF, Chebyshev moment
averages with jackknife z-scores, and a combined report comparing the
observed mass of an interval with its predicted mass.  A synthetic
generator draws datasets from the limit law (Hecke values from Phi(ord),
Casimir values from the spectral density restricted to a box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chebyshev import RAMANUJAN_SLACK, _chebyshev
from .errors import EmptyDataset, InvalidParameter, TotalWeightZero
from . import measures
from .measures import MeasureSpec, SpectralBox, phi_moment
from .numberfield import class_group

Z_THRESHOLD = 3.0  # largest moment |z| an equidist_report passes


@dataclass(frozen=True)
class DataPoint:
    label: str
    lam: float
    weight: float = 1.0
    casimir: Optional[tuple[float, ...]] = None


class Dataset:
    """Weighted normalized eigenvalues, stored as read-only numpy columns.

    A dataset is never empty: no points raise EmptyDataset, so no statistic
    checks again.  `lams` and `weights` are float64, `labels` a unicode
    array and `casimir` an n x d float64 array of per-place Casimir values,
    or None.  The constructor copies every array it is given, so no caller
    can write a column.  A synthetic dataset stores only the columns it
    drew: its labels are rebuilt on each read of `labels`, and its weights
    are one read-only 1.0 broadcast to n.  `points` rebuilds the DataPoints
    on demand; `from_points` goes the other way.
    """

    __slots__ = ("_lams", "_weights", "_labels", "casimir", "target", "meta")

    def __init__(self, lams, weights, labels, target: MeasureSpec, casimir=None,
                 meta: tuple[tuple[str, object], ...] = ()):
        self._adopt(np.array(lams, dtype=np.float64), np.array(weights, dtype=np.float64),
                    np.array(labels, dtype=str), target,
                    None if casimir is None else np.array(casimir, dtype=np.float64), meta)

    def _adopt(self, lams, weights, labels, target, casimir, meta):
        """Keep the columns uncopied and read-only, then check them.

        Only arrays that no caller holds may be passed: `__init__` passes
        its own copies, `synthesize_dataset` the columns it has just drawn,
        with labels None (they are derived from the row number).
        """
        for col in (lams, weights, labels, casimir):
            if col is not None:
                col.flags.writeable = False
        for name, value in zip(self.__slots__, (lams, weights, labels, casimir, target, meta)):
            object.__setattr__(self, name, value)
        if len(weights) != len(lams) or (labels is not None and len(labels) != len(lams)):
            raise InvalidParameter("lambda, weight and label columns differ in length")
        if not len(lams):
            raise EmptyDataset("dataset is empty")
        if casimir is not None and (casimir.ndim != 2 or len(casimir) != len(lams)):
            raise InvalidParameter("casimir values must be an n x d array")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        bad_lam = ~(np.abs(lams) <= 2.0 + RAMANUJAN_SLACK)
        bad = bad_lam | ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_lam[i]:
                raise InvalidParameter(f"lambda {lams[i]} outside [-2, 2] at {self.labels[i]}")
            raise InvalidParameter(f"weight {weights[i]} negative or not finite "
                                   f"at {self.labels[i]}")
        if np.sum(weights) <= 0.0:
            raise TotalWeightZero("dataset has zero total weight")

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name}")

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through the constructor, which copies
        return (Dataset, (self._lams, self._weights, self.labels, self.target, self.casimir,
                          self.meta))

    @property
    def labels(self) -> np.ndarray:
        if self._labels is not None:
            return self._labels
        labels = _synth_labels(len(self))  # built on each read, as `points` is
        labels.flags.writeable = False
        return labels

    @classmethod
    def from_points(cls, points, target: MeasureSpec,
                    meta: tuple[tuple[str, object], ...] = ()) -> "Dataset":
        points = tuple(points)
        cas = [pt.casimir for pt in points]
        given = [c is not None for c in cas]
        if any(given) and not all(given):
            raise InvalidParameter("casimir values on some points but not on all")
        return cls([pt.lam for pt in points], [pt.weight for pt in points],
                   [pt.label for pt in points], target, cas if any(given) else None, meta)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        cas = map(tuple, self.casimir.tolist()) if self.casimir is not None else [None] * len(self)
        return tuple(map(DataPoint, self.labels.tolist(), self._lams.tolist(),
                         self._weights.tolist(), cas))

    def __len__(self):
        return len(self._lams)

    def lambdas(self) -> np.ndarray:
        return self._lams

    def weights(self) -> np.ndarray:
        return self._weights


def _sorted_empirical(ds: Dataset):
    """(sorted distinct lambdas, right-continuous cumulative weights / total).

    The points are summed in lambda order.  Only when two lambdas are equal
    (0.0 and -0.0 count as equal) is the order taken from a stable sort on
    (lambda, label), which fixes the order the tied weights are summed in;
    ties are then collapsed, so the value at a tied point carries the whole
    mass sitting there.
    """
    lams = ds.lambdas()
    order = np.argsort(lams)
    xs = lams[order]
    tied = xs[1:] == xs[:-1]
    if tied.any():
        order = np.lexsort((ds.labels, lams))
        xs = lams[order]
    ws = ds.weights()[order]
    cum = np.cumsum(ws)
    cum /= np.sum(ws)
    keep = np.append(~tied, True)
    return xs[keep], cum[keep]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance


def ks_distance(ds: Dataset, spec: Optional[MeasureSpec] = None) -> float:
    """sup over sample points of |weighted empirical CDF - target CDF|."""
    spec = spec or ds.target
    xs, emp = _sorted_empirical(ds)
    return float(np.max(np.abs(emp - measures.cdf(spec, xs))))


# ---------------------------------------------------------------------------
# Chebyshev moment tests


@dataclass(frozen=True)
class MomentRow:
    ell: int
    value: float
    expected: float
    z: Optional[float]


def moment_test(ds: Dataset, ord: int, ell_max: int) -> list[MomentRow]:
    """Weighted Chebyshev averages against the Phi(ord) moments.

    The z-score uses a leave-one-out (jackknife) standard error of the
    weighted mean; there is no finite-sample error model to appeal to.  A
    zero standard error (one point, or all points equal) gives z = 0 when
    the mean is the expected moment and None otherwise.
    """
    if not 0 <= ell_max <= 40:
        raise InvalidParameter(f"ell_max must lie in [0, 40], got {ell_max}")
    lams = ds.lambdas()
    ws = ds.weights()
    W = float(np.sum(ws))
    n = len(ds)
    denom = W - ws
    loo_denom = np.where(denom > 0, denom, np.nan)
    loo = np.empty(n)  # w * X_ell, then its leave-one-out means, then their squared deviations
    out = []
    for ell, vals in zip(range(ell_max + 1), _chebyshev(lams)):
        # numpy's pairwise sum, not np.dot: BLAS splits a dot product by its
        # thread count, so S would depend on the CPUs
        np.multiply(ws, vals, out=loo)
        S = float(np.sum(loo))
        M = S / W
        expected = phi_moment(ord, ell)
        if n > 1:
            np.subtract(S, loo, out=loo)
            np.divide(loo, loo_denom, out=loo)
            np.copyto(loo, M, where=~np.isfinite(loo))
            loo -= np.mean(loo)
            np.square(loo, out=loo)
            se = math.sqrt(max((n - 1) / n * float(np.sum(loo)), 0.0))
        else:
            se = 0.0
        z = (M - expected) / se if se > 0 else (0.0 if M == expected else None)
        out.append(MomentRow(ell, M, expected, z))
    return out


# ---------------------------------------------------------------------------
# Synthetic data from the limit law

def _synth_labels(n: int) -> np.ndarray:
    """The labels "synth-%06d" % i for 0 <= i < n, as one unicode array.

    The code points are written into a uint32 buffer, one row per label,
    which is then viewed as unicode.  Rows with fewer digits than the widest
    end in NULs, which numpy reads as padding.
    """
    prefix = "synth-"
    start = len(prefix)
    digits = max(6, len(str(n - 1)))
    buf = np.zeros((n, start + digits), dtype=np.uint32)

    def fill(lo: int, hi: int):
        buf[lo:hi, :start] = [ord(c) for c in prefix]
        for width in range(6, digits + 1):  # the rows [a, b) have `width` digits
            a = max(lo, 0 if width == 6 else 10 ** (width - 1))
            b = min(hi, 10 ** width)
            if a >= b:
                continue
            q = np.arange(a, b)
            for col in range(start + width - 1, start - 1, -1):
                q, buf[a:b, col] = np.divmod(q, 10)
            buf[a:b, start:start + width] += ord("0")

    measures._over_slices(fill, n)
    return buf.view(f"U{start + digits}")[:, 0]


def synthesize_dataset(
    field,
    prime,
    ord: int,
    box: Optional[SpectralBox],
    n: int,
    seed: int,
) -> Dataset:
    """Draw n points with Hecke values from Phi(ord) and unit weights.

    When a spectral box is given, per-place Casimir values are drawn from
    the spectral density restricted to the box (atoms included).  Point i
    is labelled "synth-%06d" % i, so labels past 999999 are longer.  Only
    the drawn columns are stored: the labels and unit weights follow from n.
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    spec = MeasureSpec.phi(ord)
    lams = measures.sample(spec, n, seed)
    casimirs = None
    if box is not None:
        rng = np.random.default_rng([seed, 0xC0FFEE])
        casimirs = np.empty((n, len(box.places)))
        for j, pl in enumerate(box.places):
            # raises ZeroMassRegion, before it draws, on a place with no mass
            casimirs[:, j] = measures.sample_spectral(MeasureSpec.plancherel(pl.xi),
                                                      pl.low, pl.high, n, rng)
    meta = (
        ("field", getattr(field, "D", None) or "rational"),
        ("prime", str(prime)),
        ("ord", ord),
        ("seed", seed),
        ("n", n),
    )
    ds = Dataset.__new__(Dataset)
    # every column is new here; the labels and unit weights follow from n
    ds._adopt(lams, np.broadcast_to(1.0, (n,)), None, spec, casimirs, meta)
    return ds


# ---------------------------------------------------------------------------
# Reports


def _check_interval(interval: tuple[float, float]) -> tuple[float, float]:
    """(lo, hi) as floats, checked in this order: inside [-2, 2] up to the
    Ramanujan slack, finite, then lo < hi; cheap enough to run before any
    dataset is built."""
    lo, hi = float(interval[0]), float(interval[1])
    if lo < -2.0 - RAMANUJAN_SLACK or hi > 2.0 + RAMANUJAN_SLACK:
        raise InvalidParameter("interval must lie inside [-2, 2]")
    measures._check_finite(lo, hi)
    if lo >= hi:
        raise InvalidParameter(f"interval must have lo < hi, got [{lo}, {hi}]")
    return lo, hi


def equidist_report(
    ds: Dataset,
    interval: tuple[float, float],
    ord: int,
    field=None,
    box: Optional[SpectralBox] = None,
    ell_max: int = 10,
    ks_threshold: float = 0.02,
) -> dict:
    """Observed vs predicted mass on an interval, KS distance, moment table.

    The prediction for the interval fraction is the Phi(ord) mass.  When a
    field and spectral box are supplied, the absolute count predicted by
    the main-term constant 2^d sqrt(disc) / (pi^d h) * Pl(box) * Phi(I) is
    reported alongside; the box lies in R^d, so it needs one place per degree.
    """
    lo, hi = _check_interval(interval)
    if field is not None and box is not None and len(box.places) != field.degree:
        raise InvalidParameter(f"{len(box.places)} box places for a field of degree {field.degree}")
    spec = MeasureSpec.phi(ord)
    lams = ds.lambdas()
    ws = ds.weights()
    W = float(np.sum(ws))
    upper = (lams <= hi) if hi >= 2.0 else (lams < hi)
    observed = float(np.sum(ws[(lams >= lo) & upper])) / W
    predicted = 1.0 if (lo <= -2.0 and hi >= 2.0) else measures.mass(spec, (lo, hi))
    ks = ks_distance(ds, spec)
    moments = moment_test(ds, ord, ell_max)
    zs = [m.z for m in moments]
    max_abs_z = None if None in zs else max(abs(z) for z in zs)
    passed = bool(ks < ks_threshold and max_abs_z is not None and max_abs_z <= Z_THRESHOLD)
    report = {
        "n": len(ds),
        "total_weight": W,
        "interval": [lo, hi],
        "observed": observed,
        "predicted": predicted,
        "ratio": observed / predicted if predicted > 0 else None,
        "ks": ks,
        "ks_threshold": ks_threshold,
        "moments": [
            {"ell": m.ell, "value": m.value, "expected": m.expected, "z": m.z}
            for m in moments
        ],
        "max_abs_z": max_abs_z,
        "pass": passed,
    }
    if field is not None and box is not None:
        d = field.degree
        h = class_group(field).order
        const = (2**d) * math.sqrt(field.disc) / (math.pi**d * h)
        pl_mass = measures.mass(MeasureSpec.plancherel(0), box)
        report["main_term_constant"] = const
        report["predicted_weighted_count"] = const * pl_mass * predicted
    return report


def plot_data(ds: Dataset) -> np.ndarray:
    """(x, empirical cdf, target cdf) rows for external plotting, one per
    distinct lambda in ascending order, as an (n, 3) read-only float64 array."""
    xs, emp = _sorted_empirical(ds)
    rows = np.stack((xs, emp, measures.cdf(ds.target, xs)), axis=1)
    rows.flags.writeable = False
    return rows

