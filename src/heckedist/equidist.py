"""Weighted empirical statistics against the semicircle measure family.

A Dataset is a weighted list of normalized Hecke eigenvalues (optionally
with per-place Casimir eigenvalues).  The tests are the weighted
Kolmogorov-Smirnov distance against a target CDF, Chebyshev moment
averages with jackknife z-scores, and a combined report comparing the
observed mass of an interval with its predicted mass.  A synthetic
generator draws datasets from the limit law (Hecke values from Phi(ord),
Casimir values from the spectral density restricted to a box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import EmptyDataset, InvalidParameter, TotalWeightZero, ZeroMassRegion
from . import measures
from .measures import RAMANUJAN_SLACK, MeasureSpec, SpectralBox, phi_moment
from .numberfield import class_group

Z_THRESHOLD = 3.0  # largest moment |z| an equidist_report passes


@dataclass(frozen=True)
class DataPoint:
    label: str
    lam: float
    weight: float = 1.0
    casimir: Optional[tuple[float, ...]] = None


def _column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype)
    col.flags.writeable = False
    return col


class Dataset:
    """Weighted normalized eigenvalues, stored as read-only numpy columns.

    `lams` and `weights` are float64, `labels` a unicode array and `casimir`
    an n x d float64 array of per-place Casimir values, or None.  `points`
    rebuilds the DataPoints on demand; `from_points` goes the other way.
    """

    __slots__ = ("_lams", "_weights", "labels", "casimir", "target", "meta")

    def __init__(self, lams, weights, labels, target: MeasureSpec, casimir=None,
                 meta: tuple[tuple[str, object], ...] = ()):
        lams, weights, labels = (_column(lams, np.float64), _column(weights, np.float64),
                                 _column(labels, str))
        if not len(lams) == len(weights) == len(labels):
            raise InvalidParameter("lambda, weight and label columns differ in length")
        if casimir is not None:
            casimir = _column(casimir, np.float64)
            if casimir.ndim != 2 or len(casimir) != len(lams):
                raise InvalidParameter("casimir values must be an n x d array")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        bad_lam = ~(np.abs(lams) <= 2.0 + RAMANUJAN_SLACK)
        bad = bad_lam | ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_lam[i]:
                raise InvalidParameter(f"lambda {lams[i]} outside [-2, 2] at {labels[i]}")
            raise InvalidParameter(f"weight {weights[i]} negative or not finite at {labels[i]}")
        if len(lams) and np.sum(weights) <= 0.0:
            raise TotalWeightZero("dataset has zero total weight")
        for name, value in zip(self.__slots__, (lams, weights, labels, casimir, target, meta)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name}")

    @classmethod
    def from_points(cls, points, target: MeasureSpec,
                    meta: tuple[tuple[str, object], ...] = ()) -> "Dataset":
        points = tuple(points)
        cas = [pt.casimir for pt in points]
        if any(c is None for c in cas) and any(c is not None for c in cas):
            raise InvalidParameter("casimir values on some points but not on all")
        return cls([pt.lam for pt in points], [pt.weight for pt in points],
                   [pt.label for pt in points], target,
                   cas if points and cas[0] is not None else None, meta)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        cas = map(tuple, self.casimir.tolist()) if self.casimir is not None else [None] * len(self)
        return tuple(map(DataPoint, self.labels.tolist(), self._lams.tolist(),
                         self._weights.tolist(), cas))

    def __len__(self):
        return len(self._lams)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self._weights))

    def lambdas(self) -> np.ndarray:
        return self._lams

    def weights(self) -> np.ndarray:
        return self._weights


def _require_nonempty(ds: Dataset):
    if len(ds) == 0:
        raise EmptyDataset("dataset is empty")


def _sorted_empirical(ds: Dataset):
    """(sorted distinct lambdas, right-continuous cumulative weights / total).

    Ties are broken by a stable sort on (lambda, label) and then collapsed,
    so the value at a tied point carries the whole mass sitting there.
    """
    lams = ds.lambdas()
    order = np.lexsort((ds.labels, lams))
    xs, ws = lams[order], ds.weights()[order]
    cum = np.cumsum(ws) / np.sum(ws)
    keep = np.append(xs[1:] != xs[:-1], True)
    return xs[keep], cum[keep]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance


def ks_distance(ds: Dataset, spec: Union[MeasureSpec, None, "callable"] = None) -> float:
    """sup over sample points of |weighted empirical CDF - target CDF|.

    `spec` may also be a callable CDF (e.g. another dataset's empirical CDF
    via `empirical_cdf`), which makes self-comparison exactly zero.
    """
    _require_nonempty(ds)
    spec = spec or ds.target
    xs, emp = _sorted_empirical(ds)
    target = spec(xs) if callable(spec) else measures.cdf(spec, xs)
    return float(np.max(np.abs(emp - target)))


def empirical_cdf(ds: Dataset):
    """Right-continuous weighted empirical CDF of a dataset, as a callable."""
    _require_nonempty(ds)
    xs, emp = _sorted_empirical(ds)

    def F(t):
        idx = np.searchsorted(xs, np.asarray(t, dtype=float), side="right")
        vals = np.concatenate([[0.0], emp])[idx]
        return vals

    return F


# ---------------------------------------------------------------------------
# Chebyshev moment tests


@dataclass(frozen=True)
class MomentRow:
    ell: int
    value: float
    expected: float
    z: float


def moment_test(ds: Dataset, ord: int, ell_max: int) -> list[MomentRow]:
    """Weighted Chebyshev averages against the Phi(ord) moments.

    The z-score uses a leave-one-out (jackknife) standard error of the
    weighted mean; there is no finite-sample error model to appeal to.
    """
    _require_nonempty(ds)
    if not 0 <= ell_max <= 40:
        raise InvalidParameter(f"ell_max must lie in [0, 40], got {ell_max}")
    lams = ds.lambdas()
    ws = ds.weights()
    W = float(np.sum(ws))
    n = len(ds)
    denom = W - ws
    loo_denom = np.where(denom > 0, denom, np.nan)
    out = []
    # X_ell(lams) by chebyshev_eval's recurrence, one step per ell
    prev, vals = None, lams * 0 + 1
    for ell in range(ell_max + 1):
        if ell:
            prev, vals = vals, (lams if ell == 1 else lams * vals - prev)
        S = float(np.dot(ws, vals))
        M = S / W
        expected = phi_moment(ord, ell)
        if n > 1:
            loo = (S - ws * vals) / loo_denom
            loo = np.where(np.isfinite(loo), loo, M)
            se = math.sqrt(max((n - 1) / n * float(np.sum((loo - np.mean(loo)) ** 2)), 0.0))
        else:
            se = 0.0
        z = (M - expected) / se if se > 0 else (0.0 if M == expected else math.inf)
        out.append(MomentRow(ell, M, expected, z))
    return out


# ---------------------------------------------------------------------------
# Synthetic data from the limit law


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
    the spectral density restricted to the box (atoms included).
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    spec = MeasureSpec.phi(ord)
    lams = measures.sample(spec, n, seed)
    casimirs = None
    if box is not None:
        rng = np.random.default_rng([seed, 0xC0FFEE])
        cols = []
        for pl in box.places:
            pl_spec = MeasureSpec.plancherel(pl.xi)
            if measures.mass(pl_spec, (pl.low, pl.high)) <= 0.0:
                raise ZeroMassRegion(f"spectral box place {pl} carries no mass")
            cols.append(measures.sample_spectral(pl_spec, pl.low, pl.high, n, rng))
        casimirs = np.stack(cols, axis=1)
    labels = np.char.add("synth-", np.char.zfill(np.arange(n).astype(f"U{len(str(n - 1))}"), 6))
    meta = (
        ("field", getattr(field, "D", None) or "rational"),
        ("prime", str(prime)),
        ("ord", ord),
        ("seed", seed),
        ("n", n),
    )
    return Dataset(lams, np.ones(n), labels, spec, casimirs, meta)


# ---------------------------------------------------------------------------
# Reports


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
    reported alongside.
    """
    _require_nonempty(ds)
    lo, hi = float(interval[0]), float(interval[1])
    if lo < -2.0 - RAMANUJAN_SLACK or hi > 2.0 + RAMANUJAN_SLACK:
        raise InvalidParameter("interval must lie inside [-2, 2]")
    spec = MeasureSpec.phi(ord)
    lams = ds.lambdas()
    ws = ds.weights()
    W = float(np.sum(ws))
    upper = (lams <= hi) if hi >= 2.0 else (lams < hi)
    observed = float(np.sum(ws[(lams >= lo) & upper])) / W
    predicted = 1.0 if (lo <= -2.0 and hi >= 2.0) else measures.mass(spec, (lo, hi))
    ks = ks_distance(ds, spec)
    moments = moment_test(ds, ord, ell_max)
    max_abs_z = max(abs(m.z) for m in moments)
    passed = bool(ks < ks_threshold and max_abs_z <= Z_THRESHOLD)
    report = {
        "n": len(ds),
        "total_weight": W,
        "interval": [lo, hi],
        "observed": observed,
        "predicted": predicted,
        "ratio": observed / predicted if predicted > 0 else math.inf,
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


def plot_data(ds: Dataset, spec: Optional[MeasureSpec] = None) -> list[tuple[float, float, float]]:
    """(x, empirical cdf, target cdf) rows for external plotting."""
    _require_nonempty(ds)
    spec = spec or ds.target
    xs, emp = _sorted_empirical(ds)
    target = measures.cdf(spec, xs)
    return list(zip(xs.tolist(), emp.tolist(), target.tolist()))


def max_interior_gap(ds: Dataset, lo: float = -1.9, hi: float = 1.9) -> float:
    """Largest gap between consecutive sorted values inside [lo, hi]."""
    _require_nonempty(ds)
    xs = np.sort(ds.lambdas())
    xs = xs[(xs >= lo) & (xs <= hi)]
    if len(xs) < 2:
        return hi - lo
    return float(np.max(np.diff(xs)))
