"""Weighted least-squares estimation for fringe datasets.

There are two fits.  `fit_fringe` fits the flat beat model (no envelope
factor) to a fine window; `fit_envelope` fits the full fringe model with
its linewidth free to a coarse scan.  Both minimize sum w_i (counts_i -
N p(tau_i))^2 with Poisson weights w = 1/max(counts, 1).  Every start is
separable (variable projection, Golub & Pereyra 1973): the linear
coefficients are solved in closed form at given nonlinear parameters, and
the start is polished once by Gauss-Newton with step halving on the
analytic Jacobian, which also frees any parameter held fixed there and
yields the covariance.
A design keeps no state: one evaluation gives the residual and a closure
that builds the Jacobian from the same delay offsets, beat mean and
envelope terms, and the polish builds it only at accepted iterates.
Both fits start from one weighted linear solve for the baseline and the
beat's cos and sin amplitudes at a delay offset (and, for the envelope, a
linewidth).  For several pairs, tau0 is the phase step between adjacent
pairs' free beat amplitudes (Kay's phase-difference estimator, IEEE Trans.
ASSP 37:1987, 1989, across the comb), and a fitted tau0 is reported within
one revival period around zero.  One pair fixes only its beat phase at
zero delay, so a single-pair fit holds tau0 at 0.  Envelope fits take the
delay offset and linewidth from the peak and half-height width of the beat
power in closed form, O(N) work.
Internally all times are in picoseconds, which keeps the Jacobian's
columns comparable.

Accidental floor note: only (1 - alpha) V is identifiable from one scan,
so the fits assume no floor and report (1 - alpha) V as the visibility;
fringe reports list alpha = 0.0 as fixed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .counting import MAX_SCAN_POINTS, FringeDataset
from .errors import DomainError, FitError, ReconstructionError
from .hom import envelope_terms
from .rng import STREAM_RECON, CounterRng
from .states import RestrictedDensityMatrix, fidelity as state_fidelity, restricted_density

__all__ = [
    "FitResult",
    "ReconstructionResult",
    "fit_fringe",
    "fit_envelope",
    "check_multiplexed_scan",
    "estimate_balance",
    "reconstruct",
    "MIN_FIT_POINTS",
    "MIN_ENVELOPE_SPAN_PS",
]

_PS = 1e-12  # seconds per picosecond

# Fewest delays a fringe or envelope fit accepts, and the shortest delay span
# (in ps) from which an envelope linewidth is fitted.
MIN_FIT_POINTS = 8
MIN_ENVELOPE_SPAN_PS = 1000.0

# Index bins whose means locate the envelope start.  With 64, some scans at
# about 11 counts per point did not fit from the start.
_START_BINS = 16

# The root of (1 + x)^2 e^(-2x) = 1/2 (see `_envelope_start`).
_X_HALF = 1.077960450100453

# Most Monte Carlo draws `reconstruct` takes: the [tomography] samples bound.
_MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class FitResult:
    """Estimates, one-sigma uncertainties, and diagnostics of one fit.

    params/sigmas are keyed by parameter name; covariance rows/columns
    follow free_names order and use the reported units (tau0 in seconds).
    """

    params: dict
    sigmas: dict
    covariance: np.ndarray
    free_names: tuple[str, ...]
    residual_ss: float
    iterations: int
    flags: tuple[str, ...] = ()

    @property
    def visibility(self) -> float:
        return self.params["visibility"]

    @property
    def phi(self) -> float:
        return self.params["phi"]

    @property
    def tau0(self) -> float:
        return self.params["tau0"]

    def report(self) -> str:
        """key = value +/- sigma lines plus a covariance block."""
        lines = [
            f"iterations = {self.iterations}",
            f"residual_ss = {self.residual_ss!r}",
            f"flags = {','.join(self.flags)}",
        ]
        for name in self.free_names:
            lines.append(f"{name} = {self.params[name]!r} +/- {self.sigmas[name]!r}")
        for name in self.params:
            if name not in self.free_names:
                lines.append(f"{name} = {self.params[name]!r} (fixed)")
        lines.append(f"# covariance order: {','.join(self.free_names)}")
        for row in np.atleast_2d(self.covariance):
            lines.append("cov = " + " ".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"


class _FringeDesign:
    """Residual/Jacobian factory for the shared-(V, phi) fringe model.

    Model: counts ~ N [ 1/2 - (V/2) B(tau) E(tau - t0) ] with
    B = mean_m cos(2 pi d_m (tau - t0) + phi); times in ps.  Free
    parameters are (N, V, phi, t0), then either the detuning (single pair,
    fit_detuning) or u = log(sigma_ps) (fit_sigma).  Without fit_sigma the
    model is flat: E = 1.  A flat single-pair design (`gauge`) fixes t0 = 0
    and drops it: its phi and t0 act only through the zero-delay beat phase.
    A flat design of several pairs, equally spaced by `delta`, repeats in t0
    every 1/delta.
    """

    def __init__(self, taus_ps, counts, detunings_ps, *, fit_detuning=False,
                 fit_sigma=False):
        self.t = np.asarray(taus_ps, dtype=np.float64)
        self.c = np.asarray(counts, dtype=np.float64)
        self.d = tuple(float(d) for d in detunings_ps)
        self.fit_detuning = fit_detuning
        self.fit_sigma = fit_sigma
        self.sw = np.sqrt(1.0 / np.maximum(self.c, 1.0))
        self.gauge = len(self.d) == 1 and not fit_sigma
        self.delta = (max(self.d) - min(self.d)) / (len(self.d) - 1) if len(self.d) > 1 else None
        self.names = ["scale", "visibility", "phi"] + ([] if self.gauge else ["tau0"])
        if fit_detuning:
            self.names.append("detuning")
        if fit_sigma:
            self.names.append("log_sigma")

    def evaluate(self, theta):
        """(residual, jacobian) at theta; jacobian() builds J from this evaluation.

        The residual is sqrt(w) (counts - model).  The design keeps nothing
        between calls: each evaluation holds its own delay offsets, beat
        mean and envelope terms (x, e^-x, E of `envelope_terms`; E = 1 for
        the flat model).  Each pair's argument 2 pi d (tau - t0) + phi is
        built once, and the Jacobian's sines reuse it.  Every product keeps
        the operands and order of the plain-expression reference in
        tests/test_fit.py, so no byte of the residual or Jacobian moves.
        The Jacobian's rows are formed in place in one (k, N) block, the
        transpose of the C-contiguous (N, k) array returned.
        """
        n, v, phi = theta[:3]
        dt = self.t if self.gauge else self.t - theta[3]
        dets = (theta[self.names.index("detuning")],) if self.fit_detuning else self.d
        if self.fit_sigma:
            sigma_ps = math.exp(theta[-1])
            x, ex, env = envelope_terms(sigma_ps, dt)
        args = [2.0 * math.pi * d * dt + phi for d in dets]
        # The beat means start from the first pair's term, not from zeros:
        # 0.0 + y is y for every y but -0.0, which cos never gives.
        cosb = np.cos(args[0])
        for arg in args[1:]:
            cosb += np.cos(arg)
        if len(dets) > 1:
            cosb /= len(dets)
        # The flat model leaves its E = 1 out everywhere, as y * 1.0 is y.
        p = 0.5 - (0.5 * v * cosb * env if self.fit_sigma else 0.5 * v * cosb)
        residual = self.sw * (self.c - n * p)

        def jacobian():
            sins = [np.sin(arg) for arg in args]
            sinb = sins[0] + 0.0  # a sine is -0.0 at -0.0, and 0.0 + -0.0 is +0.0
            for s in sins[1:]:
                sinb += s
            if len(dets) > 1:
                sinb /= len(dets)
            jac = np.empty((dt.size, len(self.names)))
            rows = jac.T
            nsw = -self.sw
            nswn = nsw * n
            swnh = self.sw * n * 0.5
            g = cosb * env if self.fit_sigma else cosb
            np.multiply(nsw, 0.5 - 0.5 * v * g if self.fit_sigma else p, out=rows[0])  # scale
            np.multiply(swnh, g, out=rows[1])                 # visibility
            np.multiply(nswn * 0.5 * v, sinb, out=rows[2])
            if self.fit_sigma:
                rows[2] *= env                                # phi
            if not self.gauge:
                sinb_d = sins[0] * dets[0] + 0.0  # as for sinb
                for s, d in zip(sins[1:], dets[1:]):
                    sinb_d += s * d
                if len(dets) > 1:
                    sinb_d /= len(dets)
                row = np.multiply(sinb_d, 2.0 * math.pi, out=rows[3])
                if self.fit_sigma:
                    row *= env
                # dE/dt0 = sigma sign(dt) x e^{-x}.  The flat model keeps its
                # 0.0: y + cosb * 0.0 is +0.0 where y is -0.0 and cosb > 0.
                row += cosb * (sigma_ps * np.sign(dt) * x * ex if self.fit_sigma else 0.0)
                row *= -0.5 * v
                row *= nswn                                   # tau0
            if self.fit_detuning:
                row = rows[self.names.index("detuning")]
                np.multiply(-sinb * 2.0 * math.pi, dt, out=row)
                row *= -0.5 * v
                if self.fit_sigma:
                    row *= env
                row *= nswn                                   # detuning
            if self.fit_sigma:
                # dE/du = -x^2 e^{-x} (x ~ e^u)
                np.multiply(swnh * v * cosb, -(x**2) * ex, out=rows[-1])  # log_sigma
            return jac

        return residual, jacobian

    def start(self, t0=None, sigma_ps=None):
        """Parameter vector of the weighted linear fit counts ~ a + b E C + c E S.

        C and S are mean_m cos and sin(2 pi d_m (tau - t0)) at the design's
        fixed detunings, and E is the envelope at sigma_ps (E = 1 without
        it): N = 2a, V = hypot(b, c)/a and phi = atan2(c, -b).  A gauge
        design takes t0 = 0 and leaves it out; a free detuning starts at the
        given one.  Without a t0, several pairs take it in closed form: the
        free solve on [1, cos 2 pi d_m tau, sin 2 pi d_m tau] gives each pair's
        amplitude u_m = b_m - i c_m, proportional to exp(-2 pi i d_m t0), and
        t0 = -arg(sum_m u_(m+1) conj(u_m)) / (2 pi delta), in (-1/(2 delta),
        1/(2 delta)].
        """
        omega = 2.0 * math.pi * np.array(self.d)
        m = omega.size
        y = self.sw * self.c
        if self.gauge:
            t0 = 0.0
        elif t0 is None:
            th = self.t[:, None] * omega
            x = self.sw[:, None] * np.hstack([np.ones((self.t.size, 1)), np.cos(th), np.sin(th)])
            free = np.linalg.pinv(x.T @ x) @ (x.T @ y)
            u = (free[1:m + 1] - 1j * free[m + 1:])[np.argsort(self.d)]
            t0 = -float(np.angle(np.sum(u[1:] * np.conj(u[:-1])))) / (2.0 * math.pi * self.delta)
        dt = self.t - t0
        scale = self.sw if sigma_ps is None else self.sw * envelope_terms(sigma_ps, dt)[2]
        th = dt[:, None] * omega
        x = np.column_stack([self.sw, np.cos(th).sum(axis=1) / m * scale,
                             np.sin(th).sum(axis=1) / m * scale])
        a, b, c = np.linalg.pinv(x.T @ x) @ (x.T @ y)
        theta = [2.0 * a, math.hypot(b, c) / a, math.atan2(c, -b)]
        if not self.gauge:
            theta.append(t0)
        if self.fit_detuning:
            theta.append(self.d[0])
        if sigma_ps is not None:
            theta.append(math.log(sigma_ps))
        return np.array(theta, dtype=np.float64)


Solution = namedtuple("Solution", "x cost nfev njev status")


def least_squares(fun, x0):
    """Gauss-Newton for min 0.5 |r(x)|^2: lstsq steps, each halved until the cost falls.

    fun(x) returns (r(x), jac) with jac() the Jacobian at x, as
    `_FringeDesign.evaluate` does; only the accepted iterate's jac is
    called, so no model is built twice.  status 1 once a step promises
    (0.5 |J s|^2, halved with it) at most 1e-13 of the cost; 0 after 400
    residual evaluations; -1 if r(x0) is not finite.
    """
    x = np.array(x0, dtype=np.float64)
    r, jac = fun(x)
    cost = 0.5 * float(r @ r)
    if not math.isfinite(cost):
        return Solution(x, cost, 1, 0, -1)
    nfev, njev = 1, 0
    while True:
        j = jac()
        njev += 1
        step = np.linalg.lstsq(j, -r, rcond=None)[0]
        gain = 0.5 * float(np.sum((j @ step) ** 2))
        while gain > 1e-13 * cost:
            if nfev >= 400:
                return Solution(x, cost, nfev, njev, 0)
            r_trial, jac_trial = fun(x + step)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            step, gain = step / 2.0, gain / 2.0
        else:
            return Solution(x, cost, nfev, njev, 1)
        x, r, jac, cost = x + step, r_trial, jac_trial, cost_trial


def _polish(design, x0, what):
    """(solution, theta, J, covariance) of one `least_squares` run from x0.

    FitError unless it converges.  theta is the solution in canonical form:
    V >= 0, phi in (-pi, pi], and for a flat design of several pairs t0 in
    (-1/(2 delta), 1/(2 delta)], moved by k whole periods with phi - 2 pi k
    d_min / delta (0 mod 2 pi for a harmonic comb), which leaves the model
    unchanged.  J and the covariance pinv(J^T J) are at theta.
    """
    try:
        res = least_squares(design.evaluate, x0)
    except OverflowError as exc:  # a free log-linewidth ran past exp's range
        raise FitError(f"{what} diverged: {exc}") from exc
    if res.status < 0:
        raise FitError(f"{what} has no finite start")
    if res.status == 0:
        raise FitError(f"{what} did not converge in {res.nfev} evaluations "
                       f"(residual ss {2.0 * res.cost!r})")
    theta = res.x.copy()
    if design.delta is not None and not design.fit_sigma:
        k = math.ceil(theta[3] * design.delta - 0.5)
        theta[3] -= k / design.delta
        theta[2] -= 2.0 * math.pi * k * min(design.d) / design.delta
    if theta[1] < 0:
        theta[1] = -theta[1]
        theta[2] += math.pi
    theta[2] = math.pi - (math.pi - theta[2]) % (2.0 * math.pi)
    jac = design.evaluate(theta)[1]()
    cov = np.linalg.pinv(jac.T @ jac)
    return res, theta, jac, 0.5 * (cov + cov.T)


def check_multiplexed_scan(detunings, span: float, points: int) -> None:
    """DomainError unless `fit_fringe` can fit these beat detunings (Hz) to a
    scan of `points` delays spanning `span` s.

    Several detunings must be distinct and equally spaced, by delta, as the
    closed-form tau0 start assumes; the scan must span two beat periods,
    2/delta, or adjacent pairs are not resolved; and the design of M pairs,
    (2M + 1) columns by max(N, 2M + 1) rows, must take at most
    MAX_SCAN_POINTS entries.  That bound comes first and needs only
    len(detunings), so a range can name more detunings than fit in memory.
    """
    pairs = len(detunings)
    if pairs < 2:
        return
    entries = (2 * pairs + 1) * max(points, 2 * pairs + 1)
    if entries > MAX_SCAN_POINTS:
        raise DomainError(f"{pairs} pairs over {points:,} delays: the fit's design would "
                          f"take {entries:,} entries, above {MAX_SCAN_POINTS:,}")
    steps = np.diff(np.sort(np.asarray(detunings, dtype=np.float64)))
    if not steps.min() > 0 or np.ptp(steps) > 1e-9 * steps.mean():
        raise DomainError("the detunings of a multiplexed fit must be distinct and "
                          "equally spaced")
    if not span * steps.mean() >= 2.0:
        raise DomainError(
            f"the scan spans {span * 1e12:.6g} ps, below two periods of the pairs' "
            f"beat, {2e12 / steps.mean():.6g} ps")


def fit_fringe(
    data: FringeDataset,
    detunings,
    sigma: None = None,
    *,
    fit_detuning: bool = False,
) -> FitResult:
    """Fit scale, visibility, phase, and delay offset to a fine count scan.

    detunings lists the known beat detunings in Hz (one entry per
    multiplexed pair; visibility and phase are shared across pairs).  The
    model is the flat beat, without the envelope factor, as suits windows
    much shorter than the envelope; `fit_envelope` fits the linewidth.
    sigma is accepted only as None (any other value raises DomainError).
    The fit assumes no accidental floor and reports alpha = 0.0 as fixed.
    fit_detuning (single pair only) frees the beat detuning so the
    oscillation period is itself measured.  Several pairs are checked by
    `check_multiplexed_scan` (DomainError) before anything is built; a scan
    of constant counts raises FitError.

    Search: at fixed tau0 (and the given detunings) the model is linear in
    the baseline and the beat's cosine and sine amplitudes.  tau0 comes in
    closed form from the phase steps between adjacent pairs' free
    amplitudes, and the linear coefficients from one weighted solve there
    (see `_FringeDesign.start`).  One polish from that point (see
    `least_squares`) frees every parameter and gives the covariance;
    FitError if it does not converge.  `iterations` reports its
    residual-evaluation count.  Several pairs, spaced by delta, give the
    same model every 1/delta in tau0: the reported tau0 lies in
    (-1/(2 delta), 1/(2 delta)], with phi moved to match.

    Single-pair fits determine phi and tau0 only jointly (the beat phase
    at zero delay), so they fit with tau0 fixed at 0: their start is the
    single solve there, phi is the zero-delay beat phase, tau0 is reported
    as fixed at 0.0, and the fit is flagged "phase-gauge".
    """
    if sigma is not None:
        raise DomainError("fit_fringe fits the flat beat model only (sigma=None); "
                          "fit_envelope fits the envelope linewidth")
    if len(data) < MIN_FIT_POINTS:
        raise DomainError(f"fit_fringe needs at least {MIN_FIT_POINTS} data points")
    detunings = [float(d) for d in np.atleast_1d(detunings)]
    if not detunings or not all(0 < d < math.inf for d in detunings):
        raise DomainError("detunings must be positive and finite")
    if fit_detuning and len(detunings) != 1:
        raise DomainError("fit_detuning requires a single pair")
    check_multiplexed_scan(detunings, float(data.taus[-1] - data.taus[0]), len(data))
    counts = data.counts.astype(np.float64)
    if np.ptp(counts) == 0:
        raise FitError("fringe scan has constant counts: no fringe to fit")

    taus_ps = data.taus * 1e12  # a dataset's delays strictly increase
    design = _FringeDesign(taus_ps, counts, [d * _PS for d in detunings],
                           fit_detuning=fit_detuning)
    res, theta, jac, cov = _polish(design, design.start(), "fringe fit")
    flags = ["phase-gauge"] if design.gauge else []
    if np.linalg.cond(jac.T @ jac) > 1e10:
        flags.append("ill-conditioned")
    return _result(design, theta, cov, 2.0 * res.cost, res.nfev, tuple(flags))


def _result(design, theta, cov, residual_ss, iterations, flags):
    """FitResult of a design's solution in reported units.

    tau0 is reported in s, the detuning in Hz and u = log(sigma_ps) as the
    equivalent fwhm in Hz (its covariance by the delta method).  Fringe
    fits also list the accidental floor they assume, alpha = 0.0, and a
    gauge design its fixed tau0 = 0.0.
    """
    names = list(design.names)
    d = np.array([{"tau0": _PS, "detuning": 1e12}.get(n, 1.0) for n in names])
    values = theta * d
    if design.fit_sigma:
        names[-1] = "fwhm"
        values[-1] = d[-1] = math.exp(theta[-1]) / (2.0 * math.pi) / _PS
    cov_rep = cov * np.outer(d, d)
    params = {name: float(values[i]) for i, name in enumerate(names)}
    sigmas = {name: float(math.sqrt(max(cov_rep[i, i], 0.0))) for i, name in enumerate(names)}
    if design.gauge:
        params["tau0"] = sigmas["tau0"] = 0.0
    if not design.fit_sigma:
        params["alpha"] = 0.0
    return FitResult(params, sigmas, cov_rep, tuple(names), float(residual_ss),
                     int(iterations), flags)


def _envelope_start(taus_ps, counts):
    """(t0, sigma_ps) that start the envelope fit, in closed form.

    With b the scan mean, q = (counts - b)^2 - b is the beat power above the
    Poisson variance: where the oscillation is unresolved, q estimates
    A^2 E^2(tau - t0) / 2.  The delays and q are averaged over
    min(_START_BINS, N) contiguous index bins.  t0 is the mean delay of the
    bin with the largest mean q, and sigma = x_h / w: E^2 = (1 + x)^2 e^(-2x)
    falls to half at x = x_h = `_X_HALF`, and w is the larger of the two
    distances from t0 at which the bin means fall to half the peak,
    interpolated linearly between bins.  If neither side falls that far, or
    the peak is not positive, w is half the span.  sigma is clamped to
    (1/4 .. 8) 2/span: at about 11 counts per point noise can put half the
    peak within a bin of t0, and a start of 20 to 64 times 2/span makes the
    polish overflow.  Work: O(N).
    """
    span_ps = float(taus_ps[-1] - taus_ps[0])
    baseline = counts.mean()
    cuts = np.linspace(0, taus_ps.size, min(_START_BINS, taus_ps.size) + 1).astype(np.intp)
    n = np.diff(cuts)
    tau, q = (np.add.reduceat(v, cuts[:-1]) / n
              for v in (taus_ps, (counts - baseline) ** 2 - baseline))
    i = int(np.argmax(q))
    half = q[i] / 2.0
    w = 0.5 * span_ps
    if half > 0:
        below = np.flatnonzero(q <= half)
        # (last bin above half the peak, first bin at or below it) on each side
        sides = [(k - 1, k) for k in below[below > i][:1]]
        sides += [(k + 1, k) for k in below[below < i][-1:]]
        if sides:
            w = max(abs(tau[j] + (q[j] - half) / (q[j] - q[k]) * (tau[k] - tau[j]) - tau[i])
                    for j, k in sides)
    sigma_ps = min(max(_X_HALF / w, 0.5 / span_ps), 16.0 / span_ps)
    return float(tau[i]), float(sigma_ps)


def fit_envelope(data: FringeDataset, detunings=None) -> FitResult:
    """Estimate the coherence envelope linewidth from a coarse delay scan.

    The full fringe model is fitted with the linewidth free.  Its start is
    the delay offset and linewidth of `_envelope_start`, with scale,
    visibility and phase from one linear solve there (see
    `_FringeDesign.start`); one polish
    (see `least_squares`) then frees every parameter and gives the
    covariance; FitError if it does not converge.
    Exactly one beat detuning is required: the argument, else the dataset
    metadata `detunings_hz`; a scan of several pairs is refused, because the
    polish ends in a local minimum of their revival comb.  A constant scan
    raises FitError.

    The linewidth is reported as equivalent fwhm in Hz.
    """
    if len(data) < MIN_FIT_POINTS:
        raise DomainError(f"fit_envelope needs at least {MIN_FIT_POINTS} data points")
    taus_ps = data.taus * 1e12  # a dataset's delays strictly increase
    counts = data.counts.astype(np.float64)
    span_ps = float(taus_ps[-1] - taus_ps[0])
    if span_ps < MIN_ENVELOPE_SPAN_PS:
        raise DomainError("envelope fit needs a scan spanning at least 1 ns")

    if detunings is None:
        if "detunings_hz" not in data.metadata:
            raise DomainError("fit_envelope needs the beat detunings (argument or "
                              "dataset metadata detunings_hz)")
        raw = str(data.metadata["detunings_hz"])
        try:
            detunings = [float(tok) for tok in raw.split(",") if tok]
        except ValueError as exc:  # its message names the token
            raise DomainError(f"dataset metadata detunings_hz: {exc}") from None
    d_ps = [float(d) * _PS for d in np.atleast_1d(detunings)]
    if len(d_ps) != 1:
        raise DomainError(
            f"fit_envelope takes exactly one detuning, got {len(d_ps)}: with more, "
            "the polish ends in a local minimum of the revival comb")
    if not 0 < d_ps[0] < math.inf:
        raise DomainError("the detuning must be positive and finite")

    if np.ptp(counts) == 0:
        raise FitError("coarse scan has constant counts: no envelope to fit")

    design = _FringeDesign(taus_ps, counts, d_ps, fit_sigma=True)
    start = design.start(*_envelope_start(taus_ps, counts))
    res, theta, _, cov = _polish(design, start, "envelope fit")
    ill = span_ps * math.exp(theta[-1]) < 1.0 or cov[-1, -1] > 1.0
    return _result(design, theta, cov, 2.0 * res.cost, res.nfev,
                   ("ill-conditioned",) if ill else ())


def estimate_balance(n1: float, s1: float, n2: float, s2: float) -> tuple[float, float]:
    """Balance p = n1/(n1 + n2) with propagated one-sigma uncertainty.

    sigma_p = sqrt(n2^2 s1^2 + n1^2 s2^2) / (n1 + n2)^2.
    """
    total = n1 + n2
    if total <= 0:
        raise DomainError("total counts must be positive")
    p = n1 / total
    sigma_p = math.sqrt(n2**2 * s1**2 + n1**2 * s2**2) / total**2
    return float(p), float(sigma_p)


@dataclass(frozen=True)
class ReconstructionResult:
    """Density matrix plus Monte Carlo fidelity uncertainty."""

    rho: RestrictedDensityMatrix
    fidelity: float
    sigma_fidelity: float
    rejection_rate: float
    samples_accepted: int
    theta_target: float


def reconstruct(
    p: float, sigma_p: float,
    V: float, sigma_V: float,
    phi: float, sigma_phi: float,
    *,
    theta_target: float = 0.0,
    samples: int = 20000,
    seed: int = 0,
) -> ReconstructionResult:
    """Build the restricted density matrix and propagate its fidelity error.

    Central values must be physical (checked by the matrix constructor).
    Uncertainty: Gaussian draws of (p, V, phi); p and V are clamped to
    [0, 1] and draws violating positivity are discarded (rejection above
    50% aborts).  sigma_F is the sample standard deviation of the fidelity
    over accepted draws.  samples must be an integer in [2, 1,000,000]
    (DomainError before any draw).
    """
    if not (isinstance(samples, (int, np.integer)) and 2 <= samples <= _MAX_SAMPLES):
        raise DomainError(f"samples must be an integer in [2, {_MAX_SAMPLES:,}], got {samples!r}")
    rho = restricted_density(p, V, phi)
    f_central = state_fidelity(rho, theta_target)

    rng = CounterRng(seed, STREAM_RECON)
    idx = np.arange(samples)
    zp = rng.normals(idx, slot=0)
    zv = rng.normals(idx, slot=1)
    zf = rng.normals(idx, slot=2)
    ps = np.clip(p + sigma_p * zp, 0.0, 1.0)
    vs = np.clip(V + sigma_V * zv, 0.0, 1.0)
    fs = phi + sigma_phi * zf
    ok = (ps - 0.5) ** 2 + vs**2 / 4.0 <= 0.25 + 1e-12
    accepted = int(np.count_nonzero(ok))
    rejection = 1.0 - accepted / samples
    if rejection > 0.5:
        raise ReconstructionError(
            f"rejection rate {rejection:.1%} exceeds 50%: uncertainties "
            "inconsistent with a physical state"
        )
    f_samples = 0.5 + 0.5 * vs[ok] * np.cos(fs[ok] - theta_target)
    sigma_f = float(np.std(f_samples, ddof=1)) if accepted >= 2 else 0.0
    return ReconstructionResult(rho, float(f_central), sigma_f,
                                float(rejection), accepted, float(theta_target))

