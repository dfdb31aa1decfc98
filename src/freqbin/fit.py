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
Each design keeps its last model evaluation, so the Jacobian at an iterate
reuses the residual's delay offsets, beat mean and envelope terms there,
with the same bytes as building them again.
Fringe fits start from the best point of a delay-offset (tau0) profile of
3x3 solves, mixed from one Gram matrix per scan, for the baseline and the
beat's cos and sin amplitudes.  One pair fixes only its beat phase at zero
delay, so a single-pair fit holds tau0 at 0 and starts from the one solve
there.  Envelope fits start from the peak and
half-height width of the beat power in closed form, O(N) work.  Internally
all times are in picoseconds, which keeps the Jacobian's columns comparable.

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
    "tau0_profile_points",
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

# Profile costs within this relative band count as ties.
_TIE_REL = 1e-6

# Index bins whose means locate the envelope start.  With 64, some scans at
# about 11 counts per point did not fit from the start.
_START_BINS = 16

# The root of (1 + x)^2 e^(-2x) = 1/2 (see `_envelope_start`).
_X_HALF = 1.077960450100453


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
    def visibility_clamped(self) -> float:
        """Visibility clamped to [0, 1] for reporting; raw value preserved."""
        return min(max(self.params["visibility"], 0.0), 1.0)

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
        self.names = ["scale", "visibility", "phi"] + ([] if self.gauge else ["tau0"])
        if fit_detuning:
            self.names.append("detuning")
        if fit_sigma:
            self.names.append("log_sigma")
        self._key = self._model = None

    def _cos_env(self, theta):
        """(N, V, phi, dt, detunings, sigma_ps, B, envelope) at theta.

        B = mean_m cos(2 pi d_m dt + phi); envelope is `envelope_terms(sigma_ps,
        dt)`, or None (and sigma_ps None) for the flat model.  The last
        evaluation is kept, read-only and keyed by the bytes of theta, so the
        Jacobian at an iterate reuses the residual's evaluation there (see
        `least_squares`); an evaluation that raises keeps nothing.
        """
        key = np.asarray(theta, dtype=np.float64).tobytes()
        if key == self._key:
            return self._model
        n, v, phi = theta[:3]
        t0 = 0.0 if self.gauge else theta[3]
        dets = (theta[self.names.index("detuning")],) if self.fit_detuning else self.d
        sigma_ps = math.exp(theta[-1]) if self.fit_sigma else None
        dt = self.t - t0
        env = None if sigma_ps is None else envelope_terms(sigma_ps, dt)
        cosb = np.zeros_like(dt)
        for d in dets:
            cosb += np.cos(2.0 * math.pi * d * dt + phi)
        cosb /= len(dets)
        for a in (dt, cosb) + (env or ()):
            a.flags.writeable = False
        self._key, self._model = key, (n, v, phi, dt, dets, sigma_ps, cosb, env)
        return self._model

    def residual(self, theta):
        n, v, _, _, _, _, cosb, env = self._cos_env(theta)
        e = 1.0 if env is None else env[2]
        return self.sw * (self.c - n * (0.5 - 0.5 * v * cosb * e))

    def jacobian(self, theta):
        n, v, phi, dt, dets, sigma_ps, cosb, env = self._cos_env(theta)
        if env is None:
            env = np.ones_like(dt)
            denv_dt0 = denv_du = np.zeros_like(dt)
        else:
            x, ex, env = env
            # dE/dt0 = sigma sign(dt) x e^{-x}; dE/du = -x^2 e^{-x} (x ~ e^u)
            denv_dt0 = sigma_ps * np.sign(dt) * x * ex
            denv_du = -(x**2) * ex
        sinb = np.zeros_like(dt)
        sinb_d = np.zeros_like(dt)
        for d in dets:
            s = np.sin(2.0 * math.pi * d * dt + phi)
            sinb += s
            sinb_d += s * d
        sinb /= len(dets)
        sinb_d /= len(dets)
        g = cosb * env
        p = 0.5 - 0.5 * v * g
        jac = np.empty((dt.size, len(self.names)))
        jac[:, 0] = -self.sw * p                          # scale
        jac[:, 1] = self.sw * n * 0.5 * g                 # visibility
        jac[:, 2] = -self.sw * n * 0.5 * v * sinb * env   # phi
        if not self.gauge:
            db_dt0 = 2.0 * math.pi * sinb_d
            dp_dt0 = -0.5 * v * (db_dt0 * env + cosb * denv_dt0)
            jac[:, 3] = -self.sw * n * dp_dt0             # tau0
        if self.fit_detuning:
            db_dd = -sinb * 2.0 * math.pi * dt
            dp_dd = -0.5 * v * db_dd * env
            jac[:, self.names.index("detuning")] = -self.sw * n * dp_dd  # detuning
        if self.fit_sigma:
            jac[:, -1] = self.sw * n * 0.5 * v * cosb * denv_du  # log_sigma
        return jac

    def profile(self, t0s):
        """Weighted linear fits counts ~ a + b C + c S, one per delay offset.

        C and S are mean_m cos and sin(2 pi d_m (tau - t0)) at the design's
        fixed detunings: the columns X = sqrt(w) [1, cos 2 pi d_m tau, sin 2 pi
        d_m tau] mixed by R(t0), the cos and sin of 2 pi d_m t0 over M.  So
        G = X^T X and h = X^T y are formed once, and each offset solves
        (R^T G R) beta = R^T h.  Returns the costs y^T y - beta . R^T h (an
        exact fit can round below 0, so clipped there) and the (a, b, c) rows.
        """
        t0s = np.asarray(t0s, dtype=np.float64)
        omega = 2.0 * math.pi * np.array(self.d)
        m = omega.size
        th = self.t[:, None] * omega
        x = self.sw[:, None] * np.hstack([np.ones((self.t.size, 1)), np.cos(th), np.sin(th)])
        y = self.sw * self.c
        cos_ph, sin_ph = np.cos(t0s[:, None] * omega) / m, np.sin(t0s[:, None] * omega) / m
        mix = np.zeros((t0s.size, 2 * m + 1, 3))
        mix[:, 0, 0] = 1.0
        mix[:, 1:, 1] = np.hstack([cos_ph, sin_ph])
        mix[:, 1:, 2] = np.hstack([-sin_ph, cos_ph])
        mix_t = mix.swapaxes(1, 2)
        rh = mix_t @ (x.T @ y)
        beta = (np.linalg.pinv(mix_t @ (x.T @ x) @ mix) @ rh[..., None])[..., 0]
        return np.maximum(y @ y - np.sum(beta * rh, axis=1), 0.0), beta

    def start(self, t0, coef, sigma_ps):
        """Parameter vector of the linear fit (a, b, c) at delay offset t0.

        N = 2a, V = hypot(b, c)/a and phi = atan2(c, -b); a gauge design
        takes t0 = 0 and leaves it out; a free detuning starts at the given one.
        """
        a, b, c = coef
        theta = [2.0 * a, math.hypot(b, c) / a, math.atan2(c, -b)]
        if not self.gauge:
            theta.append(t0)
        if self.fit_detuning:
            theta.append(self.d[0])
        if self.fit_sigma:
            theta.append(math.log(sigma_ps))
        return np.array(theta, dtype=np.float64)


Solution = namedtuple("Solution", "x cost nfev njev status")


def least_squares(fun, x0, jac):
    """Gauss-Newton for min 0.5 |fun(x)|^2: lstsq steps, each halved until the cost falls.

    status 1 once a step promises (0.5 |J s|^2, halved with it) at most 1e-13 of
    the cost; 0 after 400 residual evaluations.  ValueError if fun(x0) is not finite.
    jac(x) is always called right after fun(x) at the same x, so a jac that
    keeps fun's last evaluation (as `_FringeDesign` does) builds no model twice.
    """
    x = np.array(x0, dtype=np.float64)
    r = fun(x)
    cost = 0.5 * float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("the residuals are not finite at the start")
    nfev, njev = 1, 0
    while True:
        j = jac(x)
        njev += 1
        step = np.linalg.lstsq(j, -r, rcond=None)[0]
        gain = 0.5 * float(np.sum((j @ step) ** 2))
        while gain > 1e-13 * cost:
            if nfev >= 400:
                return Solution(x, cost, nfev, njev, 0)
            r_trial = fun(x + step)
            nfev += 1
            cost_trial = 0.5 * float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            step, gain = step / 2.0, gain / 2.0
        else:
            return Solution(x, cost, nfev, njev, 1)
        x, r, cost = x + step, r_trial, cost_trial


def _polish(design, x0, what):
    """One `least_squares` run from x0; FitError unless it converges."""
    try:
        res = least_squares(design.residual, x0, design.jacobian)
    except ValueError as exc:
        raise FitError(f"{what} has no finite start: {exc}") from exc
    except OverflowError as exc:  # a free log-linewidth ran past exp's range
        raise FitError(f"{what} diverged: {exc}") from exc
    if res.status <= 0:
        raise FitError(f"{what} did not converge in {res.nfev} evaluations "
                       f"(residual ss {2.0 * res.cost!r})")
    return res


def _canonical_fringe(theta):
    """Wrap the solution into V >= 0, phi in (-pi, pi]."""
    theta = np.array(theta, dtype=np.float64)
    if theta[1] < 0:
        theta[1] = -theta[1]
        theta[2] += math.pi
    theta[2] = math.pi - (math.pi - theta[2]) % (2.0 * math.pi)
    return theta


def _covariance(jac):
    cov = np.linalg.pinv(jac.T @ jac)
    return 0.5 * (cov + cov.T)


def tau0_profile_points(detunings) -> int:
    """How many delay offsets `fit_fringe` profiles for these beat detunings.

    1 for a single pair; else 32 max/min rounded up, plus 1: a step of at
    most 1/(16 max) over +/- 1/min.
    """
    if len(detunings) == 1:
        return 1
    return math.ceil(32.0 * max(detunings) / min(detunings)) + 1


def _profile_work(pairs: int, detunings) -> int:
    """Design entries of `fit_fringe`'s tau0 profile that do not grow with
    the scan, for M = `pairs` pairs whose beat detunings range over
    `detunings` (their lowest and highest suffice): the (2M + 1)-column
    mixing weights of each `tau0_profile_points` offset, and the Gram matrix."""
    cols = 2 * pairs + 1
    return max(tau0_profile_points(detunings) * cols, cols**2)


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
    oscillation period is itself measured.  Detunings whose tau0 profile
    would take more than MAX_SCAN_POINTS design entries (see
    `_profile_work`) raise DomainError before anything is allocated.

    Search: at fixed tau0 (and the given detunings) the model is linear in
    the baseline and the beat's cosine and sine amplitudes, so each tau0
    costs one 3x3 solve, mixed from one Gram matrix of the pairs' cos and
    sin columns (see `_FringeDesign.profile`).  tau0 is profiled on the grid of
    `tau0_profile_points` offsets over +/- 1/min(d); costs within a relative
    1e-6 of the lowest tie and go to the smallest |tau0|.  One polish from
    that point (see `least_squares`) frees every parameter and gives the
    covariance; FitError if it does not converge.  `iterations` reports
    its residual-evaluation count.

    Single-pair fits determine phi and tau0 only jointly (the beat phase
    at zero delay), so they fit with tau0 fixed at 0: their profile is the
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
    work = _profile_work(len(detunings), detunings)
    if work > MAX_SCAN_POINTS:
        raise DomainError(
            f"detunings {min(detunings):.6g} to {max(detunings):.6g} Hz over "
            f"{len(detunings)} pairs: the tau0 profile would take {work:,} design "
            f"entries, above {MAX_SCAN_POINTS:,}")

    taus_ps = data.taus * 1e12  # a dataset's delays strictly increase
    counts = data.counts.astype(np.float64)
    d_ps = [d * _PS for d in detunings]
    design = _FringeDesign(taus_ps, counts, d_ps, fit_detuning=fit_detuning)

    flags: list[str] = []
    if np.ptp(counts) == 0:
        # Degenerate data: no fringe information; report V = 0, not an error.
        theta = np.zeros(len(design.names))
        theta[0] = 2.0 * counts.mean() if counts.mean() > 0 else 1.0
        if fit_detuning:
            theta[-1] = d_ps[0]
        cov = _covariance(design.jacobian(theta))
        return _result(design, theta, cov, 0.0, 0, ("degenerate-data",))

    period_ps = 1.0 / min(d_ps)
    t0s = (np.zeros(1) if design.gauge else
           np.linspace(-period_ps, period_ps, tau0_profile_points(detunings)))
    costs, coefs = design.profile(t0s)
    ties = np.flatnonzero(costs <= costs.min() * (1.0 + _TIE_REL) + 1e-12)
    best = ties[np.argmin(np.abs(t0s[ties]))]
    winner = _polish(design, design.start(t0s[best], coefs[best], None), "fringe fit")

    theta = _canonical_fringe(winner.x)
    jac = design.jacobian(theta)
    cov = _covariance(jac)
    if design.gauge:
        flags.append("phase-gauge")
    if np.linalg.cond(jac.T @ jac) > 1e10:
        flags.append("ill-conditioned")
    return _result(design, theta, cov, 2.0 * winner.cost, winner.nfev, tuple(flags))


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
    visibility and phase from one linear solve there; one polish
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
    t0, sigma0 = _envelope_start(taus_ps, counts)
    th = 2.0 * math.pi * d_ps[0] * (taus_ps - t0)
    scale = design.sw * envelope_terms(sigma0, taus_ps - t0)[2]
    basis = np.column_stack([design.sw, np.cos(th) * scale, np.sin(th) * scale])
    coef = np.linalg.pinv(basis.T @ basis) @ (basis.T @ (design.sw * counts))
    res = _polish(design, design.start(t0, coef, sigma0), "envelope fit")
    theta = _canonical_fringe(res.x)

    cov = _covariance(design.jacobian(theta))
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
    over accepted draws.
    """
    if samples < 2:
        raise DomainError("samples must be at least 2")
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

