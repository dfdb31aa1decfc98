"""Weighted least-squares estimation for fringe datasets.

Fringe fits minimize sum w_i (counts_i - N p(tau_i))^2 with Poisson weights
w = 1/max(counts, 1).  Every search is separable (variable projection,
Golub & Pereyra 1973): the linear coefficients are solved in closed form on
a grid of the nonlinear parameters, and the best grid point is polished
once by damped least squares (MINPACK Levenberg-Marquardt) with analytic
Jacobians, which also frees any parameter held fixed during the profile
and yields the covariance.  Fringe fits profile the delay offset tau0 with
weighted linear solves for the baseline and the beat's cosine and sine
amplitudes; the coarse envelope stage profiles (t0, log linewidth) with the
folded beat amplitude in closed form.  Internally all times are in
picoseconds: scipy's trust-region scaling misbehaves for parameters of
order 1e-10, and the analytic Jacobian keeps the curvature matrix sane.

Accidental floor note: the fringe model's (alpha, V) pair is structurally
degenerate (only (1 - alpha) V is identifiable from a single scan), so
fits hold alpha fixed unless explicitly asked; freeing it is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .counting import FringeDataset
from .errors import DomainError, FitError, ReconstructionError
from .hom import Envelope, envelope_value
from .rng import STREAM_RECON, CounterRng
from .states import RestrictedDensityMatrix, fidelity as state_fidelity, restricted_density

__all__ = [
    "FitResult",
    "ReconstructionResult",
    "fit_fringe",
    "fit_envelope",
    "estimate_balance",
    "reconstruct",
    "pool_phases",
]

_PS = 1e-12  # seconds per picosecond

# Profile costs within this relative band count as ties.
_TIE_REL = 1e-6

# Grid points times delays per block of a profile (bounds memory).
_PROFILE_BLOCK = 1 << 14


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
    converged: bool
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
            f"converged = {self.converged}",
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


def _envelope_parts(dt, sigma_ps):
    """E = (1 + x) e^{-x}, x = sigma |dt|, with dE/dt0 and dE/du (u = log sigma)."""
    x = np.minimum(np.abs(sigma_ps * dt), 700.0)
    ex = np.exp(-x)
    # dE/dt0 = sigma sign(dt) x e^{-x}; dE/du = -x^2 e^{-x} (x ~ e^u)
    return (1.0 + x) * ex, sigma_ps * np.sign(dt) * x * ex, -(x**2) * ex


class _FringeDesign:
    """Residual/Jacobian factory for the shared-(V, phi) fringe model.

    Model: counts ~ N [ 1/2 - (1-alpha) (V/2) B(tau) E(tau - t0) ] with
    B = mean_m cos(2 pi d_m (tau - t0) + phi); times in ps, E = 1 when
    sigma_ps is None.  Free parameters are (N, V, phi, t0), then alpha,
    the detuning (single pair) and u = log(sigma_ps) when each is fitted.
    """

    def __init__(self, taus_ps, counts, detunings_ps, sigma_ps, *, alpha=0.0,
                 fit_alpha=False, fit_detuning=False, fit_sigma=False):
        self.t = np.asarray(taus_ps, dtype=np.float64)
        self.c = np.asarray(counts, dtype=np.float64)
        self.d = tuple(float(d) for d in detunings_ps)
        self.sigma_ps = sigma_ps
        self.fit_alpha = fit_alpha
        self.fit_detuning = fit_detuning
        self.fit_sigma = fit_sigma
        self.alpha_fixed = alpha
        self.sw = np.sqrt(1.0 / np.maximum(self.c, 1.0))
        self._memo = (None, None)
        self.names = ["scale", "visibility", "phi", "tau0"]
        if fit_alpha:
            self.names.append("alpha")
        if fit_detuning:
            self.names.append("detuning")
        if fit_sigma:
            self.names.append("log_sigma")

    def _unpack(self, theta):
        n, v, phi, t0 = theta[:4]
        extra = iter(theta[4:])
        alpha = next(extra) if self.fit_alpha else self.alpha_fixed
        dets = (next(extra),) if self.fit_detuning else self.d
        sigma_ps = math.exp(next(extra)) if self.fit_sigma else self.sigma_ps
        return n, v, phi, t0, alpha, dets, sigma_ps

    def _parts(self, theta):
        # MINPACK asks for the Jacobian at the theta of its last residual.
        key = np.asarray(theta, dtype=np.float64).tobytes()
        if key == self._memo[0]:
            return self._memo[1]
        n, v, phi, t0, alpha, dets, sigma_ps = self._unpack(theta)
        dt = self.t - t0
        if sigma_ps is None:
            env = np.ones_like(dt)
            denv_dt0 = denv_du = np.zeros_like(dt)
        else:
            env, denv_dt0, denv_du = _envelope_parts(dt, sigma_ps)
        cosb = np.zeros_like(dt)
        sinb = np.zeros_like(dt)
        sinb_d = np.zeros_like(dt)
        for d in dets:
            th = 2.0 * math.pi * d * dt + phi
            cosb += np.cos(th)
            sinb += np.sin(th)
            sinb_d += np.sin(th) * d
        m = len(dets)
        cosb /= m
        sinb /= m
        sinb_d /= m
        self._memo = key, (n, v, alpha, dt, env, denv_dt0, denv_du, cosb, sinb, sinb_d)
        return self._memo[1]

    def model(self, theta):
        n, v, alpha, _, env, _, _, cosb, _, _ = self._parts(theta)
        return n * (0.5 - (1.0 - alpha) * 0.5 * v * cosb * env)

    def residual(self, theta):
        return self.sw * (self.c - self.model(theta))

    def jacobian(self, theta):
        (n, v, alpha, dt, env, denv_dt0, denv_du,
         cosb, sinb, sinb_d) = self._parts(theta)
        one_m_a = 1.0 - alpha
        g = cosb * env
        p = 0.5 - one_m_a * 0.5 * v * g
        cols = []
        cols.append(-self.sw * p)                                   # scale
        cols.append(self.sw * n * one_m_a * 0.5 * g)                # visibility
        cols.append(-self.sw * n * one_m_a * 0.5 * v * sinb * env)  # phi
        db_dt0 = 2.0 * math.pi * sinb_d
        dp_dt0 = -one_m_a * 0.5 * v * (db_dt0 * env + cosb * denv_dt0)
        cols.append(-self.sw * n * dp_dt0)                          # tau0
        if self.fit_alpha:
            cols.append(-self.sw * n * 0.5 * v * g)                 # alpha
        if self.fit_detuning:
            db_dd = -sinb * 2.0 * math.pi * dt
            dp_dd = -one_m_a * 0.5 * v * db_dd * env
            cols.append(-self.sw * n * dp_dd)                       # detuning
        if self.fit_sigma:
            cols.append(self.sw * n * one_m_a * 0.5 * v * cosb * denv_du)  # log_sigma
        return np.column_stack(cols)

    def profile(self, t0s, sigma_ps):
        """Weighted linear fits counts ~ a + b C + c S, one per delay offset.

        C and S are E(tau - t0) mean_m cos and sin(2 pi d_m (tau - t0)) at
        the design's fixed detunings and the given linewidth.  Returns the
        residual sums of squares and the (a, b, c) rows.
        """
        t0s = np.asarray(t0s, dtype=np.float64)
        costs = np.empty(t0s.size)
        coefs = np.empty((t0s.size, 3))
        y = self.sw * self.c
        rows = max(1, _PROFILE_BLOCK // self.t.size)
        for i in range(0, t0s.size, rows):
            dt = self.t - t0s[i:i + rows, None]
            cos_sum = np.zeros_like(dt)
            sin_sum = np.zeros_like(dt)
            for d in self.d:
                th = 2.0 * math.pi * d * dt
                cos_sum += np.cos(th)
                sin_sum += np.sin(th)
            scale = self.sw / len(self.d)
            if sigma_ps is not None:
                scale = scale * envelope_value(Envelope(sigma_ps), dt)
            basis = np.stack([np.broadcast_to(self.sw, dt.shape),
                              cos_sum * scale, sin_sum * scale], axis=-1)
            basis_t = basis.swapaxes(1, 2)
            beta = np.linalg.pinv(basis_t @ basis) @ (basis_t @ y)[..., None]
            resid = y - (basis @ beta)[..., 0]
            costs[i:i + rows] = np.sum(resid**2, axis=1)
            coefs[i:i + rows] = beta[..., 0]
        return costs, coefs

    def start(self, t0, coef, sigma_ps):
        """Parameter vector of the linear fit (a, b, c) at delay offset t0.

        N = 2a, (1 - alpha) V = hypot(b, c)/a and phi = atan2(c, -b);
        a free alpha starts at max(alpha, 0.01) and a free detuning at the
        given one.
        """
        a, b, c = coef
        alpha = max(self.alpha_fixed, 0.01) if self.fit_alpha else self.alpha_fixed
        theta = [2.0 * a, math.hypot(b, c) / a / (1.0 - alpha),
                 math.atan2(c, -b), t0]
        if self.fit_alpha:
            theta.append(alpha)
        if self.fit_detuning:
            theta.append(self.d[0])
        if self.fit_sigma:
            theta.append(math.log(sigma_ps))
        return np.array(theta, dtype=np.float64)


def _polish(design, x0, max_nfev, what, tol=1e-14):
    """One Levenberg-Marquardt run from x0 at tight tolerance."""
    try:
        res = least_squares(design.residual, x0=x0, jac=design.jacobian,
                            method="lm", xtol=tol, ftol=tol, gtol=tol,
                            max_nfev=max_nfev)
    except ValueError as exc:  # non-finite residuals at the start
        raise FitError(f"{what} has no finite start: {exc}") from exc
    except OverflowError as exc:  # a free log-linewidth ran past exp's range
        raise FitError(f"{what} diverged: {exc}") from exc
    if res.status <= 0:
        raise FitError(f"{what} did not converge in {res.nfev} evaluations "
                       f"(residual ss {2.0 * float(res.cost)!r})")
    return res


def _canonical_fringe(theta):
    """Wrap the solution into V >= 0, phi in (-pi, pi]."""
    theta = np.array(theta, dtype=np.float64)
    if theta[1] < 0:
        theta[1] = -theta[1]
        theta[2] += math.pi
    theta[2] = math.pi - (math.pi - theta[2]) % (2.0 * math.pi)
    return theta


def _covariance(design, theta):
    j = design.jacobian(theta)
    cov = np.linalg.pinv(j.T @ j)
    return 0.5 * (cov + cov.T)


def fit_fringe(
    data: FringeDataset,
    detunings,
    sigma: float | None = None,
    *,
    alpha: float = 0.0,
    fit_alpha: bool = False,
    fit_detuning: bool = False,
    max_iter: int = 200,
) -> FitResult:
    """Fit scale, visibility, phase, and delay offset to a count scan.

    detunings lists the known beat detunings in Hz (one entry per
    multiplexed pair; visibility and phase are shared across pairs).
    sigma is the known envelope angular linewidth in rad/s, or None to fit
    the locally flat model (envelope factor omitted), appropriate for fine
    windows much shorter than the envelope.

    alpha fixes the accidental floor fraction; fit_alpha frees it (flagged:
    alpha and visibility are jointly unidentifiable from one scan).
    fit_detuning (single pair only) frees the beat detuning so the
    oscillation period is itself measured.

    Search: at fixed tau0 (and the given detunings) the model is linear in
    the baseline and the beat's cosine and sine amplitudes, so each tau0
    costs one weighted linear solve.  tau0 is profiled on a grid over
    t0_ref +/- 1/min(d) with step at most 1/(16 max(d)), where t0_ref is
    the delay of the lowest count when sigma is given and 0 otherwise;
    costs within a relative 1e-6 of the lowest tie and go to the smallest
    |tau0|.  One Levenberg-Marquardt polish from that point (at most
    2 max_iter evaluations) frees every parameter and gives the covariance;
    FitError if it does not converge, or, when sigma is given, if tau0 ends
    outside the scanned window.  `iterations` reports its evaluation count.

    Single-pair fits without the envelope determine phi and tau0 only
    jointly (the beat phase at zero delay); their profile is the single
    solve at tau0 = 0, and they are reported in the tau0 = 0 gauge with
    phi the zero-delay beat phase, flagged "phase-gauge", and sigma(tau0)
    set to zero.
    """
    if len(data) < 8:
        raise DomainError("fit_fringe needs at least 8 data points")
    detunings = [float(d) for d in np.atleast_1d(detunings)]
    if not detunings or any(d <= 0 for d in detunings):
        raise DomainError("detunings must be positive")
    if fit_detuning and len(detunings) != 1:
        raise DomainError("fit_detuning requires a single pair")

    order = np.argsort(data.taus)
    taus_ps = data.taus[order] * 1e12
    counts = data.counts[order].astype(np.float64)
    d_ps = [d * _PS for d in detunings]
    sigma_ps = None if sigma is None else float(sigma) * _PS

    design = _FringeDesign(taus_ps, counts, d_ps, sigma_ps, alpha=alpha,
                           fit_alpha=fit_alpha, fit_detuning=fit_detuning)

    flags: list[str] = []
    if np.ptp(counts) == 0:
        # Degenerate data: no fringe information; report V = 0, not an error.
        theta = [2.0 * counts.mean() if counts.mean() > 0 else 1.0, 0.0, 0.0, 0.0]
        if fit_alpha:
            theta.append(alpha)
        if fit_detuning:
            theta.append(d_ps[0])
        theta = np.array(theta)
        cov = _covariance(design, theta)
        return _package_fringe(design, theta, cov, 0.0, True, 0,
                               ("degenerate-data",), sigma)

    # Without the envelope a single-pair model depends on (phi, tau0) only
    # through the beat phase at zero delay, so tau0 = 0 loses nothing.
    gauge = sigma_ps is None and len(d_ps) == 1
    if gauge:
        t0s = np.zeros(1)
    else:
        t0_ref = float(taus_ps[np.argmin(counts)]) if sigma_ps is not None else 0.0
        period_ps = 1.0 / min(d_ps)
        steps = math.ceil(32.0 * max(detunings) / min(detunings))
        t0s = np.linspace(t0_ref - period_ps, t0_ref + period_ps, steps + 1)
    costs, coefs = design.profile(t0s, sigma_ps)
    ties = np.flatnonzero(costs <= costs.min() * (1.0 + _TIE_REL) + 1e-12)
    best = ties[np.argmin(np.abs(t0s[ties]))]
    what = "fringe fit"
    if sigma_ps is not None and np.ptp(taus_ps) * sigma_ps < 0.1:
        what += (" (the window is much shorter than the envelope: V and tau0"
                 " have no finite optimum; fit with sigma=None)")
    winner = _polish(design, design.start(t0s[best], coefs[best], sigma_ps),
                     2 * max_iter, what)

    theta = _canonical_fringe(winner.x)
    if sigma_ps is not None and not taus_ps[0] <= theta[3] <= taus_ps[-1]:
        raise FitError(f"{what}: tau0 = {theta[3]:.6g} ps lies outside the scanned "
                       f"window [{taus_ps[0]:.6g}, {taus_ps[-1]:.6g}] ps")
    # The polish may still park anywhere along the gauge's flat (phi, tau0)
    # direction.  Slide the solution to the tau0 = 0 gauge, pin tau0 there,
    # and propagate the covariance through the reparameterization so
    # sigma(phi) is the uncertainty of the identifiable combination.
    if gauge:
        det_hat = theta[design.names.index("detuning")] if fit_detuning else d_ps[0]
        theta[2] -= 2.0 * math.pi * det_hat * theta[3]
        theta[3] = 0.0
        theta = _canonical_fringe(theta)
    cov = _covariance(design, theta)
    jac = design.jacobian(theta)
    if gauge:
        gmap = np.eye(len(theta))
        gmap[2, 3] = -2.0 * math.pi * det_hat
        cov = gmap @ cov @ gmap.T
        cov[3, :] = 0.0
        cov[:, 3] = 0.0
        flags.append("phase-gauge")
        jac = np.delete(jac, 3, axis=1)
    if fit_alpha:
        flags.append("alpha-degenerate")
    cond = np.linalg.cond(jac.T @ jac)
    if cond > 1e10:
        flags.append("ill-conditioned")
    return _package_fringe(design, theta, cov, 2.0 * winner.cost, True,
                           int(winner.nfev), tuple(flags), sigma)


def _package_fringe(design, theta, cov, residual_ss, converged, iterations,
                    flags, sigma):
    names = tuple(design.names)
    scale_units = {"tau0": _PS, "detuning": 1e12}
    d = np.array([scale_units.get(n, 1.0) for n in names])
    cov_rep = cov * np.outer(d, d)
    values = {}
    sigmas = {}
    for i, name in enumerate(names):
        values[name] = float(theta[i] * d[i])
        sigmas[name] = float(math.sqrt(max(cov_rep[i, i], 0.0)))
    if not design.fit_alpha:
        values["alpha"] = design.alpha_fixed
    if sigma is not None:
        values["sigma"] = float(sigma)
    return FitResult(values, sigmas, cov_rep, names, float(residual_ss),
                     converged, iterations, flags)


class _EnvelopeDeviationDesign:
    """Reduced baseline-plus-envelope model for coarse scans.

    The unresolved oscillation is folded out: |counts - mean| is fitted to
    sqrt(k E^2 + 2 b/pi) with k = ((2/pi) A)^2, the folded-normal mean of
    beat plus Poisson noise around the baseline b.  theta = (A, t0, u),
    u = log(sigma_ps).
    """

    def __init__(self, taus_ps, dev, baseline):
        self.t = taus_ps
        self.dev = dev
        self.floor2 = 2.0 * baseline / math.pi

    def _parts(self, theta):
        env, denv_dt0, denv_du = _envelope_parts(self.t - theta[1], math.exp(theta[2]))
        m = np.sqrt((2.0 / math.pi * theta[0] * env) ** 2 + self.floor2)
        return env, denv_dt0, denv_du, m

    def residual(self, theta):
        return self.dev - self._parts(theta)[-1]

    def jacobian(self, theta):
        env, denv_dt0, denv_du, m = self._parts(theta)
        a = theta[0]
        g = -(2.0 / math.pi) ** 2 * a * env / m
        return np.column_stack([g * env, g * a * denv_dt0, g * a * denv_du])

    def profile(self, t0s, us):
        """Folded-model costs and amplitudes A on the flattened (t0, u) grid.

        At fixed (t0, u), k = sum E^2 q / sum E^4 with q = dev^2 - 2b/pi,
        clipped at 0, fits the squared model k E^2 + 2b/pi in closed form.
        """
        t0g, ug = (g.ravel() for g in np.meshgrid(t0s, us, indexing="ij"))
        q = self.dev**2 - self.floor2
        costs = np.empty(t0g.size)
        amps = np.empty(t0g.size)
        rows = max(1, _PROFILE_BLOCK // self.t.size)
        for i in range(0, t0g.size, rows):
            blk = slice(i, i + rows)
            x = np.abs(self.t - t0g[blk, None]) * np.exp(ug[blk, None])
            e2 = ((1.0 + x) * np.exp(-x)) ** 2
            k = np.maximum(e2 @ q / np.sum(e2**2, axis=1), 0.0)
            m = np.sqrt(k[:, None] * e2 + self.floor2)
            costs[blk] = np.sum((self.dev - m) ** 2, axis=1)
            amps[blk] = 0.5 * math.pi * np.sqrt(k)
        return t0g, ug, costs, amps


def fit_envelope(data: FringeDataset, detunings=None, max_iter: int = 200) -> FitResult:
    """Estimate the coherence envelope linewidth from a coarse delay scan.

    Stage one fits the envelope-averaged model (baseline plus folded
    envelope of the unresolved beat) to |counts - mean|: a profile with the
    amplitude in closed form over 33 delay offsets spanning the scan times
    9 log-spaced linewidths in (1/4 .. 8) 2/span, then one Levenberg-
    Marquardt polish from its best point.  Stage two refines all parameters
    against the full fringe model with the linewidth free: one linear solve
    for scale, visibility and phase at the stage-one (t0, linewidth), then
    one polish.  It needs the beat detunings (argument, else dataset
    metadata `detunings_hz`); without them the stage-one estimate is
    returned, flagged "coarse-only", and `iterations` counts its polish's
    evaluations.  Each polish stops at 2 max_iter evaluations; FitError if
    one does not converge.

    The linewidth is reported as equivalent fwhm in Hz.
    """
    if len(data) < 8:
        raise DomainError("fit_envelope needs at least 8 data points")
    order = np.argsort(data.taus)
    taus_ps = data.taus[order] * 1e12
    counts = data.counts[order].astype(np.float64)
    span_ps = float(taus_ps[-1] - taus_ps[0])
    if span_ps < 1000.0:
        raise DomainError("envelope fit needs a scan spanning at least 1 ns")

    if detunings is None and "detunings_hz" in data.metadata:
        raw = str(data.metadata["detunings_hz"])
        detunings = [float(tok) for tok in raw.split(",") if tok]
    d_ps = None
    if detunings is not None:
        d_ps = [float(d) * _PS for d in np.atleast_1d(detunings)]
        if any(d <= 0 for d in d_ps):
            raise DomainError("detunings must be positive")

    baseline = counts.mean()
    dev = np.abs(counts - baseline)
    flags: list[str] = []

    if np.ptp(counts) == 0:
        nanv = float("nan")
        params = {"fwhm": nanv, "tau0": nanv, "scale": 2.0 * baseline,
                  "visibility": 0.0, "phi": 0.0}
        sig = {k: nanv for k in ("fwhm", "tau0", "scale", "visibility", "phi")}
        return FitResult(params, sig, np.full((5, 5), np.nan),
                         ("scale", "visibility", "phi", "tau0", "fwhm"),
                         0.0, True, 0, ("ill-conditioned", "degenerate-data"))

    coarse = _EnvelopeDeviationDesign(taus_ps, dev, baseline)
    t0g, ug, costs, amps = coarse.profile(
        np.linspace(taus_ps[0], taus_ps[-1], 33),
        np.log(2.0 / span_ps * np.logspace(-2.0, 3.0, 9, base=2.0)))
    i = int(np.argmin(costs))
    res = _polish(coarse, np.array([amps[i], t0g[i], ug[i]]), 2 * max_iter,
                  "coarse envelope fit", tol=1e-10)
    if d_ps is None:
        design, names = coarse, ("amplitude", "tau0", "fwhm")
        theta = np.r_[abs(res.x[0]), res.x[1:]]  # the model depends on A^2 only
        flags.append("coarse-only")
    else:
        design = _FringeDesign(taus_ps, counts, d_ps, None, fit_sigma=True)
        t01, sigma1 = res.x[1], math.exp(res.x[2])
        _, coefs = design.profile([t01], sigma1)
        res = _polish(design, design.start(t01, coefs[0], sigma1), 2 * max_iter,
                      "envelope refinement")
        theta = _canonical_fringe(res.x)
        names = ("scale", "visibility", "phi", "tau0", "fwhm")

    # Curvature in (..., t0, u), mapped onto (tau0 in s, fwhm in Hz).
    sigma_ps = math.exp(theta[-1])
    fwhm = sigma_ps / (2.0 * math.pi) / _PS
    cov = _covariance(design, theta)
    d = np.r_[np.ones(len(names) - 2), _PS, fwhm]
    cov_rep = cov * np.outer(d, d)
    if span_ps * sigma_ps < 1.0 or (d_ps is not None and cov[-1, -1] > 1.0):
        flags.append("ill-conditioned")
    values = dict(zip(names[:-2], map(float, theta[:-2])))
    values.update(tau0=float(theta[-2] * _PS), fwhm=float(fwhm))
    if d_ps is None:  # the reduced model's fixed entries
        vis = float(np.clip(theta[0] / max(baseline, 1.0), 0.0, 1.0))
        values.update(scale=float(2.0 * baseline), visibility=vis, phi=0.0)
    sig = {n: float(math.sqrt(max(cov_rep[i, i], 0.0))) for i, n in enumerate(names)}
    return FitResult(values, sig, cov_rep, names, float(2.0 * res.cost), True,
                     int(res.nfev), tuple(flags))


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


def pool_phases(phis, sigmas) -> tuple[float, float]:
    """Inverse-variance pooling of phase estimates.

    Phases are unwrapped relative to the first entry before averaging, so
    estimates straddling the wrap seam pool correctly.
    """
    phis = np.asarray(phis, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if phis.size == 0 or phis.shape != sigmas.shape:
        raise DomainError("phis and sigmas must be equal-length and non-empty")
    if np.any(sigmas <= 0):
        raise DomainError("sigmas must be positive")
    ref = phis.flat[0]
    adj = ref + (phis - ref + math.pi) % (2.0 * math.pi) - math.pi
    w = 1.0 / sigmas**2
    mean = float(np.sum(w * adj) / np.sum(w))
    mean = math.pi - (math.pi - mean) % (2.0 * math.pi)
    return mean, float(1.0 / math.sqrt(np.sum(w)))
