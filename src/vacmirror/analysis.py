"""Mechanical impedance, stability and passivity of the coupled mirror.

The suspended mirror driven at velocity v absorbs the applied force
through the impedance Z,

    -i w Z[w] = k - m w^2 - chi[w],

whose real part m tau w^2 Gamma_R is the dissipative coupling to the
vacuum.  In the Laplace domain (p = -i w, Re p > 0)

    Z{p} = k/p + m p - m tau p^2 Gamma{p},

real on the positive real axis.  A runaway mode is a zero of Z{p} in
Re p > 0; the argument principle counts them, a secant iteration refines
them, and passivity (Re Z{p} >= 0) is probed on a log-polar set and
cross-checked against the spectral representation

    Z{p} = (2p/pi) int_0^inf Z_R[rho] / (p^2 + rho^2) drho + k/p + p(m - mu).

Evaluations are pure; contour and probe sweeps vectorize over points.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dispersion import continue_upper_half
from .errors import (
    AdmittanceSingularityError,
    ContinuationError,
    ContourError,
    CutoffDivergenceError,
    ImpedancePoleError,
    RootConvergenceError,
)
from .numerics import fit_inverse_square_tail, secant_root
from .susceptibility import (
    MirrorMechanics,
    ResponseCurve,
    gamma,
    gamma_samples,
    induced_mass,
    reflection_cutoff,
    susceptibility,
)

__all__ = [
    "MirrorMechanics",
    "impedance",
    "admittance",
    "laplace_impedance",
    "sample_gamma_real",
    "count_rhp_zeros",
    "refine_root",
    "passivity_check",
    "spectral_impedance",
    "Rectangle",
    "default_contour",
    "StabilityReport",
    "stability_report",
]


def impedance(model, mech, w):
    """Mechanical impedance Z[w] = (k - m w^2 - chi[w]) / (-i w), real w, scalar or array."""
    return _impedance(mech, w, susceptibility(model, mech, w))


def _impedance(mech, w, chi):
    """Z[w] from chi sampled at w: 0 at w = 0 for a free mass, a pole there with a spring."""
    w = np.asarray(w, dtype=float)
    if mech.k > 0 and np.any(w == 0.0):
        raise ImpedancePoleError("Z has a k/w pole at w = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(w == 0.0, 0.0, (mech.k - mech.m * w**2 - chi) / (-1j * w))
    return z if z.ndim else complex(z)


def admittance(model, mech, w):
    """Mechanical admittance Y = 1/Z, refused where |Z| <= 1e-10 m |w|."""
    z = impedance(model, mech, w)
    floor = 1e-10 * mech.m * max(abs(w), 1e-30)
    if abs(z) <= floor:
        raise AdmittanceSingularityError(
            f"|Z| = {abs(z):.3e} below {floor:.3e} at w = {w}", omega=w, z_value=z
        )
    return 1.0 / z


def sample_gamma_real(model, omega_max=None):
    """Dense Gamma curve for continuation and spectral integrals.

    Gamma[0], then 1400 log points from 1e-3 to ``omega_max`` (default min(1e3, model top)).
    """
    if omega_max is None:
        omega_max = min(1.0e3, model.omega_range[1])
    grid = np.geomspace(1e-3, omega_max, 1400)  # ends on omega_max exactly
    vals = np.concatenate([[gamma(model, 0.0)], gamma_samples(model, grid)])
    return ResponseCurve(np.concatenate([[0.0], grid]), vals, label="gamma")


def _laplace_gamma(model, p, gamma_curve=None):
    """Gamma{p} = Gamma[i p], Re p > 0: the model's continuation, or its continued curve."""
    p = np.asarray(p, dtype=complex)
    if np.any(np.real(p) <= 0):
        raise ContinuationError("Laplace evaluation requires Re p > 0")
    if model.continues_upper_half:
        out = gamma_samples(model, 1j * p)
        return out if out.ndim else complex(out)
    if gamma_curve is None:
        raise ContinuationError(
            "a model without a continuation needs a sampled Gamma curve for Laplace evaluation"
        )
    grid, vals = gamma_curve.grid, np.real(gamma_curve.values)
    tail = fit_inverse_square_tail(grid, vals)
    flat = np.atleast_1d(p)
    out = np.array(
        [continue_upper_half(gamma_curve, 1j * pp, tail_coeff=tail) for pp in flat]
    )
    return out.reshape(p.shape) if p.ndim else complex(out[0])


def laplace_impedance(model, mech, p, gamma_curve=None):
    """Z{p} = k/p + m p - m tau p^2 Gamma{p}, analytic in Re p > 0."""
    p = np.asarray(p, dtype=complex)
    g = _laplace_gamma(model, p, gamma_curve)
    out = mech.k / p + mech.m * p - mech.m * mech.tau * p**2 * g
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class Rectangle:
    """Contour bounds in Re p > 0: [re_min, re_max] x [-im_max, im_max]."""

    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self):
        if not (0 < self.re_min < self.re_max) or self.im_max <= 0:
            raise ValueError("contour must sit strictly inside Re p > 0")


def default_contour(mech, omega_c=None):
    """Rectangle wide enough for the runaway pole and the cutoff scale."""
    extent = 10.0
    if mech.tau > 0:
        extent = max(extent, 10.0 / mech.tau)
    if omega_c is not None and np.isfinite(omega_c):
        extent = max(extent, 10.0 * omega_c)
    if mech.k > 0:
        extent = max(extent, 10.0 * mech.omega0)
    return Rectangle(re_min=1e-6, re_max=extent, im_max=extent)


def _signed_log_points(extent, floor, n):
    mags = np.geomspace(floor, extent, n)
    return np.concatenate([-mags[::-1], [0.0], mags])


def _contour_path(rect, n_edge):
    lo, hi, p_im = rect.re_min, rect.re_max, rect.im_max
    res = np.geomspace(lo, hi, n_edge)
    ims = _signed_log_points(p_im, min(lo, p_im * 1e-9), n_edge // 2)
    bottom = res + 1j * (-p_im)
    right = hi + 1j * ims
    top = res[::-1] + 1j * p_im
    left = lo + 1j * ims[::-1]
    path = np.concatenate([bottom, right[1:], top[1:], left[1:]])
    if path[0] != path[-1]:
        path = np.concatenate([path, [path[0]]])
    return path


def _wrap_phase(d):
    return (d + np.pi) % (2.0 * np.pi) - np.pi


def count_rhp_zeros(model, mech, contour=None, gamma_curve=None, n_edge=128):
    """Zeros of Z{p} inside a rectangle in Re p > 0 (argument principle).

    The contour is sampled adaptively, in at most 40 bisection rounds,
    until consecutive phase steps stay below pi/2; a minimum-modulus check
    (|Z| below 1e-9 of m|p| + k/|p|) guards against zeros sitting on the
    contour, raising ContourError with a suggestion to perturb it.
    """
    if contour is None:
        contour = default_contour(mech)

    def zf(pts):
        return np.atleast_1d(laplace_impedance(model, mech, pts, gamma_curve))

    pts = _contour_path(contour, n_edge)
    vals = zf(pts)
    for _ in range(40):
        dph = _wrap_phase(np.diff(np.angle(vals)))
        bad = np.abs(dph) >= 0.5 * np.pi
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (pts[idx] + pts[idx + 1])
        pts = np.insert(pts, idx + 1, mids)
        vals = np.insert(vals, idx + 1, zf(mids))
    else:
        raise ContourError("could not resolve phase steps below pi/2")

    scale = mech.m * np.abs(pts) + mech.k / np.maximum(np.abs(pts), 1e-300)
    if np.min(np.abs(vals) / scale) < 1e-9:
        raise ContourError(
            "impedance modulus nearly vanishes on the contour; "
            "a zero may sit on it -- perturb the rectangle"
        )
    dph = _wrap_phase(np.diff(np.angle(vals)))
    turns = dph.sum() / (2.0 * np.pi)
    count = int(round(turns))
    if abs(turns - count) > 0.25:
        raise ContourError(f"winding {turns:.3f} is not close to an integer")
    return count


def refine_root(model, mech, seed, gamma_curve=None):
    """Polish a zero of Z{p} from a seed in Re p > 0 (secant iteration).

    Returns (root, residual) with |Z{root}| below 1e-10 * m * |root|.
    Divergence out of the half plane or stagnation raises
    RootConvergenceError.
    """
    if np.real(seed) <= 0:
        raise ValueError("seed must have Re p > 0")

    def f(p):
        if np.real(p) <= 0:
            raise RootConvergenceError(f"iterate left Re p > 0 at {p}")
        return laplace_impedance(model, mech, complex(p), gamma_curve)

    root, resid = secant_root(f, complex(seed))
    if resid > 1e-10 * mech.m * max(abs(root), 1e-30):
        raise RootConvergenceError(
            f"residual {resid:.3e} above tolerance at candidate {root}"
        )
    return root, resid


def default_probes(p_min=1e-3, p_max=1e3, n_mag=40):
    """Log-polar probe set in Re p > 0: n_mag magnitudes x 25 openings of the half plane."""
    mags = np.geomspace(p_min, p_max, n_mag)
    args = np.linspace(-0.999 * np.pi / 2, 0.999 * np.pi / 2, 25)
    return (mags[:, None] * np.exp(1j * args[None, :])).ravel()


@dataclass(frozen=True)
class PassivityScan:
    passive: bool
    min_re: float
    min_re_scaled: float
    at_p: complex
    n_probes: int


def passivity_check(model, mech, probes=None, gamma_curve=None):
    """Scan Re Z{p} over a probe set; verdict min >= -1e-9 * m|p| pointwise."""
    if probes is None:
        probes = default_probes()
    z = np.atleast_1d(laplace_impedance(model, mech, probes, gamma_curve))
    scale = mech.m * np.abs(probes)
    scaled = z.real / scale
    i = int(np.argmin(scaled))
    return PassivityScan(
        passive=bool(np.all(scaled >= -1e-9)),
        min_re=float(z.real[i]),
        min_re_scaled=float(scaled[i]),
        at_p=complex(probes[i]),
        n_probes=int(len(probes)),
    )


def spectral_impedance(model, mech, p, gamma_curve=None, mu=None):
    """Z{p} from the passive spectral representation.

    Folds the nonnegative measure Z_R[rho] drho / (pi (1 + rho^2)) onto
    the positive axis, integrates a dense Gamma_R spline decade by decade,
    and closes with the fitted inverse-square tail and the k/p + p(m - mu)
    terms.  Models without a finite induced mass raise
    CutoffDivergenceError.
    """
    from .numerics import QuadratureSettings, fit_power_law_slope, integrate_decades

    if gamma_curve is None:
        gamma_curve = sample_gamma_real(model)
    grid, gvals = gamma_curve.grid, np.real(gamma_curve.values)
    top = grid >= grid[-1] / 10.0
    slope = fit_power_law_slope(grid[top], np.clip(gvals[top], 1e-300, None))
    if slope > -1.2:
        raise CutoffDivergenceError("spectral measure is not finite (no reflection cutoff)")
    if mu is None:
        mu = induced_mass(mech, reflection_cutoff(model, omega_max=grid[-1]))
    if mu > mech.m:
        raise ValueError("spectral representation requires mu <= m")

    from scipy.interpolate import CubicSpline

    spl = CubicSpline(grid, gvals)
    mt = mech.m * mech.tau
    p = complex(p)
    if p.real <= 0:
        raise ContinuationError("spectral representation defined for Re p > 0")

    def integrand(rho):
        return mt * rho**2 * spl(rho) / (p * p + rho * rho)

    settings = QuadratureSettings(abs_tol=1e-9 * max(1.0, abs(mu)), max_panels=8000)
    total = integrate_decades(integrand, grid[-1], settings)
    c_tail = fit_inverse_square_tail(grid, gvals)
    L = grid[-1]
    total += mt * c_tail * (np.pi / 2.0 - np.arctan(L / p)) / p
    return (2.0 * p / np.pi) * total + mech.k / p + p * (mech.m - mu)


@dataclass(frozen=True)
class StabilityReport:
    model_kind: str
    tau_omega: float
    k_over_m: float
    omega_c: float
    mu_over_m: float
    rhp_zero_count: int
    roots: tuple
    passive: bool
    min_re_z: dict

    def to_json(self, path=None):
        def _num(x):
            return None if x is None or not np.isfinite(x) else float(x)

        doc = {
            "model": self.model_kind,
            "tau_omega": float(self.tau_omega),
            "k_over_m": float(self.k_over_m),
            "omega_C": _num(self.omega_c),
            "mu_over_m": _num(self.mu_over_m),
            "rhp_zero_count": int(self.rhp_zero_count),
            "roots": [
                {"re": float(r.real), "im": float(r.imag), "residual": float(res)}
                for r, res in self.roots
            ],
            "passive": bool(self.passive),
            "min_ReZ": self.min_re_z,
        }
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _real_axis_seeds(model, mech, p_max, gamma_curve=None, n=400):
    """Real zeros of Z on the positive real axis, ascending: an exact zero of the
    scan once, and each strict sign change between scan points bisected."""
    ps = np.geomspace(1e-6, p_max, n)
    z = np.real(np.atleast_1d(laplace_impedance(model, mech, ps, gamma_curve)))
    sign = np.sign(z)
    seeds = [float(p) for p in ps[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        a, b = ps[i], ps[i + 1]
        fa = z[i]
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(np.real(laplace_impedance(model, mech, m, gamma_curve)))
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        seeds.append(0.5 * (a + b))
    return sorted(seeds)


def stability_report(model, mech, contour=None, gamma_curve=None, probes=None):
    """Full stability/passivity summary; a model without a continuation is
    continued from its ``sample_gamma_real`` curve unless one is given."""
    if gamma_curve is None and not model.continues_upper_half:
        gamma_curve = sample_gamma_real(model)
    try:
        omega_c = reflection_cutoff(model)
        mu = induced_mass(mech, omega_c)
    except CutoffDivergenceError:
        omega_c, mu = np.inf, np.inf
    if contour is None:
        contour = default_contour(mech, omega_c if np.isfinite(omega_c) else None)
    count = count_rhp_zeros(model, mech, contour, gamma_curve)
    roots = []
    if count > 0:
        for seed in _real_axis_seeds(model, mech, contour.re_max, gamma_curve):
            try:
                roots.append(refine_root(model, mech, seed, gamma_curve))
            except RootConvergenceError:
                pass
    scan = passivity_check(model, mech, probes, gamma_curve)
    passive = scan.passive and count == 0
    return StabilityReport(
        model_kind=model.kind,
        tau_omega=mech.tau,
        k_over_m=mech.k / mech.m,
        omega_c=omega_c,
        mu_over_m=mu / mech.m if np.isfinite(mu) else np.inf,
        rhp_zero_count=count,
        roots=tuple(roots),
        passive=passive,
        min_re_z={
            "value": scan.min_re,
            "p_re": scan.at_p.real,
            "p_im": scan.at_p.imag,
        },
    )
