"""Mechanical impedance, stability and passivity of the coupled mirror.

The suspended mirror driven at velocity v absorbs the applied force
through the impedance Z,

    -i w Z[w] = k - m w^2 - chi[w],

whose real part m tau w^2 Gamma_R is the dissipative coupling to the
vacuum.  In the Laplace domain (p = -i w, Re p > 0)

    Z{p} = k/p + m p - m tau p^2 Gamma{p},

real on the positive real axis, with Gamma{p} = Gamma[i p] the model's own
continuation (a table's is the Cauchy integral of its sampled curve, exact
on the curve's cubic pieces).  A runaway mode is a zero of Z{p} in Re p > 0.
The argument principle counts them on the boundary of the whole half plane
(Nyquist): a walk up the imaginary axis, Z(i y) = -i k/y + i m y + m tau y^2
Gamma[-y], with Gamma as the model reads it on the real axis (a table: its
Gamma curve, and above its top the tail's ``LogTail.axis`` value), where Re Z
= m tau y^2 Gamma_R >= 0 for a passive mirror (Brune); the indentation at p
= 0 and the arc at infinity close it in closed form.  A scan of the real
axis seeds a secant iteration at the chord zero of each sign change; a
counted zero the secant cannot refine raises.  Passivity is read on the
same walk: no zero in Re p > 0 and Re Z(i y) >= 0; its test oracle is
``passivity_check``, a log-polar probe scan of Re Z{p}.  The spectral
representation cross-checks the continuation,

    Z{p} = (2p/pi) int_0^inf Z_R[rho] / (p^2 + rho^2) drho + k/p + p(m - mu),

which a sampled Gamma curve gives as its integral and its own Cauchy
continuation at i p.  Evaluations are pure; the walk and the probe sweeps
vectorize over points."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmittanceSingularityError,
    ContinuationError,
    ContourError,
    CutoffDivergenceError,
    ImpedancePoleError,
    RootConvergenceError,
)
from .dispersion import continue_upper_half
from .numerics import json_num, secant_root, write_json
from .susceptibility import (
    MirrorMechanics,
    ResponseCurve,
    _axis_motional,
    curve_cutoff,
    gamma,
    gamma_samples,
    induced_mass,
    reflection_cutoff,
    susceptibility,
)


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

    Gamma[0], then 350 log points from 1e-3 ``model.omega_scale`` to
    ``omega_max`` (default the model's ``_curve_top``, 1e3 omega_scale or the
    table's top below that), for every model: the exact rules on the curve's
    cubic pieces converge at fourth order, and 350 points carry about 7e-8
    of the continuation, below a fine table's own error.
    """
    if omega_max is None:
        omega_max = model._curve_top
    grid = np.geomspace(1e-3 * model.omega_scale, omega_max, 350)  # ends on omega_max exactly
    vals = np.concatenate([[gamma(model, 0.0)], gamma_samples(model, grid)])
    return ResponseCurve(np.concatenate([[0.0], grid]), vals, label="gamma")


def laplace_impedance(model, mech, p):
    """Z{p} = k/p + m p - m tau p^2 Gamma{p}, analytic in Re p > 0, scalar or
    array; Gamma{p} = Gamma[i p] is the model's continuation."""
    p = np.asarray(p, dtype=complex)
    if np.any(np.real(p) <= 0):
        raise ContinuationError("Laplace evaluation requires Re p > 0")
    out = mech.k / p + mech.m * p - mech.m * mech.tau * p**2 * gamma_samples(model, 1j * p)
    return out if out.ndim else complex(out)


_WALK_POINTS = 256
_REFINE_ROUNDS = 30


def _walk_span(model, mech):
    """The walk's span of y, inside [1e-300, 1e300]: 1e-9 times below the scales
    of Z (1, omega_0, 1/tau, the model's omega_scale), where Z ~ k/p or m p,
    and 1e14 times above them, where Z ~ (m - mu) p outruns the logarithms of
    Gamma down to |mu/m - 1| ~ 1e-6, or Z ~ -m tau p^2 (past 1/tau, Gamma = 1).
    """
    scales = [1.0, model.omega_scale] + ([mech.omega0] if mech.k > 0 else [])
    runaway = [1.0 / mech.tau] if mech.tau > 0 else []
    low = 1e-9 * min(scales + runaway)
    top = 1e14 * max(scales + (runaway if model.gamma_is_one else []))
    return max(low, 1e-300), min(top, 1e300)


def _axis_impedance(model, mech, y):
    """Z(i y) = -i k/y + i m y + m tau y^2 conj Gamma[y] at y > 0."""
    return -1j * mech.k / y + 1j * mech.m * y + _axis_motional(model, mech, y)


def count_rhp_zeros(model, mech):
    """Zeros of Z{p} in Re p > 0 by the argument principle on the imaginary axis."""
    return axis_walk(model, mech)[0]


def axis_walk(model, mech):
    """The zero count of Z{p} in Re p > 0 and the walk's samples (y, Z(i y)).

    The closed contour is the imaginary axis, indented into Re p > 0 around
    p = 0 and closed by the arc at infinity.  The walk samples Z(i y) on
    log-spaced y over ``_walk_span``; conjugate symmetry gives the lower
    half, so its phase change counts twice.  The indentation turns Z by +pi where Z ~ k/p and
    by -pi where Z ~ m p; the arc by 2 pi where Z ~ -m tau p^2 (Gamma = 1,
    tau > 0), else by pi, where Z grows like p.

    Re Z(i y) = m tau y^2 Gamma_R >= 0 for a passive Gamma, so a step
    between two samples with Re Z >= 0 is the plain difference of their
    principal arguments; this also takes a zero on the axis as its +pi
    indentation.  Steps touching a sample with Re Z < 0 are wrapped and
    bisected until they stay below pi/2.  A winding more than 1/4 from an
    integer (mu = m, where Z grows only like log p) raises ContourError.
    """
    y = np.geomspace(*_walk_span(model, mech), _WALK_POINTS)
    z = _axis_impedance(model, mech, y)
    for _ in range(_REFINE_ROUNDS):
        step = np.diff(np.angle(z))
        left = z.real < 0
        wrap = left[:-1] | left[1:]
        step[wrap] = (step[wrap] + np.pi) % (2.0 * np.pi) - np.pi
        idx = np.nonzero(wrap & (np.abs(step) >= 0.5 * np.pi))[0]
        if idx.size == 0:
            break
        mids = np.sqrt(y[idx] * y[idx + 1])
        y = np.insert(y, idx + 1, mids)
        z = np.insert(z, idx + 1, _axis_impedance(model, mech, mids))
    else:
        raise ContourError(f"phase steps above pi/2 left after {_REFINE_ROUNDS} rounds")
    indent = np.pi if mech.k > 0 else -np.pi
    arc = 2.0 * np.pi if model.gamma_is_one and mech.tau > 0 else np.pi
    turns = (indent + arc - 2.0 * step.sum()) / (2.0 * np.pi)
    if not abs(turns - round(turns)) <= 0.25:  # also a nan winding
        raise ContourError(f"winding {turns:.3f} is not close to an integer")
    return int(round(turns)), y, z


def refine_root(model, mech, seed):
    """Polish a zero of Z{p} from a seed in Re p > 0 (secant iteration).

    Returns (root, residual) with |Z{root}| below 1e-10 times the terms that
    cancel there, k/|p| + m|p| + m tau |p|^2 |Gamma{p}|, which set Z's
    rounding floor.  The secant ends where its steps or its updates reach
    that floor; a larger residual there, an iterate out of the half plane or
    no convergence in 100 steps raises RootConvergenceError, and
    ``stability_report`` passes the error on.
    """
    if np.real(seed) <= 0:
        raise ValueError("seed must have Re p > 0")

    def f(p):
        if np.real(p) <= 0:
            raise RootConvergenceError(f"iterate left Re p > 0 at {p}")
        return laplace_impedance(model, mech, complex(p))

    root, resid = secant_root(f, complex(seed))
    r = abs(root)  # at a zero, m tau p^2 Gamma{p} = k/p + m p to within resid
    if resid > 1e-10 * (mech.k / r + mech.m * r + abs(mech.k / root + mech.m * root)):
        raise RootConvergenceError(f"residual {resid:.3e} above tolerance at candidate {root}")
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


def passivity_check(model, mech, probes=None):
    """Scan Re Z{p} over a probe set (default ``default_probes`` in units of
    ``model.omega_scale``); verdict min >= -1e-9 * m|p| pointwise."""
    if probes is None:
        probes = model.omega_scale * default_probes()
    z = np.atleast_1d(laplace_impedance(model, mech, probes))
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
    """Z{p} from the passive spectral representation, at one p (a complex) or
    an array of p, each with Re p > 0.

    Folds the nonnegative measure Z_R[rho] drho = m tau rho^2 Gamma_R drho
    onto the positive axis.  As rho^2/(rho^2 + p^2) = 1 - p^2/(rho^2 + p^2),
    its integral is the ``real_integral`` of the Gamma_R curve
    ``gamma_curve`` less p^2 times its Cauchy integral, one
    ``continue_upper_half`` call at every i p, with k/p + p(m - mu) added;
    ``mu`` defaults to the curve's own, m tau omega_C from ``curve_cutoff``,
    which raises CutoffDivergenceError where the measure is not finite.
    """
    if gamma_curve is None:
        gamma_curve = model.gamma_curve
    omega_c, _ = curve_cutoff(gamma_curve)
    if mu is None:
        mu = induced_mass(mech, omega_c)
    if mu > mech.m:
        raise ValueError("spectral representation requires mu <= m")
    p = np.asarray(p, dtype=complex)
    if np.any(p.real <= 0):
        raise ContinuationError("spectral representation defined for Re p > 0")
    mt = mech.m * mech.tau
    motional = (2.0 * p / np.pi) * gamma_curve.real_integral \
        - p * p * continue_upper_half(gamma_curve, 1j * p)
    out = mt * motional + mech.k / p + p * (mech.m - mu)
    return out if out.ndim else complex(out)


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

    def to_json(self, path=None):
        doc = {
            "model": self.model_kind,
            "tau_omega": float(self.tau_omega),
            "k_over_m": float(self.k_over_m),
            "omega_C": json_num(self.omega_c),
            "mu_over_m": json_num(self.mu_over_m),
            "rhp_zero_count": int(self.rhp_zero_count),
            "roots": [
                {"re": float(r.real), "im": float(r.imag), "residual": float(res)}
                for r, res in self.roots
            ],
            "passive": bool(self.passive),
        }
        return write_json(path, doc)


def _real_axis_seeds(model, mech, p_max, p_min=1e-6, n=400):
    """Real zeros of Z on the positive real axis in [p_min, p_max], ascending:
    an exact zero of the 400-point log scan once, and the zero of the chord
    across each strict sign change between scan points, where the secant of
    ``refine_root`` starts."""
    ps = np.geomspace(p_min, p_max, n)
    z = np.real(laplace_impedance(model, mech, ps))
    sign = np.sign(z)
    i = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    a, b, za, zb = ps[i], ps[i + 1], z[i], z[i + 1]
    return np.sort(np.concatenate([ps[sign == 0], a - za * (b - a) / (zb - za)])).tolist()


def stability_report(model, mech):
    """The zero count, the real roots, the cutoff and the passivity verdict:
    no zero in Re p > 0 and Re Z(i y) >= -1e-9 m y on the walk (Brune)."""
    try:
        omega_c = reflection_cutoff(model)
        mu = induced_mass(mech, omega_c)
    except CutoffDivergenceError:
        omega_c, mu = np.inf, np.inf
    count, y, z = axis_walk(model, mech)
    roots = []
    if count > 0:
        # a real zero sits in [1e-6, 10 x the largest scale of Z] (1, omega_0,
        # 1/tau, omega_C; count > 0 needs tau > 0) unless mu is near m or a
        # scale is tiny; only then is the rest of the walk's span scanned (a
        # set: an exact zero at a shared end is found twice)
        scales = [1.0, mech.omega0, 1.0 / mech.tau, omega_c if np.isfinite(omega_c) else 0.0]
        p_max = 10.0 * max(scales)
        seeds = _real_axis_seeds(model, mech, p_max)
        if len(seeds) < count:
            low, top = _walk_span(model, mech)
            seeds = sorted({*_real_axis_seeds(model, mech, 1e-6, p_min=low), *seeds,
                            *_real_axis_seeds(model, mech, top, p_min=p_max)})
        roots = [refine_root(model, mech, seed) for seed in seeds]
    return StabilityReport(
        model_kind=model.kind,
        tau_omega=mech.tau,
        k_over_m=mech.k / mech.m,
        omega_c=omega_c,
        mu_over_m=mu / mech.m if np.isfinite(mu) else np.inf,
        rhp_zero_count=count,
        roots=tuple(roots),
        passive=count == 0 and bool(np.min(z.real / (mech.m * y)) >= -1e-9),
    )
