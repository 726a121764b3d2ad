"""Generators for the explicit concentrating objects and their closed forms.

The concentration family is, in radius,

    f_alpha(x) = sqrt(alpha/8 pi^2) + (1 - |x|^2 e^{2 alpha})/sqrt(32 pi^2 alpha)   |x| <= e^{-alpha}
               = -log|x| / sqrt(8 pi^2 alpha)                                       e^{-alpha} < |x| <= 1
               = eta_alpha(x)                                                        |x| > 1

with eta_alpha smooth, supported in 1 <= |x| <= 2, eta(1) = 0 and slope
eta'(1) = -1/sqrt(8 pi^2 alpha) so f_alpha is C^1 across |x| = 1.  The
exterior ramp uses the 4D-harmonic profile (1 - r^{-2})/2 (so Lap eta == 0
there) times an all-derivatives-flat cutoff acting only on r in [1.3, 2];
that keeps the Laplacian mass of the cutoff where concentration pairings
are insensitive to it.

Bubbles are profiles stretched by a scale:  pure  h(x) = sqrt(a/8pi^2) psi(-log|x|/a),
mollified  g(x) = sqrt(a/8pi^2) (psi * rho_a)(-log|x|/a)  with rho_a(s) = a rho(a s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .gridfn import (LogGrid, LogRadialFunction, _gauss_legendre, _graded_rule, _integrate,
                     bubble_grid, compose_segments, integrate_samples)

PI2 = np.pi ** 2
ORLICZ_LIMIT_CONST = 1.0 / np.sqrt(32.0 * PI2)  # 1/sqrt(32 pi^2) = 0.0562697...

# start of the exterior cutoff in t = r - 1; the ramp is harmonic on [0, c]
ETA_CUT_START = 0.3

# Frozen oracle constants: ||eta_a||^2 = ETA_L2_COEF/a and likewise for the
# gradient and Laplacian pieces (alpha-independent by the 1/sqrt(alpha)
# scaling).  Values from high-accuracy quadrature of the closed forms; the
# test suite recomputes them.
ETA_L2_COEF = 0.018615441677047442
ETA_GRAD_COEF = 0.270103460905641
ETA_LAP_COEF = 11.463862005746876


# --------------------------------------------------------------------------
# all-derivatives-flat step and the eta ramp, each with its analytic jet
# --------------------------------------------------------------------------

def _step_down(u):
    """C-infinity decreasing step S, 1 at u<=0, 0 at u>=1, flat at both ends;
    stacked (S, S', S'')."""
    u = np.asarray(u, dtype=float)
    out = np.zeros((3,) + u.shape)
    out[0] = 1.0
    out[0, u >= 1.0] = 0.0
    m = (u > 0.0) & (u < 1.0)
    um = u[m]
    bm = np.exp(-1.0 / (1.0 - um))
    bp = np.exp(-1.0 / um)
    d = bp + bm
    dprime = bp / um ** 2 - bm / (1.0 - um) ** 2
    q = um ** -2 + (1.0 - um) ** -2
    p = um ** -2 - (1.0 - um) ** -2
    qprime = -2.0 * um ** -3 + 2.0 * (1.0 - um) ** -3
    out[:, m] = (bm / d, -bm * bp * q / d ** 2,
                 -bm * bp * (p * q + qprime) / d ** 2 + 2.0 * bm * bp * q * dprime / d ** 3)
    return out


def _eta_ramp(t):
    """w(t) = 0.5 (1 - (1+t)^{-2}) * step((t-c)/(1-c)), c = ETA_CUT_START;
    stacked (w, w', w'') on 0 <= t < 1, 0 elsewhere: w(0)=0, w'(0)=1, w''(0)=-3."""
    t, c = np.asarray(t, dtype=float), ETA_CUT_START
    base = 0.5 * (1.0 - (1.0 + t) ** -2)
    s0, s1, s2 = _step_down((t - c) / (1.0 - c))
    jet = (base * s0,
           (1.0 + t) ** -3 * s0 + base * s1 / (1.0 - c),
           -3.0 * (1.0 + t) ** -4 * s0 + 2.0 * (1.0 + t) ** -3 * s1 / (1.0 - c)
           + base * s2 / (1.0 - c) ** 2)
    return np.where((t >= 0) & (t < 1), jet, 0.0)


def eta_jet(alpha: float):
    """r -> (eta, eta', eta'', Lap eta) stacked, on [1, infinity)."""
    if not 2 <= alpha < np.inf:
        raise ValueError("eta needs finite alpha >= 2")
    amp = -1.0 / np.sqrt(8.0 * PI2 * alpha)

    def jet(r):
        r = np.asarray(r, dtype=float)
        eta, deta, d2eta = amp * _eta_ramp(r - 1.0)
        return np.stack((eta, deta, d2eta, d2eta + 3.0 * deta / r))

    return jet


def eta_norm_coefficients() -> dict[str, float]:
    """Recompute the eta coefficient oracles by the graded Gauss-Legendre rule."""
    t, w = _graded_rule((0.0, ETA_CUT_START, 0.5, 0.9, 0.99, 1.0), 0.02)
    (w0, w1, w2), r3 = _eta_ramp(t), 0.25 * (1 + t) ** 3
    terms = _integrate(w, w0 ** 2 * r3, w1 ** 2 * r3, (w2 + 3 * w1 / (1 + t)) ** 2 * r3)
    return {kind: v for kind, (v, _) in zip(("l2", "grad", "lap"), terms)}


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------

@dataclass
class Profile:
    """One-variable profile psi with psi == 0 on (-inf, 0].

    Sampled on s >= 0 nodes (at least 4, the cubic spline's floor), held as
    a LogRadialFunction on their LogGrid; ``fn``/``dfn`` hold the analytic
    value and derivative when the profile has a closed form (evaluation then
    bypasses the spline).  Beyond the sampled span the profile extends by its
    last value: bubble tails are killed by the e^{-4 alpha s} weight anyway.
    """

    s: np.ndarray
    values: np.ndarray
    tag: str = "custom"
    fn: Callable | None = field(default=None, repr=False, compare=False)
    dfn: Callable | None = field(default=None, repr=False, compare=False)
    _f: LogRadialFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._f = LogRadialFunction(LogGrid(self.s), self.values, name=self.tag)
        if self._f.grid.size < 4:
            raise ValueError("profile needs at least 4 nodes (cubic spline)")
        if self._f.grid.s_min < 0:
            raise ValueError("profile samples live on s >= 0")
        self.s, self.values = self._f.grid.nodes, self._f.values

    @property
    def span(self) -> float:
        return self._f.grid.s_max

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(knots, coef), read-only: piece q >= 1 is sum_k coef[k, q] (x - knots[q])^k
        on (knots[q], knots[q+1]]: the spline's cubics (the first re-expanded about
        0, down to which it extends), then values[-1] past the span; piece 0 is 0."""
        s, n = self.s, self.s.size
        coef = np.zeros((4, n + 1))
        coef[:, 1:n] = self._f.spline().c[::-1]
        d, (c0, c1, c2, c3) = -s[0], coef[:, 1]
        coef[:, 1] = (((c3 * d + c2) * d + c1) * d + c0, (3.0 * c3 * d + 2.0 * c2) * d + c1,
                      3.0 * c3 * d + c2, c3)
        coef[0, n] = self.values[-1]
        knots = np.concatenate(([0.0, 0.0], s[1:]))
        knots.flags.writeable = coef.flags.writeable = False
        return knots, coef

    def eval(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape if y.ndim else (1,))
        yy = np.atleast_1d(y)
        pos = yy > 0
        if self.fn is not None:
            out[pos] = self.fn(yy[pos])
        else:
            inside = pos & (yy <= self.span)
            out[inside] = self._f.spline()(yy[inside])
            out[pos & (yy > self.span)] = self.values[-1]
        return out if y.ndim else float(out[0])

    @property
    def deriv_l2(self) -> float:
        """||psi'||_{L^2} over the sampled span (analytic when dfn given)."""
        if self.dfn is not None:   # on its own cells, so a kink at a node is exact
            t, w = _gauss_legendre(self.s)
            return float(np.sqrt(w @ self.dfn(t) ** 2))
        d = self._f.derivative(1).values
        return float(np.sqrt(max(integrate_samples(self.s, d * d), 0.0)))

    @property
    def l2_exp_norm(self) -> float:
        """||psi||_{L^2(e^{-4s} ds)} over the sampled span."""
        g = np.exp(-4.0 * self.s) * self.values ** 2
        return float(np.sqrt(max(integrate_samples(self.s, g), 0.0)))

    def holder_max_ratio(self, rng: np.random.Generator) -> float:
        """max over 1000 random pairs of |psi(a)-psi(b)| / (deriv_l2 sqrt|a-b|)."""
        dl2 = self.deriv_l2
        if dl2 == 0:
            return 0.0
        a = rng.uniform(0.0, self.span, 1000)
        b = rng.uniform(0.0, self.span, 1000)
        keep = np.abs(a - b) > 1e-12
        a, b = a[keep], b[keep]
        num = np.abs(self.eval(a) - self.eval(b))
        return float(np.max(num / (dl2 * np.sqrt(np.abs(a - b)))))


def _profile_grid() -> np.ndarray:
    # about 2049 nodes on [0, 10], corner-friendly: exact nodes at 1 and 2
    knots = (0.0, 1.0, 2.0, 10.0)
    segs = [(a, b, int(2049 * (b - a) / 10.0)) for a, b in zip(knots, knots[1:])]
    return compose_segments(segs).nodes


def profile_L() -> Profile:
    """The canonical profile: L(t) = t on [0,1), 1 on [1, inf), 0 below 0."""
    def fn(y):
        return np.clip(np.asarray(y, dtype=float), 0.0, 1.0)

    def dfn(y):
        y = np.asarray(y, dtype=float)
        return ((y > 0) & (y < 1)).astype(float)

    s = _profile_grid()
    return Profile(s, fn(s), tag="L", fn=fn, dfn=dfn)


def profile_tent() -> Profile:
    """Compactly supported tent: up on [0,1], down on [1,2], 0 beyond."""
    def fn(y):
        y = np.asarray(y, dtype=float)
        return np.clip(np.minimum(y, 2.0 - y), 0.0, 1.0)

    def dfn(y):
        y = np.asarray(y, dtype=float)
        return np.where((y > 0) & (y < 1), 1.0, np.where((y > 1) & (y < 2), -1.0, 0.0))

    s = _profile_grid()
    return Profile(s, fn(s), tag="tent", fn=fn, dfn=dfn)


def profile_cusp() -> Profile:
    """psi(t) = min(t^{3/2}, 1): superlinear toe, plateau from t = 1.

    Same Orlicz limit as L (max psi/sqrt(t) = 1 at t = 1) but its bubble
    traces vanish fast at shallow depths, which keeps multi-scale sums close
    to their largest member at desk scale.
    """
    def fn(y):
        y = np.asarray(y, dtype=float)
        return np.minimum(np.clip(y, 0.0, None) ** 1.5, 1.0)

    def dfn(y):
        y = np.asarray(y, dtype=float)
        return np.where((y > 0) & (y < 1), 1.5 * np.sqrt(np.clip(y, 0.0, None)), 0.0)

    s = _profile_grid()
    return Profile(s, fn(s), tag="cusp", fn=fn, dfn=dfn)


def profile_orlicz_limit(psi: Profile) -> float:
    """(1/sqrt(32 pi^2)) max_{s>0} |psi(s)|/sqrt(s), golden-refined.

    This is the limiting Orlicz norm of the scale-alpha bubbles built on psi.
    """
    s = psi.s
    pos = s > 0
    ratios = np.abs(psi.eval(s[pos])) / np.sqrt(s[pos])
    k = int(np.argmax(ratios))
    idx = np.nonzero(pos)[0][k]
    lo = s[max(idx - 1, 0)] if s[max(idx - 1, 0)] > 0 else s[idx] / 2
    hi = s[min(idx + 1, s.size - 1)]
    neg = lambda t: -abs(psi.eval(t)) / np.sqrt(t)
    xm = _golden_min(neg, lo, hi)
    best = max(float(ratios[k]), -neg(xm))
    return ORLICZ_LIMIT_CONST * best


def _golden_min(fun, lo: float, hi: float) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


# --------------------------------------------------------------------------
# mollifiers and bubbles
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(96)
_PAIR_BLOCK = 4096     # (row, piece) pairs per block in mollified_profile_values


@dataclass(frozen=True)
class MollifierSpec:
    """The bump exp(-1/(1 - u^2)), u = (t - center)/half_width, at unit mass.

    ``support`` is the bump's carrier and must sit inside [-1, 1];
    quadrature nodes for the normalization and for convolutions are placed
    on it, so narrow or shifted bumps lose no accuracy.
    """

    center: float
    half_width: float
    name: str = "bump"

    def __post_init__(self):
        lo, hi = self.support
        if not -1.0 <= lo < hi <= 1.0:
            raise ValueError("mollifier support must sit inside [-1, 1]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def raw(self, t) -> np.ndarray:
        """The bump before normalization."""
        t = np.asarray(t, dtype=float)
        u = (t - self.center) / self.half_width
        out = np.zeros_like(t)
        m = np.abs(u) < 1
        out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return out

    @cached_property
    def mass_constant(self) -> float:
        """The raw bump's mass by conv_rule's own 96-point sum: its weights sum to 1."""
        lo, hi = self.support
        half = 0.5 * (hi - lo)
        return float(half * _GL_WEIGHTS @ self.raw(0.5 * (lo + hi) + half * _GL_NODES))

    def values(self, t) -> np.ndarray:
        return self.raw(t) / self.mass_constant

    @cached_property
    def conv_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The convolution rule: Gauss-Legendre nodes t (ascending) mapped onto
        the support, weights w with rho folded in, and the 4 x 97 x 97 anchored
        moments S[k, a, b] = sum_{a<=i<b} w_i (t_i - t_a)^k (k <= 3; zero unless
        a < b).  Read-only, since every caller shares them."""
        lo, hi = self.support
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * _GL_NODES
        w = half * _GL_WEIGHTS * self.values(t)
        terms = np.triu(w * (t - t[:, None]) ** np.arange(4)[:, None, None])  # [k, a, i]
        moments = np.zeros((4, t.size + 1, t.size + 1))
        moments[:, :-1, 1:] = np.cumsum(terms, axis=2)
        for a in (t, w, moments):
            a.flags.writeable = False
        return t, w, moments


def default_mollifier() -> MollifierSpec:
    return MollifierSpec(0.0, 1.0, name="standard-bump")


def alternative_mollifier() -> MollifierSpec:
    """A shifted bump (support [-0.7, 0.5]) for the mollifier-independence
    checks."""
    return MollifierSpec(-0.1, 0.6, name="shifted-bump")


def narrow_mollifier() -> MollifierSpec:
    """Bump supported in [-0.3, 0.3].

    Mollified bubbles spill onto |x| > 1 over a layer of 0.3/alpha in the
    profile variable; a narrow bump shrinks that layer, which matters when a
    remainder's Orlicz mass is dominated by the spill-over (the e^{-4s}
    weight is largest there).
    """
    return MollifierSpec(0.0, 0.3, name="narrow-bump-0.3")


def mollified_profile_values(psi: Profile, alpha: float, rho: MollifierSpec, y):
    """(psi * rho_alpha)(y) = int psi(y - t/alpha) rho(t) dt by Gauss-Legendre.

    A profile with a closed form sums the 96-point rule (t_i, w_i) directly.
    A sampled profile is piecewise cubic in x = y - t/alpha (``Profile.pieces``).
    The nodes a <= i < b of a row that land on one piece p are summed exactly
    from the anchored moments S of ``MollifierSpec.conv_rule``, by a Taylor
    sum about the first of them, x_a = y - t_a/alpha:

        sum_i w_i p(x_a - (t_i - t_a)/alpha) = sum_k p^(k)(x_a)/k! (-1/alpha)^k S[k, a, b].

    x_a and every x_a - (t_i - t_a)/alpha lie on p, so no term outgrows p on
    its own piece at any window width: no row needs a width guard or the rule
    itself.  A row whose window lies on one piece is a cubic in y.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    t, w, moments = rho.conv_rule
    ta, nt = t / alpha, t.size
    if psi.fn is not None:
        return psi.eval(y[:, None] - ta[None, :]) @ w

    order = np.argsort(y, kind="stable") if np.any(y[1:] < y[:-1]) else slice(None)
    y = y[order]
    knots, coef = psi.pieces
    # in e = alpha (knots[q] - x), the Taylor sums need no powers of -1/alpha
    coef = coef * ((-1.0 / alpha) ** np.arange(4))[:, None]
    # rows in order: zero (window at or below 0), live [z, e), tail (past the span)
    x_lo, x_hi = y - ta[-1], y - ta[0]
    z, e = np.searchsorted(x_hi, 0.0, "right"), np.searchsorted(x_lo, psi.span, "right")
    out = np.full_like(y, psi.values[-1] * moments[0, 0, nt])
    out[:z] = 0.0
    yl, live = y[z:e], out[z:e]
    ql, qh = _pieces(knots[1:], x_lo[z:e]), _pieces(knots[1:], x_hi[z:e])

    one = ql == qh
    q = ql[one]
    m0, m1, m2, m3 = moments[:, 0, nt]
    taylor = [[m0, m1, m2, m3], [0.0, m0, 2.0 * m1, 3.0 * m2], [0.0, 0.0, m0, 3.0 * m1],
              [0.0, 0.0, 0.0, m0]]
    k0, k1, k2, k3 = np.take(np.einsum("jk,kq->jq", taylor, coef), q, axis=1)
    ev = t[0] + alpha * (knots[q] - yl[one])
    live[one] = ((k3 * ev + k2) * ev + k1) * ev + k0

    # the other rows: one (row, piece) pair per piece, rows in order and
    # pieces descending, so a pair's nodes [a, b) start where the last one's
    # end; in blocks of about _PAIR_BLOCK pairs, to keep temporaries small
    many = np.nonzero(~one)[0]
    cnt = qh[many] - ql[many] + 1
    cuts = np.searchsorted(np.cumsum(cnt), np.arange(_PAIR_BLOCK, cnt.sum(), _PAIR_BLOCK))
    for rows, c in zip(np.split(many, cuts), np.split(cnt, cuts)):
        if not rows.size:   # a row with more pieces than a block
            continue
        ends = np.cumsum(c)
        first = ends - c
        q = np.repeat(qh[rows] + first, c) - np.arange(ends[-1])
        key = np.repeat(yl[rows], c) - knots[q]
        # nodes with y - ta_i above the piece's lower knot: exact at the knot
        # 0, where psi may jump (fl(y - ta_i) > 0 iff y > ta_i); elsewhere the
        # pieces agree there to rounding.  A row's last piece takes the rest.
        b = np.searchsorted(ta, key)
        b[ends - 1] = nt
        a = np.concatenate(([0], b[:-1]))
        a[first] = 0
        ev = np.take(t, a, mode="clip") - alpha * key
        p0, p1, p2, p3 = np.take(coef, q, axis=1)
        s0, s1, s2, s3 = np.take(moments.reshape(4, -1), a * (nt + 1) + b, axis=1)
        # E_k = sum_i w_i (ev + t_i - t_a)^k over the pair's nodes
        e1 = ev * s0 + s1
        e2 = ev * (e1 + s1) + s2
        e3 = ev * (e2 + ev * s1 + 2.0 * s2) + s3
        live[rows] = np.add.reduceat(p0 * s0 + p1 * e1 + p2 * e2 + p3 * e3, first)
    out[order] = out.copy()
    return out


def _pieces(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """searchsorted(knots, x) for ascending x; if x is longer, by a merge:
    O(knots log x + x), under half searchsorted's time on 18,753 x, 1,537 knots."""
    if x.size <= knots.size:
        return np.searchsorted(knots, x)
    hits = np.searchsorted(x, knots, "right")
    return np.cumsum(np.bincount(hits, minlength=x.size + 1))[:-1]


@dataclass
class BubbleSpec:
    """Scale + profile + mollifier defining one concentrating bubble;
    ``mollifier=None`` makes it the pure bubble h."""

    alpha: float
    profile: Profile
    mollifier: MollifierSpec | None = field(default_factory=default_mollifier)

    def __post_init__(self):
        if not 1 <= self.alpha < np.inf:
            raise ValueError("bubble scale alpha must be finite and >= 1")


def bubble_values(s_points, spec: BubbleSpec) -> np.ndarray:
    """v(s) = sqrt(alpha/8 pi^2) Psi(s/alpha) with Psi = psi * rho_alpha or psi."""
    s = np.atleast_1d(np.asarray(s_points, dtype=float))
    y = s / spec.alpha
    if spec.mollifier is not None:
        prof = mollified_profile_values(spec.profile, spec.alpha, spec.mollifier, y)
    else:
        prof = spec.profile.eval(y)
    return np.sqrt(spec.alpha / (8.0 * PI2)) * np.asarray(prof, dtype=float)


def make_bubble(spec: BubbleSpec, grid: LogGrid | None = None) -> LogRadialFunction:
    if grid is None:
        grid = bubble_grid(spec.alpha)
    gen = lambda s: bubble_values(s, spec)
    kind = "h" if spec.mollifier is None else "g"
    return LogRadialFunction(grid, gen(grid.nodes),
                             name=f"{kind}[{spec.profile.tag},{spec.alpha:g}]",
                             closed_form=f"bubble-{kind}", generator=gen)


# --------------------------------------------------------------------------
# the concentration family f_alpha
# --------------------------------------------------------------------------

def falpha_values(s, alpha: float) -> np.ndarray:
    """Closed form of v(s) = f_alpha(e^{-s}) on all three pieces."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    inner = s >= alpha
    out[inner] = (np.sqrt(alpha / (8.0 * PI2))
                  + (1.0 - np.exp(-2.0 * (s[inner] - alpha))) / np.sqrt(32.0 * PI2 * alpha))
    mid = (s >= 0) & (s < alpha)
    out[mid] = s[mid] / np.sqrt(8.0 * PI2 * alpha)
    outer = s < 0
    out[outer] = -_eta_ramp(np.exp(-s[outer]) - 1.0)[0] / np.sqrt(8.0 * PI2 * alpha)
    return out


def falpha_interface_gaps(alpha: float) -> dict[str, float]:
    """Jumps of v and v' at the two interfaces (relative where sensible)."""
    amp = 1.0 / np.sqrt(8.0 * PI2 * alpha)
    # r = 1 (s = 0): outer value/slope from eta, inner from the annulus ramp;
    # dv/ds = -r eta'(r) at r=1
    w0, w1, _ = _eta_ramp(np.array([0.0]))[:, 0]
    v_outer = -w0 * amp
    dv_outer = w1 * amp
    gap_v0 = abs(v_outer - 0.0)
    gap_dv0 = abs(dv_outer - amp) / amp
    # s = alpha: annulus vs inner piece
    v_ann = alpha * amp
    v_inn = np.sqrt(alpha / (8.0 * PI2))
    dv_ann = amp
    dv_inn = 2.0 / np.sqrt(32.0 * PI2 * alpha)
    gap_va = abs(v_ann - v_inn) / v_inn
    gap_dva = abs(dv_ann - dv_inn) / dv_ann
    return {"v_at_r1": gap_v0, "dv_at_r1": gap_dv0,
            "v_at_ealpha": gap_va, "dv_at_ealpha": gap_dva}


def _geometric_offsets(h0: float, h_cap: float, span: float) -> np.ndarray:
    """Offsets 0 < d_1 < ... = span with spacing growing h0 -> h_cap by 1.12.

    Gentle spacing growth keeps the nonuniform 3-point stencils second
    order; the list is rescaled so the last offset lands exactly on span.
    """
    out = []
    x, h = 0.0, h0
    while x < span:
        x += h
        out.append(x)
        h = min(h * 1.12, h_cap)
    d = np.asarray(out)
    return d * (span / d[-1])


def falpha_grid(alpha: float) -> LogGrid:
    """Graded grid with geometric clusters at the curvature kinks s = 0, alpha.

    Fixed density: 1400 uniform nodes on [-0.75, 0]; on [0, alpha] spacing
    starts at 5e-4 beside each kink and grows by 1.12 up to alpha/250; on
    the tail [alpha, alpha + 14] it grows from 5e-4 up to 0.03.  Abrupt
    spacing jumps would cost the finite-difference Laplacian its second
    order right where |v''| jumps.  Callers that want another density pass
    their own grid to make_falpha.
    """
    if not 2 <= alpha < np.inf:
        raise ValueError("f_alpha needs finite alpha >= 2")
    a = float(alpha)
    left = np.linspace(-0.75, 0.0, 1400)
    up0 = _geometric_offsets(5e-4, a / 250.0, a / 2.0)
    dn_a = a - up0[::-1]
    tail = a + _geometric_offsets(5e-4, 0.03, 14.0)
    nodes = np.unique(np.concatenate([left, up0, dn_a[:-1], [a], tail]))
    return LogGrid(nodes)


def make_falpha(alpha: float, grid: LogGrid | None = None) -> LogRadialFunction:
    """Assemble f_alpha on a graded grid with the kinks on exact nodes.

    The pieces match at both interfaces for every alpha (falpha_interface_gaps
    reads rounding only; verify's falpha suite checks it).
    """
    if not 2 <= alpha < np.inf:
        raise ValueError("f_alpha needs finite alpha >= 2")
    if grid is None:
        grid = falpha_grid(alpha)
    gen = lambda s: falpha_values(s, alpha)
    return LogRadialFunction(grid, gen(grid.nodes), name=f"falpha[{alpha:g}]",
                             closed_form="falpha", generator=gen)


# --------------------------------------------------------------------------
# closed-form oracles
# --------------------------------------------------------------------------

@dataclass
class AppendixRecord:
    """Every closed-form term of the ||f_alpha|| decompositions.

    inner = ball |x| <= e^{-alpha}, annulus = e^{-alpha} < |x| <= 1,
    outer = |x| > 1 (the eta piece, via the frozen coefficient oracles).
    ``l2_inner_bound`` is the displayed upper bound; ``l2_inner`` the exact
    evaluation of the same integral.
    """

    alpha: float
    l2_inner: float
    l2_inner_bound: float
    l2_annulus: float
    l2_outer: float
    grad_inner: float
    grad_annulus: float
    grad_outer: float
    lap_inner: float
    lap_annulus: float
    lap_outer: float

    @property
    def l2_total(self) -> float:
        return self.l2_inner + self.l2_annulus + self.l2_outer

    @property
    def grad_total(self) -> float:
        return self.grad_inner + self.grad_annulus + self.grad_outer

    @property
    def lap_total(self) -> float:
        return self.lap_inner + self.lap_annulus + self.lap_outer


def appendix_closed_forms(alpha: float) -> AppendixRecord:
    if not 2 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 2")
    a = float(alpha)
    e2a = np.exp(-2.0 * a)
    e4a = np.exp(-4.0 * a)
    A = np.sqrt(a / (8.0 * PI2))
    B = 1.0 / np.sqrt(32.0 * PI2 * a)
    C = A + B
    l2_inner = 2.0 * PI2 * e4a * (C * C / 4.0 - C * B / 3.0 + B * B / 8.0)
    l2_inner_bound = (a / (8 * PI2) + 1.0 / (32 * PI2 * a) + 1.0 / (8 * PI2)) * PI2 * e4a / 2.0
    l2_annulus = (1.0 / (4.0 * a)) * (-a * a * e4a / 4.0 - a * e4a / 8.0
                                      + (1.0 - e4a) / 32.0)
    return AppendixRecord(
        alpha=a,
        l2_inner=float(l2_inner),
        l2_inner_bound=float(l2_inner_bound),
        l2_annulus=float(l2_annulus),
        l2_outer=ETA_L2_COEF / a,
        grad_inner=float(e2a / (24.0 * a)),
        grad_annulus=float((1.0 - e2a) / (8.0 * a)),
        grad_outer=ETA_GRAD_COEF / a,
        lap_inner=1.0 / a,
        lap_annulus=1.0,
        lap_outer=ETA_LAP_COEF / a,
    )


def lemma_add1_integrals(alpha: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """int_{e^-a}^1 r^4 e^{(4/a) log^2 r} dr and the r^3 variant, each as
    (value, estimated error) of the graded rule.

    In u = -log r the integrands are e^{-u(5 - 4u/a)} and e^{-4u(1 - u/a)}
    on [0, alpha]; the r^3 exponent returns to 0 at u = alpha, so that
    integral collects mass at both endpoints (limit 1/2, not 1/4).  It is
    symmetric under u <-> alpha - u, so it is twice its integral over
    [0, alpha/2], where the graded rule resolves both layers at any alpha.
    """
    if not 2 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 2")
    a = float(alpha)
    u, w = _graded_rule((0.0, a / 4, a / 2, 3 * a / 4, a), 0.25)
    i4, = _integrate(w, np.exp(-u * (5.0 - 4.0 * u / a)))
    u, w = _graded_rule((0.0, a / 4, a / 2), 0.25)
    i3, = _integrate(w, 2.0 * np.exp(-4.0 * u * (1.0 - u / a)))
    return i4, i3
