"""Constructive profile decomposition of finite concentrating families.

Given an n-indexed family (u_n) of radial functions, the algorithm mirrors
the constructive extraction loop: estimate the Orlicz mass A_0, locate per
index the depth where W(s) = 4 |v_n(s)/A_0|^2 - 3s peaks (the detected
scale), rescale to the profile variable psi_n(y) = sqrt(8 pi^2/alpha_n)
v_n(alpha_n y), freeze the largest-index snapshot as the profile, subtract
the mollified bubble it generates, and iterate on the remainder.  Each
subtraction removes 1/4 ||psi'||^2 of the (1/r) d_r energy (the ledger).
A step is kept only if the remainder's Orlicz mass does not grow beyond the
norm's tolerance; otherwise the pursuit stops before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bubbles import (BubbleSpec, MollifierSpec, Profile, bubble_values,
                      default_mollifier, narrow_mollifier)
from .gridfn import (CubicSpline, LogGrid, LogRadialFunction, compose_segments,
                     integrate_samples)
from .norms import NormKind, norm
from .orlicz import OrliczConfig, orlicz_norm

_W_TIE_ULPS = 128.0
_SCALE_MIN = 2.0       # a pursuit step needs every scale at least this deep
_Y_MAX = 1.5           # profile snapshots live on y in [0, _Y_MAX] ...
_N_Y = 1537            # ... sampled at _N_Y equispaced nodes
_D_MIN = 1.5           # orthogonal scales end at least this far apart in log

# subtraction mollifiers tried by decompose's first step, in order of
# preference; built once so each normalizing quadrature runs once per process
_RHO_CANDIDATES = (narrow_mollifier(), default_mollifier())


class ScaleDetectionError(RuntimeError):
    """W(s) never exceeds its value at s = 0: no concentration detected."""


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------

@dataclass
class SequenceFamily:
    """Increasing integer indices n_1 < ... < n_N (N >= 3) with one member per index."""

    indices: list[int]
    members: list[LogRadialFunction]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(float(i).is_integer() for i in self.indices):
            raise ValueError(f"indices must be integers, got {self.indices}")
        idx = [int(i) for i in self.indices]
        if len(idx) < 3:
            raise ValueError("family needs at least 3 indices")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if len(self.members) != len(idx):
            raise ValueError("one member per index required")
        self.indices = idx

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class ScaleSeq:
    """Detected concentration depth per family index."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if np.any(~np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise ValueError("scales must be positive finite")

    def last(self) -> float:
        return float(self.alpha[-1])


@dataclass
class OrthogonalityReport:
    d: np.ndarray          # |log(a_n/b_n)| per index
    orthogonal: bool
    d_min: float


@dataclass
class DecompositionResult:
    components: list[tuple[ScaleSeq, Profile]]
    A_history: list[float]
    remainder: SequenceFamily
    ledger: list[float]
    orthogonality_matrix: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# the operations
# --------------------------------------------------------------------------

def a0_window(family: SequenceFamily) -> range:
    """Positions of the members estimate_A0 reads: the last ceil(N/2)."""
    return range(family.size // 2, family.size)


def estimate_A0(family: SequenceFamily, cfg: OrliczConfig | None = None) -> float:
    """limsup surrogate: max Orlicz norm over the members of a0_window."""
    cfg = cfg or OrliczConfig()
    return max(orlicz_norm(family.members[i], cfg) for i in a0_window(family))


def detect_scale(member: LogRadialFunction, A0: float) -> float:
    """argmax over s >= 0 of W(s) = 4 |v(s)/A0|^2 - 3s, ties toward larger s.

    W depends on v only through v/A0, so the detected scale is invariant
    under joint rescaling (v, A0) -> (c v, c A0).  The nodal argmax is
    polished on a fixed two-stage lattice so the refinement is deterministic
    and stays invariant to last-ulp wobble in the ratio.
    """
    if not A0 > 0:
        raise ValueError("A0 must be positive")
    s, v = member.grid.nodes, member.values
    i0 = int(np.searchsorted(s, 0.0))       # the nodes s >= 0 are s[i0:]
    if s.size - i0 < 3:
        raise ScaleDetectionError("grid carries no s >= 0 region")
    s0 = s[i0:]
    W = 4.0 * (v[i0:] / A0) ** 2 - 3.0 * s0
    tie = _W_TIE_ULPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(W))))
    k = _argmax_largest(W, tie)
    if W[k] <= W[0] + tie:
        raise ScaleDetectionError(
            "W(s) <= W(0) everywhere: A0 overestimated or member compact")

    # deterministic lattice polish inside the bracketing cells, on the spline
    # through nearby nodes (data 40 nodes away moves it far below rounding)
    near = slice(max(i0 + k - 40, 0), i0 + k + 41)
    ratio_spline = CubicSpline(s[near], v[near] / A0)
    lo, hi = s0[max(k - 1, 0)], s0[min(k + 1, s0.size - 1)]
    for _ in range(2):
        lattice = np.linspace(lo, hi, 129)
        Wl = 4.0 * ratio_spline(lattice) ** 2 - 3.0 * lattice
        j = _argmax_largest(Wl, tie)
        best = lattice[j]
        step = lattice[1] - lattice[0]
        lo, hi = max(best - step, s0[0]), best + step
    return float(best)


def _argmax_largest(W: np.ndarray, tie: float) -> int:
    wmax = float(np.max(W))
    return int(np.nonzero(W >= wmax - tie)[0][-1])


def _extract_pair(family: SequenceFamily, scales: ScaleSeq, i_last: int,
                  i_prev: int) -> tuple[Profile, float]:
    """Profile snapshot at position i_last on a fixed y-grid in [0, Y], and
    the stabilization diagnostic ||psi_{n_last} - psi_{n_prev}||_{L2[0,Y]}
    of the raw snapshots.

    psi_n(y) = sqrt(8 pi^2 / alpha_n) v_n(alpha_n y); the returned profile
    is psi at i_last, cleaned against i_prev (_stabilized_snapshot), with
    psi(y <= 0) forced to 0.
    """
    y_cap = min([_Y_MAX] + [family.members[i].grid.s_max / scales.alpha[i]
                            for i in (i_last, i_prev)])
    y = np.linspace(0.0, y_cap, _N_Y)

    def snapshot(i: int) -> np.ndarray:
        a, member = scales.alpha[i], family.members[i]
        # a * (s_max / a) can round one ulp past s_max
        vals = np.asarray(member.eval(np.minimum(a * y, member.grid.s_max)), dtype=float)
        return np.sqrt(8.0 * np.pi ** 2 / a) * vals

    psi_last = snapshot(i_last)
    psi_prev = snapshot(i_prev)
    psi_last[0] = 0.0
    diff = psi_last - psi_prev
    values = _stabilized_snapshot(y, psi_last, psi_prev,
                                  family.indices[i_last], family.indices[i_prev])
    values[0] = 0.0
    psi = Profile(y, values, tag="extracted")   # its grid's weights serve deriv_l2 too
    return psi, float(np.sqrt(max(integrate_samples(psi.s, diff * diff), 0.0)))


_STAB_GATE = 0.02      # relative plateau disagreement that triggers cleanup
_BUMP_WINDOW = 0.45    # moving contamination is searched below this fraction of Y


def _stabilized_snapshot(y: np.ndarray, psi_last: np.ndarray, psi_prev: np.ndarray,
                         n_last: int, n_prev: int) -> np.ndarray:
    """Cross-index surrogate of the pointwise limit of the snapshots.

    A bubble living at a subordinate scale leaves a trace ~ k_n * c(n y) in
    the rescaled snapshot, with k_n the square root of the scale ratio
    (k_n = n^{-1/2} for power-law separated pairs).  Its signature is a
    plateau offset between consecutive snapshots away from y = 0; ordinary
    extraction noise has no such offset, so the cleanup is gated on the
    tail median of the disagreement.  When triggered, a two-point
    extrapolation in k removes the index-independent part exactly and the
    leftover moving bump near y = 0 is spliced to zero entirely (its values
    are tiny but its derivative mass is not).
    """
    scale = float(np.max(np.abs(psi_last)))
    if scale == 0.0:
        return psi_last
    d = psi_last - psi_prev
    med = float(np.median(d[y >= 0.5 * y[-1]]))   # y[-1] >= 0: never empty
    # two signatures fire the cleanup: a plateau offset (subordinate bubble
    # with a non-decaying profile) or a large localized disagreement
    # (subordinate bubble with a compact profile); mere extraction noise
    # shows neither
    if abs(med) <= _STAB_GATE * scale \
            and float(np.max(np.abs(d))) <= 5.0 * _STAB_GATE * scale:
        return psi_last
    k_last = 1.0 / np.sqrt(float(n_last))
    k_prev = 1.0 / np.sqrt(float(n_prev))
    cleaned = psi_last + (k_last / (k_prev - k_last)) * d

    # Splice below the moving zone: where the disagreement deviates from its
    # stable plateau level, restricted to the low-y window.  The extent is
    # measured with a low threshold and cleared generously: a surviving
    # sliver of the bump is tiny in value but carries O(1) derivative mass.
    # A deviation zone filling the whole window is the other contamination
    # geometry (a deeper bubble's smooth toe, already handled by the
    # extrapolation); splicing would cut real profile, so it is skipped.
    thresh = max(0.05 * abs(med), 0.005 * scale)
    window_top = _BUMP_WINDOW * y[-1]
    dev = (y <= window_top) & (np.abs(d - med) > thresh) & (y > 0)
    if np.any(dev):
        dev_top = float(np.max(y[dev]))
        if dev_top <= 0.6 * window_top:
            # replace the bump zone by a power-law continuation anchored just
            # above it: p is read off the local log-slope (1 for a linear
            # toe, 3/2 for a cusp) and floored at the Hoelder-1/2 exponent,
            # so the bridge stays profile-admissible and junk-free
            anchor = int(np.searchsorted(y, 1.25 * dev_top))
            anchor = min(max(anchor, 2), y.size - 8)
            ya, va = y[anchor], cleaned[anchor]
            va2 = cleaned[anchor + 4]
            if abs(va) > 1e-12 and va * va2 > 0:
                p = np.log(va2 / va) / np.log(y[anchor + 4] / ya)
                p = float(np.clip(p, 0.51, 3.0))
            else:
                p = 1.0
            zone = slice(1, anchor)
            cleaned[zone] = va * (y[zone] / ya) ** p
    return cleaned


def subtract_bubble(family: SequenceFamily, scales: ScaleSeq, psi: Profile,
                    rho: MollifierSpec, only: range | None = None) -> SequenceFamily:
    """Remainder family r_n = u_n - g_n on the member grids at the positions in
    ``only`` (default all), where g_n is the bubble of psi at scale alpha_n
    mollified by rho.  Members with a generator get the remainder's one too."""
    members = list(family.members)
    for i in range(family.size) if only is None else only:
        m = members[i]
        spec = BubbleSpec(alpha=float(scales.alpha[i]), profile=psi, mollifier=rho)
        vals = m.values - bubble_values(m.grid.nodes, spec)
        gen = None
        if m.generator is not None:
            base = m.generator
            gen = (lambda s, _b=base, _sp=spec:
                   np.asarray(_b(s), dtype=float) - bubble_values(s, _sp))
        members[i] = LogRadialFunction(m.grid, vals, name=f"{m.name}-rem", generator=gen)
    return SequenceFamily(list(family.indices), members,
                          meta=dict(family.meta, remainder=True))


def energy_ledger(family: SequenceFamily, remainder: SequenceFamily,
                  psi: Profile) -> float:
    """Relative residual of the (1/r) d_r energy identity at the last index:

        | ||(1/r)d_r r||^2 - ||(1/r)d_r u||^2 + (1/4)||psi'||^2 | / ||(1/r)d_r u||^2.
    """
    before = norm(family.members[-1], NormKind.INVR_GRAD) ** 2
    after = norm(remainder.members[-1], NormKind.INVR_GRAD) ** 2
    if before == 0.0:
        return 0.0
    return float(abs(after - before + 0.25 * psi.deriv_l2 ** 2) / before)


def orthogonality_check(a: ScaleSeq, b: ScaleSeq) -> OrthogonalityReport:
    """d_n = |log(a_n/b_n)|; orthogonal iff d increases over the last three
    indices and d at the last index is at least _D_MIN."""
    if a.alpha.size != b.alpha.size:
        raise ValueError("scale sequences must share the index set")
    d = np.abs(np.log(a.alpha / b.alpha))
    inc = bool(d[-3] < d[-2] < d[-1]) if d.size >= 3 else bool(d[-1] > d[0])
    return OrthogonalityReport(d=d, orthogonal=inc and d[-1] >= _D_MIN, d_min=_D_MIN)


# --------------------------------------------------------------------------
# family synthesis (bubble sums with exact generators)
# --------------------------------------------------------------------------

def family_grid(alpha_shallow: float, alpha_deep: float) -> LogGrid:
    segs = [(-1.5, 0.0, 40)]
    knee = min(2.5 * alpha_shallow + 4.0, 1.5 * alpha_deep)
    segs.append((0.0, knee, max(int(knee / 0.1), 64)))
    if knee < 1.5 * alpha_deep:
        segs.append((knee, 1.5 * alpha_deep, max(int((1.5 * alpha_deep - knee) / 0.35), 64)))
    segs.append((1.5 * alpha_deep, 1.5 * alpha_deep + 12.0, 48))
    return compose_segments(segs)


def synthesize_family(indices: list[int],
                      bubbles_of: Callable[[int], list[BubbleSpec]],
                      meta: dict | None = None) -> SequenceFamily:
    """Family whose member at index n is the sum of the bubbles of n."""
    members = []
    for n in indices:
        specs = bubbles_of(n)
        if not specs:
            raise ValueError("each index needs at least one bubble")
        a_min = min(sp.alpha for sp in specs)
        a_max = max(sp.alpha for sp in specs)
        grid = family_grid(a_min, a_max)

        def gen(s, _sp=tuple(specs)):
            tot = np.zeros_like(np.atleast_1d(np.asarray(s, dtype=float)))
            for sp in _sp:
                tot = tot + bubble_values(s, sp)
            return tot

        members.append(LogRadialFunction(grid, gen(grid.nodes),
                                         name=f"u[{n}]", generator=gen))
    return SequenceFamily(list(indices), members, meta=meta or {})


# --------------------------------------------------------------------------
# the decomposition loop
# --------------------------------------------------------------------------

def _impute_scales(indices: list[int], found: dict[int, float]) -> np.ndarray:
    """Fill failed detections by log-log interpolation over the index values,
    extrapolating linearly from the two outermost detections on either side
    (at least two detections are required)."""
    li = np.log(np.asarray(indices, dtype=float))
    ks = sorted(found)
    lx, ly = li[ks], np.log([found[k] for k in ks])
    out = np.exp(np.interp(li, lx, ly))
    lo, hi = li < lx[0], li > lx[-1]
    out[lo] = np.exp(ly[0] + (ly[1] - ly[0]) / (lx[1] - lx[0]) * (li[lo] - lx[0]))
    out[hi] = np.exp(ly[-1] + (ly[-1] - ly[-2]) / (lx[-1] - lx[-2]) * (li[hi] - lx[-1]))
    out[ks] = [found[k] for k in ks]
    return out


def _monotone_repair(alpha: np.ndarray) -> tuple[np.ndarray, bool]:
    rep = np.maximum.accumulate(alpha)
    return rep, bool(np.any(rep != alpha))


def _detect_family(family: SequenceFamily, A_ref: float) -> tuple[dict[int, float], list[int]]:
    found: dict[int, float] = {}
    failed: list[int] = []
    for j, m in enumerate(family.members):
        try:
            found[j] = detect_scale(m, A_ref)
        except ScaleDetectionError:
            failed.append(j)
    return found, failed


def decompose(family: SequenceFamily, cfg: OrliczConfig | None = None, *,
              stop_frac: float = 0.1, max_profiles: int = 5) -> DecompositionResult:
    """Greedy pursuit: estimate A_0, then per step detect the scales, extract
    the profile, subtract its mollified bubble and re-estimate the Orlicz mass.
    It stops once the mass is at most stop_frac * A_0 (0 < stop_frac < 1) or
    after max_profiles >= 1 components.

    The mollifier is asymptotically immaterial, but at finite n it decides
    whether the mass reaches stop_frac * A_0.  The first step subtracts with
    each bump of _RHO_CANDIDATES (narrow, then standard) and keeps the
    remainder of least mass; the first bump stays unless another beats it
    by more than the norm's resolution.  Later steps reuse the
    kept bump.  A step whose remainder has a larger mass (beyond that
    resolution) is dropped and ends the pursuit, so the reported A-history is
    nonincreasing and each ledger entry belongs to a kept component.
    Detection failures at individual indices are tolerated (subsequence
    surrogate): those scales are imputed log-linearly.
    """
    if not 0.0 < stop_frac < 1.0:
        raise ValueError(f"stop_frac must lie in (0, 1), got {stop_frac}")
    if max_profiles < 1:
        raise ValueError(f"max_profiles must be at least 1, got {max_profiles}")
    cfg = cfg or OrliczConfig()
    rho_candidates = _RHO_CANDIDATES
    diagnostics: dict = {
        "events": [],
        "stabilization": [],
        "detect_failures": [],
    }
    events = diagnostics["events"]

    A0 = estimate_A0(family, cfg)
    if A0 <= 1e-12:
        return DecompositionResult([], [], family, [],
                                   np.zeros((0, 0)), diagnostics)

    comps: list[tuple[ScaleSeq, Profile]] = []
    ledgers: list[float] = []
    A_hist = [A0]
    working = family
    tol = 1.0 + 2.0 * cfg.lambda_tol

    for _ in range(max_profiles):
        found, failed = _detect_family(working, A_hist[-1])
        diagnostics["detect_failures"].append([family.indices[j] for j in failed])
        if len(found) < 2:
            events.append("detection exhausted")
            break
        alpha, repaired = _monotone_repair(_impute_scales(family.indices, found))
        if repaired:
            events.append("scale sequence monotonized")
        if alpha[0] < _SCALE_MIN:   # the least scale, after the repair
            events.append(f"detected scale {alpha[0]:.3g} below scale_min={_SCALE_MIN:g}")
            break
        scales = ScaleSeq(alpha)

        ok = sorted(found)
        psi, stabilization = _extract_pair(working, scales, ok[-1], ok[-2])
        diagnostics["stabilization"].append(stabilization)

        # candidates subtract where estimate_A0 reads; a kept step completes
        # the other members with its bump
        scored = a0_window(working)
        rems = [subtract_bubble(working, scales, psi, cand, scored) for cand in rho_candidates]
        scores = [estimate_A0(rem, cfg) for rem in rems]
        best = int(np.argmin(scores))
        pick = best if scores[best] * tol < scores[0] else 0
        nxt, A_next = rems[pick], scores[pick]
        if len(rho_candidates) > 1:
            rho_candidates = (rho_candidates[pick],)
            events.append(f"subtraction mollifier: {rho_candidates[0].name} "
                          + "(scores " + ", ".join(f"{s:.4g}" for s in scores) + ")")
        if A_next > A_hist[-1] * tol:
            events.append("pursuit not contracting")
            break
        nxt = subtract_bubble(nxt, scales, psi, rho_candidates[0], range(scored.start))
        comps.append((scales, psi))
        ledgers.append(energy_ledger(working, nxt, psi))
        A_hist.append(A_next)
        working = nxt
        if A_next <= stop_frac * A0:
            break
    else:  # every step kept, yet the mass never fell below stop_frac * A_0
        events.append("max_profiles reached")

    lasts = np.array([sc.last() for sc, _ in comps])
    orth = np.abs(np.log(lasts[:, None] / lasts[None, :]))
    return DecompositionResult(components=comps, A_history=A_hist,
                               remainder=working, ledger=ledgers,
                               orthogonality_matrix=orth,
                               diagnostics=diagnostics)
