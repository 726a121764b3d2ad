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
from scipy.interpolate import CubicSpline

from .bubbles import (BubbleSpec, MollifierSpec, Profile, bubble_values,
                      default_mollifier, narrow_mollifier)
from .gridfn import LogGrid, LogRadialFunction, compose_segments, integrate_samples
from .norms import TWO_PI2, NormKind, norm
from .orlicz import OrliczConfig, orlicz_norm

_W_TIE_ULPS = 128.0


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

    def tail_mass(self, R: float) -> list[float]:
        """||u_n||_{L2(|x|>R)} per member (compactness-at-infinity diagnostic)."""
        out = []
        for m in self.members:
            s = m.grid.nodes
            sel = s <= -np.log(R)
            if np.count_nonzero(sel) < 4:
                out.append(0.0)
                continue
            g = np.exp(-4.0 * s[sel]) * m.values[sel] ** 2
            out.append(float(np.sqrt(max(TWO_PI2 * integrate_samples(s[sel], g), 0.0))))
        return out


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

def estimate_A0(family: SequenceFamily, cfg: OrliczConfig | None = None) -> float:
    """limsup surrogate: max Orlicz norm over the last ceil(N/2) indices."""
    cfg = cfg or OrliczConfig()
    k = (family.size + 1) // 2
    return max(orlicz_norm(m, cfg) for m in family.members[-k:])


def detect_scale(member: LogRadialFunction, A0: float) -> float:
    """argmax over s >= 0 of W(s) = 4 |v(s)/A0|^2 - 3s, ties toward larger s.

    W depends on v only through v/A0, so the detected scale is invariant
    under joint rescaling (v, A0) -> (c v, c A0).  The nodal argmax is
    polished on a fixed two-stage lattice so the refinement is deterministic
    and stays invariant to last-ulp wobble in the ratio.
    """
    if not A0 > 0:
        raise ValueError("A0 must be positive")
    s = member.grid.nodes
    w = member.values / A0
    sel = s >= 0.0
    if np.count_nonzero(sel) < 3:
        raise ScaleDetectionError("grid carries no s >= 0 region")
    s0 = s[sel]
    W = 4.0 * w[sel] ** 2 - 3.0 * s0
    tie = _W_TIE_ULPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(W))))
    k = _argmax_largest(W, tie)
    if W[k] <= W[0] + tie:
        raise ScaleDetectionError(
            "W(s) <= W(0) everywhere: A0 overestimated or member compact")

    # deterministic lattice polish inside the bracketing cells
    ratio_spline = CubicSpline(s, w, bc_type="not-a-knot")
    lo = s0[max(k - 1, 0)]
    hi = s0[min(k + 1, s0.size - 1)]
    best = s0[k]
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


def extract_profile(family: SequenceFamily, scales: ScaleSeq,
                    y_max: float = 1.5, n_y: int = 1537) -> Profile:
    """Profile snapshot at the largest index on a fixed y-grid in [0, Y].

    psi_n(y) = sqrt(8 pi^2 / alpha_n) v_n(alpha_n y); the returned profile
    is psi at the last index with psi(y <= 0) forced to 0, carrying the
    stabilization diagnostic ||psi_{n_N} - psi_{n_{N-1}}||_{L2[0,Y]}.
    """
    return _extract_pair(family, scales, family.size - 1, family.size - 2,
                         y_max=y_max, n_y=n_y)


def _extract_pair(family: SequenceFamily, scales: ScaleSeq, i_last: int,
                  i_prev: int, y_max: float = 1.5, n_y: int = 1537,
                  stabilize: bool = False) -> Profile:
    y_cap = min([y_max] + [family.members[i].grid.s_max / scales.alpha[i]
                           for i in (i_last, i_prev)])
    y = np.linspace(0.0, y_cap, n_y)

    def snapshot(i: int) -> np.ndarray:
        a = scales.alpha[i]
        vals = np.asarray(family.members[i].eval(a * y), dtype=float)
        return np.sqrt(8.0 * np.pi ** 2 / a) * vals

    psi_last = snapshot(i_last)
    psi_prev = snapshot(i_prev)
    psi_last[0] = 0.0
    diff = psi_last - psi_prev
    delta = float(np.sqrt(max(integrate_samples(y, diff * diff), 0.0)))
    values = psi_last
    if stabilize:
        values = _stabilized_snapshot(y, psi_last, psi_prev,
                                      family.indices[i_last], family.indices[i_prev])
        values[0] = 0.0
    return Profile(y, values, tag="extracted", stabilization=delta)


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
    tail = d[y >= 0.5 * y[-1]]
    med = float(np.median(tail)) if tail.size else 0.0
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
                    rho: MollifierSpec | None = None,
                    mollified: bool = True) -> SequenceFamily:
    """Remainder family r_n = u_n - bubble(alpha_n, psi) on the member grids."""
    rho = rho or default_mollifier()
    members = []
    for i, m in enumerate(family.members):
        spec = BubbleSpec(alpha=float(scales.alpha[i]), profile=psi,
                          mollifier=rho, mollified=mollified)
        vals = m.values - bubble_values(m.grid.nodes, spec)
        gen = None
        if m.generator is not None:
            base = m.generator
            gen = (lambda s, _b=base, _sp=spec:
                   np.asarray(_b(s), dtype=float) - bubble_values(s, _sp))
        members.append(LogRadialFunction(m.grid, vals, name=f"{m.name}-rem",
                                         generator=gen))
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


def orthogonality_check(a: ScaleSeq, b: ScaleSeq, d_min: float = 1.5) -> OrthogonalityReport:
    """d_n = |log(a_n/b_n)|; orthogonal iff d increases over the last three
    indices and d at the last index is at least d_min."""
    if a.alpha.size != b.alpha.size:
        raise ValueError("scale sequences must share the index set")
    d = np.abs(np.log(a.alpha / b.alpha))
    inc = bool(d[-3] < d[-2] < d[-1]) if d.size >= 3 else bool(d[-1] > d[0])
    return OrthogonalityReport(d=d, orthogonal=inc and d[-1] >= d_min, d_min=d_min)


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
    """Fill failed detections by log-log interpolation over the index values
    (at least two detections are required)."""
    li = np.log(np.asarray(indices, dtype=float))
    ks = sorted(found)
    lx = np.log(np.asarray([indices[k] for k in ks], dtype=float))
    ly = np.log(np.asarray([found[k] for k in ks], dtype=float))
    out = np.empty(len(indices))
    for j in range(len(indices)):
        if j in found:
            out[j] = found[j]
        else:
            slope_lo = (ly[1] - ly[0]) / (lx[1] - lx[0])
            slope_hi = (ly[-1] - ly[-2]) / (lx[-1] - lx[-2])
            if li[j] <= lx[0]:
                out[j] = np.exp(ly[0] + slope_lo * (li[j] - lx[0]))
            elif li[j] >= lx[-1]:
                out[j] = np.exp(ly[-1] + slope_hi * (li[j] - lx[-1]))
            else:
                out[j] = np.exp(np.interp(li[j], lx, ly))
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
              stop_frac: float = 0.1, max_profiles: int = 5,
              rho: MollifierSpec | None = None, mollified: bool = True,
              scale_min: float = 2.0, y_max: float = 1.5) -> DecompositionResult:
    """Greedy pursuit: estimate A_0, then per step detect the scales, extract
    the profile, subtract its bubble and re-estimate the Orlicz mass.

    A step whose remainder has a larger mass (beyond the norm's
    tolerance) is dropped and ends the pursuit, so the reported A-history is
    nonincreasing and each ledger entry belongs to a kept component.
    Detection failures at individual indices are tolerated (subsequence
    surrogate): those scales are imputed log-linearly.
    """
    cfg = cfg or OrliczConfig()
    rho_candidates = ([rho] if rho is not None
                      else [narrow_mollifier(), default_mollifier()])
    rho = rho_candidates[0]
    diagnostics: dict = {
        "tail_mass": {f"R=e^{k}": family.tail_mass(float(np.exp(k)))
                      for k in (1, 2, 3)},
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
        if alpha[-1] < scale_min:
            events.append(f"detected scale {alpha[-1]:.3g} below scale_min={scale_min:g}")
            break
        scales = ScaleSeq(alpha)

        ok = sorted(found)
        psi = _extract_pair(working, scales, ok[-1], ok[-2], y_max=y_max,
                            stabilize=True)
        diagnostics["stabilization"].append(psi.stabilization)

        if not comps and len(rho_candidates) > 1:
            # mollifier choice is asymptotically immaterial; at finite n pick
            # the shipped bump whose subtraction contracts the last member most,
            # keeping the first candidate unless another beats it by more than
            # the norm's resolution (scores can agree to 4 digits)
            last = working.members[-1]
            scores = []
            for cand in rho_candidates:
                spec = BubbleSpec(alpha=scales.last(), profile=psi,
                                  mollifier=cand, mollified=mollified)
                rem = LogRadialFunction(last.grid,
                                        last.values - bubble_values(last.grid.nodes, spec))
                scores.append(orlicz_norm(rem, cfg))
            best = int(np.argmin(scores))
            rho = rho_candidates[best if scores[best] * tol < scores[0] else 0]
            events.append(f"subtraction mollifier: {rho.name} "
                          + "(scores " + ", ".join(f"{s:.4g}" for s in scores) + ")")

        nxt = subtract_bubble(working, scales, psi, rho, mollified)
        A_next = estimate_A0(nxt, cfg)
        if A_next > A_hist[-1] * tol:
            events.append("pursuit not contracting")
            break
        comps.append((scales, psi))
        ledgers.append(energy_ledger(working, nxt, psi))
        A_hist.append(A_next)
        working = nxt
        if A_next <= stop_frac * A0:
            break
    else:  # every step kept, yet the mass never fell below stop_frac * A_0
        events.append("max_profiles reached")

    k = len(comps)
    orth = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            orth[i, j] = abs(np.log(comps[i][0].last() / comps[j][0].last()))

    return DecompositionResult(components=comps, A_history=A_hist,
                               remainder=working, ledger=ledgers,
                               orthogonality_matrix=orth,
                               diagnostics=diagnostics)
