"""JSON wire formats and deterministic artifact emission.

Reals are written by json's repr of the binary64 value, the shortest decimal
that parses back to the same double, so identical runs produce identical
bytes and round-trips are lossless.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .bubbles import Profile
from .decompose import DecompositionResult, SequenceFamily
from .gridfn import LogGrid, LogRadialFunction
from .orlicz import NormReport


def _num_list(a) -> list[float]:
    return np.asarray(a, dtype=float).tolist()


# -- LogRadialFunction: {"meta": {...}, "grid_s": [...], "values": [...]} ----

def logradial_to_dict(f: LogRadialFunction) -> dict:
    return {
        "meta": {"name": f.name, "closed_form": f.closed_form},
        "grid_s": _num_list(f.grid.nodes),
        "values": _num_list(f.values),
    }


def logradial_from_dict(d: dict) -> LogRadialFunction:
    try:
        meta = d.get("meta", {})
        grid = LogGrid(np.asarray(d["grid_s"], dtype=float))
        return LogRadialFunction(grid, np.asarray(d["values"], dtype=float),
                                 name=str(meta.get("name", "")),
                                 closed_form=meta.get("closed_form"))
    except KeyError as exc:
        raise ValueError(f"malformed log-radial JSON: missing {exc}") from exc


# -- Profile: {"s": [...], "psi": [...]} with s >= 0 only --------------------

def profile_to_dict(p: Profile) -> dict:
    return {"s": _num_list(p.s), "psi": _num_list(p.values)}


def profile_from_dict(d: dict) -> Profile:
    try:
        s = np.asarray(d["s"], dtype=float)
        psi = np.asarray(d["psi"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"malformed profile JSON: missing {exc}") from exc
    return Profile(s, psi, tag="loaded")


# -- SequenceFamily ----------------------------------------------------------

def family_to_dict(fam: SequenceFamily) -> dict:
    return {
        "indices": list(fam.indices),
        "members": [logradial_to_dict(m) for m in fam.members],
        "meta": fam.meta,
    }


def family_from_dict(d: dict) -> SequenceFamily:
    try:
        return SequenceFamily(indices=d["indices"],
                              members=[logradial_from_dict(m) for m in d["members"]],
                              meta=d.get("meta", {}))
    except KeyError as exc:
        raise ValueError(f"malformed family JSON: missing {exc}") from exc


# -- DecompositionResult -----------------------------------------------------

def result_to_dict(res: DecompositionResult) -> dict:
    return {
        "components": [
            {"scales": _num_list(sc.alpha), "profile": profile_to_dict(psi)}
            for sc, psi in res.components
        ],
        "A_history": _num_list(res.A_history),
        "ledger": _num_list(res.ledger),
        "orthogonality_matrix": [_num_list(row) for row in res.orthogonality_matrix],
        "remainder": family_to_dict(res.remainder),
        "diagnostics": res.diagnostics,
    }


def norm_report_to_dict(rep: NormReport) -> dict:
    """The norm, its estimated relative errors (null where not estimable),
    the unbounded-tail flag, and whether the estimate exceeds lambda_tol."""
    est = lambda x: float(x) if math.isfinite(x) else None
    return {"orlicz_norm": float(rep.lam), "halving_error": est(rep.halving),
            "tail_error": est(rep.tail), "open_tail": rep.open_tail,
            "flagged": rep.flagged}


def _indented(obj: Any, pad: str) -> str:
    """json.dumps(obj, indent=2) at indentation pad, with numpy arrays and
    scalars as Python numbers (arrays as lists of floats) and keys as str().
    The walk is in Python; each list of plain floats, and every leaf, is
    written by json's C encoder (indent=2 alone would run its pure-Python one)."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        obj = _num_list(obj)
    if isinstance(obj, dict) and obj:
        items = {str(k): v for k, v in obj.items()}.items()
        body = (",\n" + inner).join(f"{json.dumps(k)}: {_indented(v, inner)}"
                                    for k, v in items)
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {float}:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_indented(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


def dumps(payload: dict) -> str:
    """Deterministic JSON text (stable key order, repr float formatting)."""
    return _indented(payload, "") + "\n"


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
