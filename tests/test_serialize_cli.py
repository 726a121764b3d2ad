import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import orlicz4d
from orlicz4d import bubbles as bb
from orlicz4d import gridfn
from orlicz4d import serialize as ser
from orlicz4d import verify
from orlicz4d.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, main
from orlicz4d.concentration import EXP_TOTAL_LIMIT
from orlicz4d.decompose import synthesize_family
from orlicz4d.norms import NormKind
from orlicz4d.orlicz import EXP_CAP, orlicz_norm_report, tm_functional
from orlicz4d.verify import SuiteReport, run_suite


def _write(path, payload):
    Path(path).write_text(ser.dumps(payload))


# -------------------------------------------------------------- round trips

def test_logradial_roundtrip():
    f = bb.make_falpha(5.0)
    d = ser.logradial_to_dict(f)
    g = ser.logradial_from_dict(json.loads(ser.dumps(d)))
    np.testing.assert_array_equal(g.grid.nodes, f.grid.nodes)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.name == f.name and g.closed_form == "falpha"


def test_profile_roundtrip_and_schema():
    p = bb.profile_L()
    d = ser.profile_to_dict(p)
    assert set(d) == {"s", "psi"}
    q = ser.profile_from_dict(json.loads(ser.dumps(d)))
    np.testing.assert_array_equal(q.s, p.s)
    np.testing.assert_array_equal(q.values, p.values)


def test_profile_rejects_negative_s():
    with pytest.raises(ValueError, match="s >= 0"):
        ser.profile_from_dict({"s": [-1.0, 0.0, 1.0, 2.0], "psi": [0.0, 0.0, 1.0, 1.0]})


def test_family_roundtrip():
    fam = synthesize_family([4, 8, 16], lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=bb.profile_L())])
    d = ser.family_to_dict(fam)
    g = ser.family_from_dict(json.loads(ser.dumps(d)))
    assert g.indices == fam.indices
    np.testing.assert_array_equal(g.members[1].values, fam.members[1].values)


def test_malformed_json_reports_path():
    with pytest.raises(ValueError, match="missing"):
        ser.logradial_from_dict({"meta": {}})


# The writer before arrays were emitted by .tolist(): every real went through
# a 17-significant-digit decimal, which is the identity on binary64.
def _fmt_float_17(x):
    return float(f"{float(x):.17g}")


def _jsonable_17(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable_17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_17(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_fmt_float_17(x) for x in np.asarray(obj, dtype=float)]
    if isinstance(obj, (np.floating, float)):
        return _fmt_float_17(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


_reals = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 1.0 / 3.0, 0.1, 1e300])
_leaves = (_reals | st.integers(-2 ** 70, 2 ** 70) | st.booleans() | st.none() | st.text(max_size=4)
           | _reals.map(np.float64) | st.floats(width=32).map(np.float32)
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | hnp.arrays(np.float64, st.integers(0, 6), elements=_reals)
           | hnp.arrays(np.int32, st.integers(0, 6)))
# lists of plain floats take dumps' one-call path; lists mixing in ints and
# bools (or numpy floats) are walked element by element
_float_lists = st.lists(_reals, min_size=1, max_size=6)
_mixed_lists = st.lists(_reals | st.integers(-9, 9) | st.booleans(), min_size=1, max_size=6)
_payloads = st.recursive(
    _leaves | _float_lists | _mixed_lists | st.just([]) | st.just({}),
    lambda kids: st.lists(kids, max_size=5) | st.tuples(kids, kids) | st.tuples(kids)
    | st.dictionaries(st.text(max_size=4) | st.integers(0, 9), kids, max_size=4),
    max_leaves=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), _payloads, max_size=4))
@example(payload={})
@example(payload={"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}, "g": [[[]]]})
@example(payload={"deep": [[[[1.5, -0.0, math.nan, math.inf]]], {"x": [[[-math.inf]]]}]})
@example(payload={"one": [2.0], "one int": [3], "one list": [[0.25]], "one dict": [{"k": 1e-300}]})
@example(payload={"mixed": [1, 1.0, True, 0.5, False, -2, np.float64(0.1), np.int64(4)]})
@example(payload={"k": {1: [0.5], "1": (2.0, 3)}})
@example(payload={"tuples": ((1.5, -0.0), (), ((),), (np.int64(3), "x"))})
@example(payload={"int64 array": np.arange(-2, 3, dtype=np.int64), "empty": np.array([])})
def test_dumps_bytes_match_seventeen_digit_writer(payload):
    assert ser.dumps(payload) == json.dumps(_jsonable_17(payload), indent=2) + "\n"


# sha256 of the CLI artifacts at two lattice alphas of the falpha_cli
# benchmark, written by the 17-digit writer; the default node budget
PINNED_ARTIFACTS = {
    "20.0": ("f5e04498c2dc77a3258bab0246080b027631c45f2ff8b051c7745fb64c4434b4",
             "a5d214ef788a33d36ae5ced87d7db7071c7dc5c479790e2dd31ea220f96afd95",
             "e991506fc124b7672a0116cf3c46a6b3e4a2c569593ba0bee7bcc9c24981416c"),
    "63.24555320336759": (
        "810130cb6209e6b1ae3d96dda57c08752c70e570e3bd28ef1a73028d5f56fd18",
        "80cd771912c03ce7e832cc05ace7cd516bcdb8e18a634e841bb58e04f2c8ec06",
        "abb3c35164b8df49948479ccab0f058d78a49c572da59419a3e9509ae193f079"),
}


@pytest.mark.parametrize("alpha", sorted(PINNED_ARTIFACTS))
def test_cli_artifacts_pinned(alpha, tmp_path):
    f, o, t = (str(tmp_path / n) for n in ("f.json", "o.json", "t.json"))
    assert main(["gen-falpha", "--alpha", alpha, "--out", f]) == EXIT_OK
    assert main(["orlicz", "--in", f, "--out", o]) == EXIT_OK
    assert main(["tm", "--in", f, "--beta", repr(32.0 * math.pi ** 2), "--out", t]) == EXIT_OK
    got = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (f, o, t))
    assert got == PINNED_ARTIFACTS[alpha]


# ------------------------------------------------------------------- CLI ---

def test_cli_gen_norm_orlicz_pipeline(tmp_path):
    fpath = tmp_path / "f.json"
    assert main(["gen-falpha", "--alpha", "10", "--out", str(fpath)]) == EXIT_OK
    npath = tmp_path / "norm.json"
    assert main(["norm", "--in", str(fpath), "--which", "LAP",
                 "--out", str(npath)]) == EXIT_OK
    with open(npath) as fh:
        lap = json.load(fh)["value"]
    want = np.sqrt(1.0 + 0.1 + bb.ETA_LAP_COEF / 10.0)
    assert abs(lap - want) <= 1e-3 * want
    opath = tmp_path / "orlicz.json"
    assert main(["orlicz", "--in", str(fpath), "--out", str(opath)]) == EXIT_OK
    with open(opath) as fh:
        d = json.load(fh)
    assert list(d) == ["kappa", "orlicz_norm", "halving_error", "tail_error",
                       "open_tail", "flagged"]
    assert 0.05 < d["orlicz_norm"] < 0.07
    # loaded data has no generator: the halved cells read the spline
    assert 0.0 <= d["halving_error"] + d["tail_error"] <= 1e-6
    assert d["open_tail"] is False and d["flagged"] is False


def test_cli_zero_norm(tmp_path):
    zpath = tmp_path / "zero.json"
    grid = list(np.linspace(-1.0, 8.0, 32))
    _write(zpath, {"meta": {"name": "zero", "closed_form": None},
                   "grid_s": grid, "values": [0.0] * 32})
    out = tmp_path / "n.json"
    assert main(["norm", "--in", str(zpath), "--which", "L2",
                 "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        assert json.load(fh)["value"] == 0.0


def test_cli_gen_bubble_deterministic(tmp_path):
    p1, p2 = tmp_path / "b1.json", tmp_path / "b2.json"
    args = ["gen-bubble", "--alpha", "24", "--profile", "L",
            "--mollified", "true"]
    assert main(args + ["--out", str(p1)]) == EXIT_OK
    assert main(args + ["--out", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_tm_matches_functional(tmp_path):
    fpath, out = tmp_path / "f.json", tmp_path / "tm.json"
    assert main(["gen-falpha", "--alpha", "20", "--out", str(fpath)]) == EXIT_OK
    beta = 16.0 * np.pi ** 2
    assert main(["tm", "--in", str(fpath), "--beta", repr(beta),
                 "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        d = json.load(fh)
    want = tm_functional(ser.logradial_from_dict(ser.read_json(str(fpath))), beta)
    assert d == {"beta": beta, "value": want.value, "l2_ratio": want.l2_ratio}


def test_cli_gen_bubble_profiles(tmp_path):
    # tent, cusp and a profile JSON file: each output is the bubble of that
    # profile on the default bubble grid
    ppath = tmp_path / "psi.json"
    s = np.linspace(0.0, 10.0, 257)
    _write(ppath, ser.profile_to_dict(bb.Profile(s, np.minimum(s ** 1.5, 1.0))))
    profiles = {"tent": bb.profile_tent(), "cusp": bb.profile_cusp(),
                str(ppath): ser.profile_from_dict(ser.read_json(str(ppath)))}
    for name, psi in profiles.items():
        out = tmp_path / "b.json"
        assert main(["gen-bubble", "--alpha", "24", "--profile", name,
                     "--mollified", "false", "--out", str(out)]) == EXIT_OK
        spec = bb.BubbleSpec(alpha=24.0, profile=psi, mollifier=None)
        want = bb.make_bubble(spec, grid=bb.bubble_grid(24.0))
        assert out.read_text() == ser.dumps(ser.logradial_to_dict(want))


def test_cli_gen_bubble_tiny_profile(tmp_path, capsys):
    ppath = tmp_path / "psi.json"
    _write(ppath, {"s": [0.0, 0.5, 1.0], "psi": [0.0, 0.5, 1.0]})
    assert main(["gen-bubble", "--alpha", "24", "--profile", str(ppath),
                 "--out", str(tmp_path / "b.json")]) == EXIT_VALIDATION
    assert "at least 4 nodes" in capsys.readouterr().err


def test_cli_lemma_add1_stdout(capsys):
    assert main(["lemma-add1", "--alpha", "100"]) == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "alpha,r4_integral,r4_limit,r3_integral,r3_limit"
    (i4, _), (i3, _) = bb.lemma_add1_integrals(100.0)
    assert row.split(",") == ["100", f"{i4:.17g}", "0.2", f"{i3:.17g}", "0.5"]


def test_cli_lemma_add1_csv(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["lemma-add1", "--alpha", "100", "--out", str(out)]) == EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert header.split(",")[0] == "alpha"
    vals = row.split(",")
    assert abs(float(vals[1]) - 0.2006) <= 1e-3
    assert abs(float(vals[3]) - 0.5025) <= 1e-3


def test_cli_lemma_add1_huge_alpha(capsys):
    assert main(["lemma-add1", "--alpha", "1e6"]) == EXIT_OK
    _, row = capsys.readouterr().out.strip().splitlines()
    _, i4, _, i3, _ = (float(v) for v in row.split(","))
    assert abs(i4 - (0.2 + 0.064e-6)) <= 1e-11 and abs(i3 - (0.5 + 0.25e-6)) <= 1e-11


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("alpha", ["1e10", "1e100", "1e300"])
def test_cli_concentration_huge_alpha(tmp_path, alpha):
    out = tmp_path / "conc.json"
    assert main(["concentration", "--alpha", alpha, "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert abs(d["pairing_exp"] - EXP_TOTAL_LIMIT) <= 1e-8 * EXP_TOTAL_LIMIT


def test_cli_concentration_json(tmp_path):
    out = tmp_path / "conc.json"
    assert main(["concentration", "--alpha", "40", "--phi", "gaussian",
                 "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        d = json.load(fh)
    assert set(d) == {"alpha", "pairing_lap", "pairing_exp", "split", "split_error",
                      "phi_at_zero"}
    assert all(0.0 <= e <= 1e-10 * abs(d["pairing_exp"])
               for part in d["split_error"].values() for e in part.values())


def test_cli_cached_parser_keeps_no_flags(tmp_path):
    # one parser per process: a flag given to one call must not reach the next
    assert build_parser() is build_parser()
    f = str(tmp_path / "f.json")
    assert main(["gen-falpha", "--alpha", "10", "--out", f]) == EXIT_OK
    out = {}
    for name, argv in (("o2", ["orlicz", "--kappa", "2"]), ("o1", ["orlicz"]),
                       ("nlap", ["norm", "--which", "LAP"]), ("n", ["norm"])):
        out[name] = str(tmp_path / f"{name}.json")
        assert main(argv + ["--in", f, "--out", out[name]]) == EXIT_OK
    read = lambda name: json.loads(Path(out[name]).read_text())
    assert read("o2")["kappa"] == 2.0 and read("o1")["kappa"] == 1.0
    assert read("nlap")["which"] == "LAP" and read("n")["which"] == "L2"
    assert read("o2")["orlicz_norm"] < read("o1")["orlicz_norm"]


def test_cli_decompose(tmp_path):
    fam = synthesize_family([8, 16, 32], lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=bb.profile_L())])
    fpath = tmp_path / "fam.json"
    _write(fpath, ser.family_to_dict(fam))
    out = tmp_path / "result.json"
    assert main(["decompose", "--in", str(fpath), "--max-profiles", "3",
                 "--stop-frac", "0.1", "--out", str(out)]) == EXIT_OK
    with open(out) as fh:
        d = json.load(fh)
    assert len(d["components"]) == 1
    assert d["A_history"][-1] <= 0.1 * d["A_history"][0]


def test_cli_decompose_shallow_early_scales(tmp_path):
    # detected scales 0.70, 1.35, 2.71, 5.40: the first is below scale_min,
    # so no bubble at scale < 1 is ever built
    s = np.linspace(0.0, 10.0, 2049)
    psi = bb.Profile(s, np.interp(s, [0.0, 0.084, 0.3, 1.0, 10.0], [0.0, 1.2, 0.5, 1.0, 1.0]))
    fam = synthesize_family([8, 16, 32, 64], lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=psi, mollifier=None)])
    fpath, out = tmp_path / "fam.json", tmp_path / "result.json"
    _write(fpath, ser.family_to_dict(fam))
    assert main(["decompose", "--in", str(fpath), "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert d["components"] == [] and len(d["A_history"]) == 1
    assert d["diagnostics"] == {"events": ["detected scale 0.703 below scale_min=2"],
                                "stabilization": [], "detect_failures": [[]]}


@pytest.mark.parametrize("flags", [["--max-profiles", "0"], ["--max-profiles", "-2"],
                                   ["--stop-frac", "-1"], ["--stop-frac", "0"],
                                   ["--stop-frac", "1"], ["--stop-frac", "5"],
                                   ["--stop-frac", "nan"], ["--kappa", "inf"]],
                         ids=lambda flags: f"{flags[0][2:]}={flags[1]}")
def test_cli_decompose_rejects_out_of_range_options(tmp_path, capsys, flags):
    member = {"grid_s": np.linspace(-1.0, 4.0, 16).tolist(), "values": [0.0] * 16}
    fpath, out = tmp_path / "fam.json", tmp_path / "result.json"
    _write(fpath, {"indices": [1, 2, 3], "members": [member] * 3})
    assert main(["decompose", "--in", str(fpath), *flags, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: ")
    assert not out.exists()


def test_cli_decompose_rejects_non_integral_indices(tmp_path, capsys):
    member = {"grid_s": np.linspace(-1.0, 4.0, 16).tolist(), "values": [0.0] * 16}
    fpath, out = tmp_path / "fam.json", tmp_path / "result.json"
    _write(fpath, {"indices": [8.7, 16, 32], "members": [member] * 3})
    assert main(["decompose", "--in", str(fpath), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "validation error: indices must be integers, got [8.7, 16, 32]"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [cmd, f"--alpha={a}"] for cmd in ("gen-falpha", "gen-bubble", "concentration", "lemma-add1")
    for a in ("nan", "inf", "-inf")] + [["tm", f"--beta={b}"] for b in ("nan", "inf", "-inf")],
    ids=" ".join)
def test_cli_non_finite_parameter_is_validation_failure(tmp_path, capsys, argv):
    fpath, out = tmp_path / "f.json", tmp_path / "out"
    _write(fpath, {"grid_s": np.linspace(-1.0, 8.0, 32).tolist(), "values": [1.0] * 32})
    if argv[0] == "tm":
        argv = argv + ["--in", str(fpath)]
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("validation error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_validation_failures(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["norm", "--in", str(missing), "--which", "L2"]) == EXIT_VALIDATION
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid_s": [0.0, 1.0]}')
    assert main(["norm", "--in", str(bad), "--which", "L2"]) == EXIT_VALIDATION
    assert main(["no-such-command"]) == EXIT_VALIDATION


@pytest.mark.parametrize("budget", ["4096", "0", "abc"])
def test_cli_generators_ignore_the_environment(budget, tmp_path, monkeypatch):
    # artifact bytes are a function of the command line: a grid-density
    # variable in the environment, good value or bad, changes nothing
    commands = (["gen-falpha", "--alpha", "10"], ["gen-bubble", "--alpha", "24"])

    def artifacts(tag):
        paths = [tmp_path / f"{tag}{i}.json" for i in range(len(commands))]
        for argv, path in zip(commands, paths):
            assert main(argv + ["--out", str(path)]) == EXIT_OK
        return [p.read_bytes() for p in paths]

    monkeypatch.delenv("ORLICZ4D_NODE_BUDGET", raising=False)
    unset = artifacts("unset")
    monkeypatch.setenv("ORLICZ4D_NODE_BUDGET", budget)
    assert artifacts("set") == unset


def test_cli_three_node_input_is_validation_failure(tmp_path, capsys):
    # sampled data is integrated and interpolated by the cubic spline only,
    # which needs 4 nodes: the first J of orlicz's and decompose's norm
    # searches reaches it
    f = gridfn.from_radius_samples([0.5, 0.2, 0.05], [1.0, 2.0, 3.0])
    fpath = tmp_path / "tiny.json"
    _write(fpath, ser.logradial_to_dict(f))
    assert main(["orlicz", "--in", str(fpath)]) == EXIT_VALIDATION
    member = {"meta": {"name": "m", "closed_form": None},
              "grid_s": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 2.0]}
    fam = tmp_path / "fam.json"
    _write(fam, {"indices": [1, 2, 3], "members": [member] * 3, "meta": {}})
    assert main(["decompose", "--in", str(fam), "--out",
                 str(tmp_path / "r.json")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["validation error: cubic spline needs at least 4 nodes"] * 2


def test_cli_overflow_prints_one_line(tmp_path):
    # a fresh interpreter that prints every warning every time: numpy's
    # overflow and invalid warnings used to print ahead of the failure line.
    # It also checks the import footprint: neither importing the package nor
    # the norm runs and a gen-falpha, orlicz, concentration pipeline after
    # them load scipy.interpolate or scipy.integrate
    src = str(Path(orlicz4d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    big, alternating = str(tmp_path / "big.json"), str(tmp_path / "alternating.json")
    g = gridfn.uniform_grid(-1.0, 8.0, 64)
    f = gridfn.sample_radial(lambda r: 1e200 * np.exp(-r * r), g)
    _write(big, ser.logradial_to_dict(f))
    # v fits in floating range, its finite differences do not: every norm is
    # a numerical failure, not a complaint about the input
    g = gridfn.uniform_grid(-1.0, 1.0, 64)
    f = gridfn.LogRadialFunction(g, np.where(np.arange(64) % 2 == 0, 1e307, -1e307))
    _write(alternating, ser.logradial_to_dict(f))
    runs = [big, "H2_SUM"] + [a for k in NormKind for a in (alternating, k.name)]
    fpath, opath, cpath = (str(tmp_path / n) for n in ("f.json", "o.json", "c.json"))
    driver = ("import sys, warnings\n"
              "warnings.simplefilter('always')\n"
              "import orlicz4d\n"
              "from orlicz4d.cli import main\n"
              "def loaded():\n"
              "    print(*(m in sys.modules for m in ('scipy.interpolate', 'scipy.integrate')))\n"
              "loaded()\n"
              "for path, k in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    print(main(['norm', '--in', path, '--which', k]), flush=True)\n"
              "    print('--', file=sys.stderr, flush=True)\n"
              f"print(main(['gen-falpha', '--alpha', '20', '--out', {fpath!r}]),\n"
              f"      main(['orlicz', '--in', {fpath!r}, '--out', {opath!r}]),\n"
              f"      main(['concentration', '--alpha', '20', '--out', {cpath!r}]))\n"
              "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", driver, *runs],
                          env=env, capture_output=True, text=True)
    out = proc.stdout.splitlines()
    assert out[0] == out[-1] == "False False"
    assert out[1:-2] == [str(EXIT_NUMERICAL)] * (len(runs) // 2)
    assert out[-2].split() == [str(EXIT_OK)] * 3
    per_run = proc.stderr.split("--\n")
    assert len(per_run) == len(runs) // 2 + 1 and per_run[-1] == ""
    for err in per_run[:-1]:
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


def test_cli_orlicz_halved_rule_overflow_is_flagged(tmp_path):
    # loaded data, no generator: the spline bulges between the two unit
    # nodes at s = 799, 800, so at the norm a midpoint's exponent passes
    # EXP_CAP while no node's does
    s = np.concatenate([np.linspace(-1.0, 798.0, 40), [799.0, 800.0, 801.0, 802.0]])
    v = np.zeros(s.size)
    v[-3] = v[-2] = 1.0
    f = gridfn.LogRadialFunction(gridfn.LogGrid(s), v)
    rep = orlicz_norm_report(f)
    mid = 0.5 * (s[1:] + s[:-1])
    assert np.max(f.spline()(mid) ** 2 / rep.lam ** 2 - 4.0 * mid) > EXP_CAP
    assert rep.halving == math.inf and not rep.open_tail and rep.flagged
    fpath, out = tmp_path / "f.json", tmp_path / "o.json"
    _write(fpath, ser.logradial_to_dict(f))
    assert main(["orlicz", "--in", str(fpath), "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert d["orlicz_norm"] == rep.lam
    assert d["halving_error"] is None and d["open_tail"] is False and d["flagged"] is True


def test_cli_orlicz_stdout_matches_out(tmp_path, capsys):
    fpath, out = tmp_path / "f.json", tmp_path / "o.json"
    assert main(["gen-falpha", "--alpha", "10", "--out", str(fpath)]) == EXIT_OK
    assert main(["orlicz", "--in", str(fpath), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["orlicz", "--in", str(fpath)]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def test_cli_numerical_failure(tmp_path):
    fpath = tmp_path / "f.json"
    main(["gen-falpha", "--alpha", "30", "--out", str(fpath)])
    # beta far beyond the critical growth overflows the integrand
    assert main(["tm", "--in", str(fpath), "--beta", "1e9"]) == EXIT_NUMERICAL


def test_cli_verify_artifact_deterministic(tmp_path):
    p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", "--suite", "falpha", "--seed", "7",
                 "--out", str(p1)]) == EXIT_OK
    assert main(["verify", "--suite", "falpha", "--seed", "7",
                 "--out", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1) as fh:
        d = json.load(fh)
    assert d["passed"] is True
    # every row whose value is an Orlicz norm carries its quadrature estimate
    rows = [r for r in d["reports"][0]["checks"] if r["name"].startswith("orlicz norm")]
    assert len(rows) == 3
    assert all(0.0 <= r["estimate"] <= r["tolerance"] for r in rows)


def test_verify_row_estimate_counts_against_tolerance():
    rep = SuiteReport("demo", 0)
    rep.add("inside", 1.0, 1.5, 0.6, "property", estimate=0.05)
    rep.add("pushed out", 1.0, 1.5, 0.6, "property", estimate=0.2)
    rep.add("no estimate", 1.0, 1.5, 0.6, "property")
    assert [r.passed for r in rep.rows] == [True, False, True]
    assert "est=0.05" in rep.rows[0].line() and "est=" not in rep.rows[2].line()


def test_verify_detection_invariance_row_can_fail(monkeypatch):
    # a detector that is not scale-invariant mismatches on all 20 x 3 pairs;
    # the stub decomposition has no components, so its rows are skipped
    monkeypatch.setattr(verify, "decompose",
                        lambda fam, cfg: SimpleNamespace(A_history=[], components=[]))
    monkeypatch.setattr(verify, "detect_scale", lambda f, A0: A0)
    row = verify.suite_decomposition(7).rows[-1]
    assert row.name == "detection invariance under scaling (20 members x 3 factors)"
    assert row.value == 60 and not row.passed


def test_cli_verify_failing_row_exits_numerical_and_writes_out(tmp_path, monkeypatch, capsys):
    def failing(seed):
        rep = SuiteReport("falpha", seed)
        rep.add("stub row", 1.0, 0.0, 0.5, "property")
        return rep

    monkeypatch.setitem(verify.SUITES, "falpha", failing)
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "falpha", "--seed", "3",
                 "--out", str(out)]) == EXIT_NUMERICAL
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] stub row: value=1 target=0")
    assert lines[1].startswith("suite falpha: FAIL (1 checks, ")
    d = json.loads(out.read_text())
    assert d["passed"] is False and d["seed"] == 3
    assert [r["checks"][0]["name"] for r in d["reports"]] == ["stub row"]


def test_run_suite_order_and_unknown_name(monkeypatch):
    # stubs in the reverse of the shipped order: "all" follows SUITES, not names
    names = list(reversed(verify.SUITES))
    monkeypatch.setattr(verify, "SUITES",
                        {n: (lambda seed, n=n: SuiteReport(n, seed)) for n in names})
    reports = run_suite("all", 5)
    assert [r.suite for r in reports] == names
    assert all(r.seed == 5 and r.elapsed_s >= 0.0 for r in reports)
    assert [r.suite for r in run_suite("bubbles", 5)] == ["bubbles"]
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")
