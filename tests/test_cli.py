import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from kinterp import cli
from kinterp.cli import main
from kinterp.config import KINDS, ConfigError, load_config
from kinterp.quadrature import IntegralOverflowError

FULL_CONFIG = textwrap.dedent("""\
    # exercises every scenario kind
    [sv-check tail]
    weight = log(0,-2)
    q = 1
    expect_sv0q = true
    out = sv.csv

    [norm chi]
    profile = min1
    theta = 0
    q = 1
    b = log(0,-2)
    out = norm.csv

    [holmstedt pair]
    case = limiting00
    q0 = 1
    b0 = log(0,-2)
    q1 = 2
    b1 = log(0,-2)
    profile = min1
    grid = 1e-4,1e4,8
    out = pair.csv

    [negative-demo nd]
    theta = 0.5
    q0 = 1
    q1 = 2
    b0 = log(-3,-3)
    b1 = one
    grid = 1e-6,1e6,8
    out = nd.csv

    [reiterate re]
    side = 0
    theta = 0.5
    q = 1
    b = one
    q0 = 1
    b0 = log(-2,-2)
    q1 = 1
    b1 = log(0,-3)
    out = re.csv

    [lk-check lk]
    q = 1
    b = log(-2,0)
    count = 4
    seed = 7
    out = lk.csv

    [hardy-check h1]
    case = HET1
    alpha = 2
    w = expdecay(1)
    phi = const(1)
    samples = 8
    seed = 11
    out = hardy.csv

    [constants a3]
    p = 1
    q = 2
    v = log(0,-2)
    w = log(0,-2)
    which = A3
    expect = 0.61237
    tol = 1e-3
    out = a3.csv
    """)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "suite.cfg"
    path.write_text(FULL_CONFIG)
    return str(path)


def test_load_config_minimal(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("[sv-check a]\nweight = one\nq = 2\n")
    scenarios = load_config(str(path))
    assert len(scenarios) == 1
    assert scenarios[0].kind == "sv-check"


def test_load_config_reports_line_and_column(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("[sv-check a]\nweight = log(0,-2\nq = 1\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.line == 2
    assert exc.value.column == 8


def test_load_config_rejects_unknown_kind(tmp_path):
    path = tmp_path / "kind.cfg"
    path.write_text("[frobnicate a]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_infinite_q_reiteration(tmp_path):
    path = tmp_path / "qinf.cfg"
    path.write_text(textwrap.dedent("""\
        [reiterate bad]
        side = 0
        theta = 0.5
        q = inf
        b = one
        q0 = 1
        b0 = log(-2,-2)
        q1 = 1
        b1 = log(0,-3)
        """))
    with pytest.raises(ConfigError, match="finite q"):
        load_config(str(path))


def test_load_config_rejects_unknown_key(tmp_path):
    # a misspelled max_variation used to be dropped, and the scan passed
    # under the default bound
    path = tmp_path / "typo.cfg"
    path.write_text(textwrap.dedent("""\
        [holmstedt pair]
        case = limiting00
        q0 = 1
        b0 = log(0,-2)
        q1 = 2
        b1 = log(0,-2)
        profile = min1
        max_varation = 1.0
        """))
    with pytest.raises(ConfigError, match="unknown key 'max_varation'") as exc:
        load_config(str(path))
    assert exc.value.line == 8
    assert main(["run", str(path), "--quiet"]) == 2


def test_every_kind_has_a_runner():
    assert set(cli._RUNNERS) == set(KINDS)


def _demo_scenario(tmp_path, b0: str, b1: str):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("[negative-demo d]\ntheta = 0.5\nq0 = 30\nq1 = 7\n"
                   f"b0 = {b0}\nb1 = {b1}\n")
    (scenario,) = load_config(str(cfg))
    return scenario


def test_demo_power_overflow_is_named(tmp_path):
    # the head bound of g^r, r = 30 * 7 / 23, g = log(-2,140) / log(0,0),
    # converges at 0 and integrates (1+x)^1278.3 over [0, ln t] above 1,
    # which exceeds the float range from t = 2.1 on; its power raised a
    # bare OverflowError, whose text was the scenario's whole error summary
    scenario = _demo_scenario(tmp_path, "log(0,0)", "log(-2,140)")
    with pytest.raises(IntegralOverflowError,
                       match=r"\(1\+x\)\^1278\.26\d* dx over \[0\.0, .*\] overflows"):
        cli._RUNNERS[scenario.kind](scenario)


def test_demo_head_divergent_at_zero_is_infinite(tmp_path):
    # g = pow(log(-2.928,-1.963),-71.07) / log(0.00536,1.663) gives g^r the
    # factor (1+x)^1900 toward 0, so every head bound diverges, although
    # its finite part above 1, (1+x)^1258.6, exceeds the float range
    scenario = _demo_scenario(tmp_path, "log(0.00536,1.663)",
                              "pow(log(-2.928,-1.963),-71.07)")
    ok, summary, csv = cli._RUNNERS[scenario.kind](scenario)
    assert summary["verdict"] == "nonexistence confirmed"
    assert all(line.split(",")[1] == "inf"
               for line in csv.splitlines()[1:])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_subcommand_flags_are_the_config_keys(kind, capsys):
    with pytest.raises(SystemExit):
        main([kind, "--help"])
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    keys = KINDS[kind].required + KINDS[kind].optional
    assert flags == {"--" + key.replace("_", "-") for key in keys} \
        | {"--help", "--grid", "--out", "--out-dir", "--seed"}


def test_run_exit_codes(tmp_path, config_file):
    out = tmp_path / "out"
    code = main(["run", config_file, "--out-dir", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(r["status"] == "pass" for r in summary["results"])
    header = (out / "pair.csv").read_text().splitlines()[0]
    assert header == "t,lhs,rhs,ratio"
    nd_header = (out / "nd.csv").read_text().splitlines()[0]
    assert nd_header == "t,head_bound,upper_bound,M"
    nd = [r for r in summary["results"] if r["name"] == "nd"]
    assert nd[0]["summary"]["verdict"] == "nonexistence confirmed"


def test_run_failure_exit_code(tmp_path):
    path = tmp_path / "fail.cfg"
    path.write_text(textwrap.dedent("""\
        [holmstedt gated]
        case = limiting00
        q0 = 1
        b0 = log(0,-2)
        q1 = 2
        b1 = log(0,-1)
        profile = min1
        out = gated.csv
        """))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out-dir", str(out), "--quiet"])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"][0]["status"] == "fail"
    assert "rho_eps" in summary["results"][0]["summary"]["condition"]
    assert not (out / "gated.csv").exists()


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[sv-check a]\nweight = frog(1)\nq = 1\n")
    assert main(["run", str(path), "--quiet"]) == 2


def test_empty_config_passes(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing to do\n")
    assert main(["run", str(path), "--quiet",
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_run_determinism(tmp_path, config_file):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", config_file, "--out-dir", str(out1), "--quiet"]) == 0
    assert main(["run", config_file, "--out-dir", str(out2), "--quiet"]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_subcommand_holmstedt(tmp_path):
    code = main(["holmstedt", "--case", "limiting00", "--profile", "min1",
                 "--b0", "log(0,-2)", "--q0", "1", "--b1", "log(0,-2)",
                 "--q1", "2", "--grid", "1e-3,1e3,8",
                 "--out", "scan.csv", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "scan.csv").exists()


def test_subcommand_negative_demo(tmp_path):
    code = main(["negative-demo", "--theta", "0.5", "--q0", "1", "--q1", "2",
                 "--b0", "log(-3,-3)", "--b1", "one",
                 "--out", "nd.csv", "--out-dir", str(tmp_path)])
    assert code == 0


def test_subcommand_reiterate_with_profiles(tmp_path):
    profiles = tmp_path / "profiles.txt"
    profiles.write_text("min1\npiecewise[(0.5,0.5),(2,1)]\n")
    code = main(["reiterate", "--side", "0", "--theta", "0.5", "--q", "1",
                 "--b", "one", "--q0", "1", "--b0", "log(-2,-2)",
                 "--q1", "1", "--b1", "log(0,-3)",
                 "--profiles", str(profiles),
                 "--out", "re.csv", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "re.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two profiles


def test_subcommand_lk_check(tmp_path):
    code = main(["lk-check", "--q", "1", "--b", "log(-2,0)", "--count", "3",
                 "--seed", "5", "--out", "lk.csv", "--out-dir", str(tmp_path)])
    assert code == 0


def test_subcommand_norm(tmp_path):
    code = main(["norm", "--profile", "min1", "--theta", "0", "--q", "1",
                 "--b", "log(0,-2)", "--out", "norm.csv",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, row = (tmp_path / "norm.csv").read_text().splitlines()
    assert header == "profile,norm" and float(row.split(",")[1]) > 0.0


@pytest.mark.parametrize("expect,code", [("true", 0), ("false", 1),
                                         (" TRUE", 0), ("False", 1)])
def test_subcommand_sv_check(tmp_path, expect, code):
    assert main(["sv-check", "--weight", "log(0,-2)", "--q", "1",
                 "--expect-sv0q", expect, "--out-dir", str(tmp_path)]) == code


@pytest.mark.parametrize("value", ["yes", "ture", "1", ""])
@pytest.mark.parametrize("key", ["expect_sv0q", "expect_sv1q"])
def test_sv_expectation_is_true_or_false(tmp_path, key, value):
    # any text other than true/false used to read as false: "yes" passed
    # silently, "ture" failed the scenario without naming the key
    path = tmp_path / "sv.cfg"
    path.write_text(f"[sv-check a]\nweight = log(0,-2)\nq = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be true or false") as exc:
        load_config(str(path))
    assert exc.value.line == 4
    assert main(["run", str(path), "--quiet"]) == 2
    assert main(["sv-check", "--weight", "log(0,-2)", "--q", "1",
                 f"--{key.replace('_', '-')}={value}",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("expect,code", [("0.61237", 0), ("0.7", 1)])
def test_subcommand_constants(tmp_path, expect, code):
    assert main(["constants", "--p", "1", "--q", "2", "--v", "log(0,-2)",
                 "--w", "log(0,-2)", "--which", "A3", "--expect", expect,
                 "--tol", "1e-3", "--out-dir", str(tmp_path)]) == code


@pytest.mark.parametrize("max_ratio,code", [("10", 0), ("1e-9", 1)])
def test_subcommand_hardy_check(tmp_path, max_ratio, code):
    assert main(["hardy-check", "--case", "HET1", "--alpha", "2",
                 "--w", "expdecay(1)", "--phi", "const(1)", "--samples", "4",
                 "--seed", "11", "--max-ratio", max_ratio,
                 "--out-dir", str(tmp_path)]) == code


def test_subcommand_bad_grid_is_a_config_error(tmp_path):
    assert main(["norm", "--profile", "min1", "--theta", "0", "--q", "1",
                 "--b", "one", "--grid", "1,2", "--out-dir", str(tmp_path)]) == 2


def test_non_finite_grid_is_a_config_error(tmp_path):
    # an infinite t_max used to pass validation and fail the scenario with
    # "cannot convert float infinity to integer" (exit 1)
    path = tmp_path / "grid.cfg"
    path.write_text(textwrap.dedent("""\
        [negative-demo nd]
        theta = 0.5
        q0 = 1
        q1 = 2
        b0 = log(-3,-3)
        b1 = one
        grid = 1e-6,inf,8
        """))
    with pytest.raises(ConfigError, match="t_max < inf") as exc:
        load_config(str(path))
    assert exc.value.line == 7
    assert main(["run", str(path), "--quiet"]) == 2
    assert main(["negative-demo", "--theta", "0.5", "--q0", "1", "--q1", "2",
                 "--b0", "log(-3,-3)", "--b1", "one", "--grid", "1e-6,inf,8",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("profile", [
    "powerlog(nan,0,0)",  # used to fail the scenario (exit 1)
    "powerlog(1.5,0,0)",
    "powerlog(0.5,inf,0)",  # used to pass with norm inf
    "piecewise[(1,nan)]",
    "piecewise[(1,inf)]",
])
def test_bad_profile_literal_is_a_config_error(tmp_path, profile):
    path = tmp_path / "profile.cfg"
    path.write_text(f"[norm bad]\nprofile = {profile}\ntheta = 0.5\n"
                    "q = 1\nb = one\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["run", str(path), "--quiet"]) == 2
    assert main(["norm", "--profile", profile, "--theta", "0.5", "--q", "1",
                 "--b", "one", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("block,line", [
    ("[norm a]\nprofile = powerlog(nan,0,0)\ntheta = 0.5\nq = 1\nb = one\n", 2),
    ("[holmstedt a]\nq0 = 1\nb0 = one\nq1 = 1\nb1 = one\nprofile = min1\n"
     "case = limiting22\n", 7),
    ("[hardy-check a]\ncase = HET1\nalpha = 2\nw = expdecay(x)\n"
     "phi = const(1)\n", 4),
    ("[constants a]\np = 2\nq = 2\nv = one\nw = one\nwhich = A9\n"
     "expect = 1\n", 6),
    # a constructor of several keys reports the block header
    ("[norm a]\nprofile = min1\ntheta = 1.5\nq = 1\nb = one\n", 1),
], ids=["profile", "case", "function", "which", "several-keys"])
def test_build_error_names_the_line_of_its_key(tmp_path, block, line):
    path = tmp_path / "build.cfg"
    path.write_text(block)
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.line == line


_BLOCKS = {
    "hardy-check": {"case": "HET1", "alpha": "2", "w": "expdecay(1)",
                    "phi": "const(1)"},
    "lk-check": {"q": "1", "b": "log(0,-2)"},
    "reiterate": {"side": "0", "theta": "0.5", "q": "1", "b": "one",
                  "q0": "1", "b0": "log(-2,-2)", "q1": "1", "b1": "log(0,-3)"},
}


@pytest.mark.parametrize("kind,key,value", [
    ("hardy-check", "samples", "inf"),
    ("hardy-check", "samples", "-3"),  # used to pass with 0 samples
    ("hardy-check", "samples", "0"),
    ("hardy-check", "samples", "1.5"),
    ("hardy-check", "seed", "inf"),
    ("hardy-check", "seed", "-1"),
    ("lk-check", "count", "0"),
    ("lk-check", "count", "nan"),
    ("reiterate", "side", "0.7"),  # used to run side 0
    ("reiterate", "side", "inf"),
])
def test_bad_integer_is_a_config_error(tmp_path, kind, key, value):
    params = dict(_BLOCKS[kind], **{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join([f"[{kind} bad]"]
                              + [f"{k} = {v}" for k, v in params.items()]))
    with pytest.raises(ConfigError, match=f"{key} must be an integer") as exc:
        load_config(str(path))
    assert exc.value.line == 2 + list(params).index(key)
    assert main(["run", str(path), "--quiet"]) == 2
    flags = [f"--{k}={v}" for k, v in params.items()]
    assert main([kind, *flags, "--out-dir", str(tmp_path)]) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "kinterp.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kinterp" in proc.stdout
