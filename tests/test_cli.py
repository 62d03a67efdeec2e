"""CLI contract: subcommands, exit codes, manifests, output determinism."""

import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from slrk.cli import main, read_snapshot
from slrk.tableau import rk4_tableau, rk6_tableau, serialize_tableau


@pytest.fixture
def rk6_file(tmp_path):
    path = tmp_path / "rk6.tab"
    path.write_text(serialize_tableau(rk6_tableau()))
    return path


def test_verify_rk6_order6(rk6_file, capsys):
    code = main(["verify", "--tableau", str(rk6_file), "--order", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "37/37 conditions satisfied exactly" in out
    assert "verified order: 6" in out


def test_verify_rk4_order5_fails(tmp_path, capsys):
    path = tmp_path / "rk4.tab"
    path.write_text(serialize_tableau(rk4_tableau()))
    code = main(["verify", "--tableau", str(path), "--order", "5"])
    assert code == 2


def test_verify_accepts_builtin_names(capsys):
    assert main(["verify", "--tableau", "rk4", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "8/8 conditions satisfied exactly" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tableau", "rk4", "--order", "4", "--bogus"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_stability_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "boundary.csv"
    code = main(["stability", "--tableau", "rk4", "--z2", "-10,0",
                 "--samples", "64", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re(z),im(z)"
    assert len(lines) > 32
    manifest = json.loads((tmp_path / "boundary_manifest.json").read_text())
    assert manifest["subcommand"] == "stability"
    assert manifest["parameters"]["samples"] == 64


def test_stability_rerun_is_bit_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["stability", "--tableau", "rk6", "--samples", "32", "--out", str(out1)])
    main(["stability", "--tableau", "rk6", "--samples", "32", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_stability_compare_emits_both_curves(tmp_path):
    out = tmp_path / "fig.csv"
    main(["stability", "--z2", "-10,0", "--samples", "32", "--tableau", "rk4",
          "--compare-rk4-rk6", "--out", str(out)])
    assert (tmp_path / "fig_rk4.csv").exists()
    assert (tmp_path / "fig_rk6.csv").exists()


def test_search_cli_writes_tableaux_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["search", "--stages", "4", "--order", "4", "--dc", "1/2",
                 "--c-pattern", "0,1/2,1/2,1", "--seeds", "6", "--seed", "11",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert len(summary["seeds"]) == 6
    assert summary["converged"] >= 1
    float_tabs = list(tmp_path.glob("run_seed*_float.tab"))
    assert float_tabs
    # float tableaux round-trip through the rational text format and, with
    # row sums snapped to the prescribed grid, step with a linear operator
    from slrk.integrator import OdeProblem, make_plan
    from slrk.linop import diagonal_operator
    from slrk.tableau import parse_tableau
    parsed = parse_tableau(float_tabs[0].read_text())
    assert parsed.s == 4
    problem = OdeProblem(g=lambda u: u, A=diagonal_operator(np.array([-1.0])))
    assert make_plan(problem, parsed, 0.1).shifts == (0, 1, 0, 1, 0)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["seeds"]) == 6


def test_verify_order_out_of_range(capsys):
    assert main(["verify", "--tableau", "rk4", "--order", "11"]) == 1


@pytest.mark.parametrize("bad,message", [
    (["--dc=-1/2"], "delta_c must be > 0"),
    (["--dc", "0"], "delta_c must be > 0"),
    (["--dc", "1/0"], "search: "),
    (["--dc", "1/2", "--max-iters", "-1"], "max_iters must be >= 0"),
    (["--dc", "1/2", "--tol", "0"], "residual_tol must be > 0"),
    # the default pattern 0, 1/2, 1, 3/2 ends past 1, so no root would be steppable
    (["--dc", "1/2", "--stages", "4", "--order", "2"], "final abscissa 3/2 is not a whole number"),
    (["--dc", "1/2", "--seeds", "-1"], "--seeds must be >= 0"),
    (["--dc", "1/2", "--seed", "-1"], "rng_seed must be >= 0"),
    # rejected before the search, which would write a converged seed's tableau first
    (["--dc", "1/2", "--max-denominator", "0"], "--max-denominator must be >= 1"),
])
def test_search_rejects_bad_config_as_usage_error(tmp_path, capsys, bad, message):
    out = tmp_path / "run"
    code = main(["search", "--stages", "3", "--order", "3", "--seeds", "2",
                 "--out", str(out)] + bad)
    assert_usage_error(tmp_path, capsys, code, message)


def test_integrate_scalar_json(capsys):
    code = main(["integrate", "--tableau", "rk6", "--h", "0.5", "--steps", "4",
                 "--problem", "scalar", "--lam1", "0,1", "--lam2", "-3,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    got = complex(payload["norms"]["final_re"], payload["norms"]["final_im"])
    # one rate handled by the polynomial, the stiff one exactly
    from slrk.stability import stability_polynomial
    phi = stability_polynomial(rk6_tableau())
    want = (cmath.exp(-1.5) * phi(0.5j)) ** 4
    assert abs(got - want) <= 1e-12 * abs(want)


def test_integrate_ns_writes_output_file(tmp_path):
    out = tmp_path / "ns.json"
    code = main(["integrate", "--tableau", "rk6", "--problem", "ns", "--n", "32",
                 "--h", "0.01", "--steps", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["norms"]["linf"] > 0
    assert (tmp_path / "ns_manifest.json").exists()


def test_ns_converge_cli(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(["ns-converge", "--n", "32", "--nu", "1e-2", "--t", "0.5",
                 "--steps", "16,32", "--ref", "128", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,m,linf_error"
    assert len(lines) == 5  # two schemes x two step counts
    slopes = (tmp_path / "conv_slopes.csv").read_text().splitlines()
    assert slopes[0] == "scheme,fitted_slope,fit_points"
    assert (tmp_path / "conv_manifest.json").exists()


def test_ns_run_snapshot_round_trip(tmp_path):
    out = tmp_path / "w.bin"
    code = main(["ns-run", "--n", "32", "--t", "0.1", "--steps", "8",
                 "--tableau", "rk4", "--out", str(out)])
    assert code == 0
    field, t = read_snapshot(out)
    assert field.shape == (32, 32)
    assert t == pytest.approx(0.1)
    assert np.isfinite(field).all()
    assert abs(field).max() > 1.0  # the initial waves are O(1..10)


def test_ns_run_snapshots_match_integrate(tmp_path):
    from slrk import navier_stokes as ns
    from slrk.integrator import integrate, make_plan

    out = tmp_path / "w.bin"
    code = main(["ns-run", "--n", "16", "--t", "0.08", "--steps", "8", "--every", "2",
                 "--tableau", "rk4", "--out", str(out)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"w.bin", "w_step2.bin", "w_step4.bin", "w_step6.bin", "w_manifest.json"}
    grid = ns.make_grid(16)
    plan = make_plan(ns.make_problem(grid, 1e-2), rk4_tableau(), 0.08 / 8)
    w0 = ns.initial_condition(grid)
    for k, path in [(2, "w_step2.bin"), (4, "w_step4.bin"), (6, "w_step6.bin"), (8, "w.bin")]:
        field, t = read_snapshot(tmp_path / path)
        assert np.array_equal(field, ns.vorticity_field(integrate(plan, w0, k)))
        assert t == (0.08 if k == 8 else k * (0.08 / 8))


@pytest.mark.parametrize("bad,message", [
    (["--steps", "0"], "--steps must be >= 1"),
    (["--steps", "-3"], "--steps must be >= 1"),
    (["--every", "-1"], "--every must be >= 0"),
])
def test_ns_run_rejects_bad_counts_as_usage_error(tmp_path, capsys, bad, message):
    out = tmp_path / "sub" / "w.bin"
    code = main(["ns-run", "--n", "16", "--t", "0.1", "--tableau", "rk4",
                 "--out", str(out)] + bad)
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def assert_usage_error(tmp_path, capsys, code, message):
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad,message", [
    (["--samples", "8"], "--samples must be >= 16"),
    (["--z2", "abc"], "--z2 expects RE or RE,IM"),
    (["--z2", "nan"], "--z2 must be finite"),
    (["--z2", "inf,0"], "--z2 must be finite"),
])
def test_stability_rejects_bad_input_as_usage_error(tmp_path, capsys, bad, message):
    out = tmp_path / "sub" / "boundary.csv"
    code = main(["stability", "--tableau", "rk4", "--out", str(out)] + bad)
    assert_usage_error(tmp_path, capsys, code, message)


@pytest.mark.parametrize("t", ["0", "-0.5", "nan", "inf"])
def test_ns_run_rejects_bad_end_time_as_usage_error(tmp_path, capsys, t):
    out = tmp_path / "sub" / "w.bin"
    code = main(["ns-run", "--n", "16", "--steps", "4", "--t", t, "--tableau", "rk4",
                 "--out", str(out)])
    assert_usage_error(tmp_path, capsys, code, "--t must be finite and positive")


@pytest.mark.parametrize("args", [
    ["verify", "--order", "4"],
    ["stability"],
    ["integrate", "--h", "0.1", "--steps", "2"],
    ["ns-run", "--n", "16", "--steps", "2"],
], ids=lambda args: args[0])
def test_unknown_tableau_is_usage_error(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # default output files would land here
    code = main(args + ["--tableau", "nosuch"])
    assert_usage_error(tmp_path, capsys, code, "no tableau file 'nosuch'")


@pytest.mark.parametrize("args,message", [
    (["ns-converge", "--steps", "4,x"], "--steps expects comma-separated integers"),
    (["ns-converge", "--steps", "8,4"], "--steps must be strictly increasing"),
    (["ns-converge", "--steps", "0,4", "--ref", "8"], "--steps must be >= 1"),
    (["ns-converge", "--steps", "4,8", "--ref", "16"], "--ref must be >= 4x"),
    (["integrate", "--tableau", "rk4", "--h", "0.1", "--steps", "0"], "--steps must be >= 1"),
    (["integrate", "--tableau", "rk4", "--h", "1", "--steps", "1", "--lam2", "10000,0"],
     "exp(tau*A) overflows"),
    (["integrate", "--tableau", "rk4", "--h", "0.1", "--steps", "1", "--lam1", "nan"],
     "--lam1 must be finite"),
    (["integrate", "--tableau", "rk4", "--h", "0.1", "--steps", "1", "--lam2=-inf,0"],
     "--lam2 must be finite"),
])
def test_bad_counts_and_steps_are_usage_errors(tmp_path, capsys, args, message):
    code = main(args + ["--n", "16", "--out", str(tmp_path / "sub" / "out.csv")])
    assert_usage_error(tmp_path, capsys, code, message)


@pytest.mark.parametrize("args,message", [
    (["ns-run", "--n", "16", "--steps", "2", "--nu", "0"], "nu must be finite and positive"),
    (["ns-run", "--n", "17", "--steps", "2"], "grid size must be a power of two"),
    (["ns-converge", "--n", "17", "--steps", "4", "--ref", "16"],
     "grid size must be a power of two"),
    (["ns-converge", "--n", "16", "--steps", "4", "--ref", "16", "--nu", "nan"],
     "nu must be finite and positive"),
    (["ns-converge", "--n", "16", "--steps", "4", "--ref", "16", "--t", "0"],
     "--t must be finite and positive"),
    (["integrate", "--tableau", "rk4", "--problem", "ns", "--n", "17", "--h", "0.1",
      "--steps", "1"], "grid size must be a power of two"),
    (["integrate", "--tableau", "rk4", "--problem", "ns", "--n", "16", "--nu", "0",
      "--h", "0.1", "--steps", "1"], "nu must be finite and positive"),
])
def test_bad_ns_flags_are_usage_errors(tmp_path, capsys, args, message):
    code = main(args + ["--out", str(tmp_path / "sub" / "out.csv")])
    assert_usage_error(tmp_path, capsys, code, message)


def argv_from_manifest(manifest, out):
    """The command line a manifest records, with --out pointed at `out`."""
    argv = [manifest["subcommand"]]
    for name, value in {**manifest["parameters"], "out": str(out)}.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv.append(f"{flag}={value}")
    return argv


@pytest.mark.parametrize("argv,out_name", [
    (["stability", "--tableau", "rk4", "--z2", "-10,0", "--samples", "32",
      "--compare-rk4-rk6"], "fig.csv"),
    (["search", "--stages", "4", "--order", "4", "--dc", "1/2", "--c-pattern", "0,1/2,1/2,1",
      "--seeds", "4", "--seed", "11"], "run"),
    (["integrate", "--tableau", "rk6", "--problem", "ns", "--n", "16", "--h", "0.01",
      "--steps", "2"], "ns.json"),
    (["ns-converge", "--n", "16", "--t", "0.1", "--steps", "4,8", "--ref", "32"], "conv.csv"),
    (["ns-run", "--n", "16", "--t", "0.05", "--steps", "5", "--every", "2",
      "--tableau", "rk4"], "w.bin"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_manifest_replays_its_run(tmp_path, capsys, argv, out_name):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + ["--out", str(first / out_name)]) == 0
    stem = out_name.split(".")[0]
    manifest_path = first / f"{stem}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    written = [str(p) for p in first.iterdir() if p != manifest_path]
    assert sorted(manifest["outputs"]) == sorted(written)
    assert main(argv_from_manifest(manifest, second / out_name)) == 0
    assert {p.name for p in second.iterdir()} == {p.name for p in first.iterdir()}
    for path in map(Path, manifest["outputs"]):
        replayed = (second / path.name).read_bytes()
        if path.name.endswith("_summary.json"):  # it names the tableau files it wrote
            replayed = replayed.replace(str(second).encode(), str(first).encode())
        assert replayed == path.read_bytes(), path.name


def test_search_manifests_of_dotted_out_names_stay_apart(tmp_path, capsys):
    argv = ["search", "--stages", "4", "--order", "4", "--dc", "1/2",
            "--c-pattern", "0,1/2,1/2,1", "--seeds", "2", "--seed", "11"]
    for version in ("v1", "v2"):
        assert main(argv + ["--out", str(tmp_path / f"s8.{version}")]) == 0
    for version in ("v1", "v2"):
        manifest = json.loads((tmp_path / f"s8.{version}_manifest.json").read_text())
        assert manifest["parameters"]["out"].endswith(f"s8.{version}")
        assert all(Path(p).name.startswith(f"s8.{version}_") for p in manifest["outputs"])
    assert not (tmp_path / "s8_manifest.json").exists()
