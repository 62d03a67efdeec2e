"""Command-line interface: verify, search, stability, integrate, ns-converge, ns-run.

All numeric outputs are CSV or JSON. Runs that write files also write a
run manifest (JSON) next to them, recording every flag as typed;
re-running the flags of a manifest reproduces the outputs bit for bit.
Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, navier_stokes
from .integrator import OdeProblem, integrate, make_plan
from .linop import diagonal_operator
from .order_conditions import order_residuals, verified_order
from .search import SearchConfig, multi_start_search, rationalize
from .stability import region_boundary, stability_polynomial
from .tableau import (
    BUILTIN_TABLEAUX,
    Tableau,
    parse_tableau,
    serialize_tableau,
)

USAGE_ERROR = 1
VERIFY_FAILURE = 2


class _UsageError(Exception):
    """Bad input on the command line, reported as one line on stderr (exit 1).

    Every subcommand raises it before it writes any file.
    """


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@dataclass
class _Run:
    """The files one subcommand writes, for main to record in the run manifest."""

    outputs: list = field(default_factory=list)
    seeds: list = field(default_factory=list)

    def write(self, path: Path, data: str | bytes):
        """Write one output file, creating its directory, and record its path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.encode() if isinstance(data, str) else data)
        self.outputs.append(str(path))


def _tableau(name_or_path: str) -> Tableau:
    """Load a tableau from a file path or a builtin name (rk4, rk6, ...)."""
    path = Path(name_or_path)
    try:
        if path.exists():
            return parse_tableau(path.read_text())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"--tableau: {exc}") from None
    if name_or_path in BUILTIN_TABLEAUX:
        return BUILTIN_TABLEAUX[name_or_path]()
    raise _UsageError(f"--tableau: no tableau file {name_or_path!r} and no builtin of "
                      f"that name (builtins: {', '.join(sorted(BUILTIN_TABLEAUX))})")


def _parse_complex(flag: str, text: str) -> complex:
    try:
        re_im = [float(tok) for tok in text.split(",")]
    except ValueError:
        re_im = []
    if len(re_im) not in (1, 2):
        raise _UsageError(f"{flag} expects RE or RE,IM, got {text!r}")
    if not all(map(math.isfinite, re_im)):
        raise _UsageError(f"{flag} must be finite, got {text!r}")
    return complex(*re_im)


def _checked(build, *args):
    """build(*args), its ValueError a usage error; only for builders that check
    their input before any work (make_plan, make_grid, make_problem)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_end_time(t: float):
    if not (math.isfinite(t) and t > 0):
        raise _UsageError(f"--t must be finite and positive, got {t}")


def cmd_verify(args, run: _Run) -> int:
    if not 1 <= args.order <= 10:
        raise _UsageError("--order must be between 1 and 10")
    tab = _tableau(args.tableau)
    conditions = order_residuals(tab, args.order)
    satisfied = 0
    for cond in conditions:
        ok = cond.residual == 0
        satisfied += ok
        print(f"order {cond.tree.order} tree {list(cond.tree.level_sequence())} "
              f"density {cond.density}: residual {cond.residual}")
    total = len(conditions)
    print(f"{satisfied}/{total} conditions satisfied exactly")
    order = verified_order(tab)
    print(f"verified order: {order}")
    return 0 if satisfied == total else VERIFY_FAILURE


def cmd_search(args, run: _Run) -> int:
    if args.seeds < 0:
        raise _UsageError(f"--seeds must be >= 0, got {args.seeds}")
    if args.max_denominator < 1:
        raise _UsageError(f"--max-denominator must be >= 1, got {args.max_denominator}")
    try:
        pattern = None  # SearchConfig's default: 0, dc, 2dc, ...
        if args.c_pattern:
            pattern = tuple(Fraction(tok) for tok in args.c_pattern.split(","))
        cfg = SearchConfig(
            stages=args.stages,
            target_order=args.order,
            delta_c=Fraction(args.dc),
            c_pattern=pattern,
            rng_seed=args.seed,
            max_iters=args.max_iters,
            residual_tol=args.tol,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(str(exc)) from None
    results = multi_start_search(cfg, args.seeds)
    run.seeds = [int(r.rng_seed) for r in results]
    out_stem = Path(args.out)
    summary = []
    n_converged = 0
    for idx, res in enumerate(results):
        entry = {
            "seed_index": idx,
            "rng_seed": res.rng_seed,
            "status": res.status,
            "iterations": len(res.history) - 1,
            "final_residual": res.history[-1],
        }
        if res.status == "converged":
            n_converged += 1
            # Exact dyadic rationals preserve the float values in the text
            # format. Row sums are then snapped to the prescribed abscissae
            # (a change of order residual_tol in one entry per row); SearchConfig
            # checked them with abscissa_grid, so the stored tableau is steppable.
            a_exact = [[Fraction(v) for v in row] for row in res.tableau.a]
            for i in range(1, cfg.stages):
                a_exact[i][i - 1] += cfg.c_pattern[i] - sum(a_exact[i][:i])
            float_tab = Tableau(
                tuple(tuple(row) for row in a_exact),
                tuple(Fraction(v) for v in res.tableau.b),
                name=f"search seed {idx} (float)",
            )
            float_path = out_stem.with_name(f"{out_stem.name}_seed{idx}_float.tab")
            run.write(float_path, serialize_tableau(float_tab))
            entry["float_tableau"] = str(float_path)
            exact = rationalize(res.tableau, args.max_denominator, args.order)
            if exact is not None:
                exact = Tableau(exact.a, exact.b, name=f"search seed {idx} (exact)")
                exact_path = out_stem.with_name(f"{out_stem.name}_seed{idx}_exact.tab")
                run.write(exact_path, serialize_tableau(exact))
                entry["exact_tableau"] = str(exact_path)
        summary.append(entry)
    run.write(out_stem.with_name(f"{out_stem.name}_summary.json"),
              json.dumps({"converged": n_converged, "seeds": summary}, indent=2) + "\n")
    print(f"{n_converged}/{args.seeds} seeds converged")
    return 0


def cmd_stability(args, run: _Run) -> int:
    z2 = _parse_complex("--z2", args.z2)
    if args.samples < 16:
        raise _UsageError(f"--samples must be >= 16, got {args.samples}")
    out = Path(args.out)
    curves = [(args.tableau, out)]
    if args.compare_rk4_rk6:
        curves = [("rk4", out.with_name(f"{out.stem}_rk4{out.suffix}")),
                  ("rk6", out.with_name(f"{out.stem}_rk6{out.suffix}"))]
    curves = [(_tableau(tab_name), path) for tab_name, path in curves]
    for tab, path in curves:
        phi = stability_polynomial(tab)
        boundary = region_boundary(phi, z2, args.samples)
        lines = ["re(z),im(z)"]
        lines += [f"{z.real:.12g},{z.imag:.12g}" for z in boundary.points]
        run.write(path, "\n".join(lines) + "\n")
        if boundary.skipped_angles:
            print(f"{path}: {len(boundary.skipped_angles)} rays had no crossing",
                  file=sys.stderr)
    return 0


def cmd_integrate(args, run: _Run) -> int:
    if args.steps < 1:
        raise _UsageError(f"--steps must be >= 1, got {args.steps}")
    tab = _tableau(args.tableau)
    if args.problem == "scalar":
        lam1 = _parse_complex("--lam1", args.lam1)
        lam2 = _parse_complex("--lam2", args.lam2)
        problem = OdeProblem(g=lambda u: lam1 * u,
                             A=diagonal_operator(np.array([lam2])))
        u0 = np.ones(1, dtype=complex)
    else:
        grid = _checked(navier_stokes.make_grid, args.n)
        problem = _checked(navier_stokes.make_problem, grid, args.nu)
        u0 = navier_stokes.initial_condition(grid)
    plan = _checked(make_plan, problem, tab, args.h)
    final = integrate(plan, u0, args.steps)
    if args.problem == "ns":
        field_phys = navier_stokes.vorticity_field(final)
        norms = {"linf": float(np.max(np.abs(field_phys))),
                 "l2": float(np.sqrt(np.mean(field_phys ** 2)))}
    else:
        norms = {"linf": float(np.max(np.abs(final))),
                 "l2": float(np.linalg.norm(final)),
                 "final_re": float(final[0].real),
                 "final_im": float(final[0].imag)}
    payload = {
        "problem": args.problem,
        "tableau": args.tableau,
        "h": args.h,
        "steps": args.steps,
        "norms": norms,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        run.write(Path(args.out), text)
    else:
        print(text, end="")
    return 0


def cmd_ns_converge(args, run: _Run) -> int:
    try:
        steps = [int(tok) for tok in args.steps.split(",")]
    except ValueError:
        raise _UsageError(f"--steps expects comma-separated integers, got {args.steps!r}") from None
    if steps != sorted(set(steps)):
        raise _UsageError(f"--steps must be strictly increasing, got {args.steps!r}")
    if steps[0] < 1:
        raise _UsageError(f"--steps must be >= 1, got {steps[0]}")
    if args.ref < 4 * steps[-1]:
        raise _UsageError(f"--ref must be >= 4x the largest --steps ({4 * steps[-1]}), got {args.ref}")
    _check_end_time(args.t)
    grid = _checked(navier_stokes.make_grid, args.n)
    _checked(navier_stokes.make_problem, grid, args.nu)  # rejects a bad --nu before any step
    result = navier_stokes.convergence_study(
        grid, args.nu, args.t, steps, reference_steps=args.ref)
    out = Path(args.out)
    lines = ["scheme,m,linf_error"]
    lines += [f"{c.scheme},{c.n_steps},{c.linf_error:.12g}" for c in result.cells]
    run.write(out, "\n".join(lines) + "\n")
    slines = ["scheme,fitted_slope,fit_points"]
    slines += [f"{name},{slope:.6g},{';'.join(map(str, result.fit_points[name]))}"
               for name, slope in result.slopes.items()]
    run.write(out.with_name(f"{out.stem}_slopes{out.suffix}"), "\n".join(slines) + "\n")
    for name, slope in result.slopes.items():
        print(f"{name}: fitted slope {slope:.3f} over m = {result.fit_points[name]}")
    return 0


def _snapshot(field_phys: np.ndarray, t: float) -> bytes:
    """Binary vorticity snapshot: text header (n, time), then row-major float64."""
    header = f"n {field_phys.shape[0]}\ntime {t:.17g}\n".encode()
    return header + np.ascontiguousarray(field_phys, dtype=np.float64).tobytes()


def read_snapshot(path: Path) -> tuple[np.ndarray, float]:
    """Inverse of the snapshot writer of ns-run."""
    raw = path.read_bytes()
    first = raw.index(b"\n")
    second = raw.index(b"\n", first + 1)
    n = int(raw[:first].split()[1])
    t = float(raw[first + 1:second].split()[1])
    data = np.frombuffer(raw[second + 1:], dtype=np.float64)
    return data.reshape(n, n), t


def cmd_ns_run(args, run: _Run) -> int:
    if args.steps < 1:
        raise _UsageError(f"--steps must be >= 1, got {args.steps}")
    if args.every < 0:
        raise _UsageError(f"--every must be >= 0, got {args.every}")
    _check_end_time(args.t)
    tab = _tableau(args.tableau)
    grid = _checked(navier_stokes.make_grid, args.n)
    problem = _checked(navier_stokes.make_problem, grid, args.nu)
    h = args.t / args.steps
    plan = _checked(make_plan, problem, tab, h)
    w_hat = navier_stokes.initial_condition(grid)
    out = Path(args.out)
    chunk = args.every or args.steps
    done = 0
    while args.steps - done > chunk:
        w_hat = integrate(plan, w_hat, chunk)
        done += chunk
        run.write(out.with_name(f"{out.stem}_step{done}{out.suffix}"),
                  _snapshot(navier_stokes.vorticity_field(w_hat), done * h))
    w_hat = integrate(plan, w_hat, args.steps - done)
    run.write(out, _snapshot(navier_stokes.vorticity_field(w_hat), args.t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slrk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slrk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="check order conditions of a tableau exactly")
    p.add_argument("--tableau", required=True, help="tableau file or builtin name")
    p.add_argument("--order", type=int, required=True, help="claimed order")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="Newton search for gridded-abscissa tableaux")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dc", required=True, help="grid spacing as p/q")
    p.add_argument("--seeds", type=int, default=100, help="number of initial guesses")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--c-pattern", default="",
                   help="comma-separated target abscissae (default: 0,dc,2dc,...)")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-denominator", type=int, default=1000)
    p.add_argument("--out", default="search_out", help="output stem")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("stability", help="stability-region boundary to CSV")
    p.add_argument("--tableau", required=True)
    p.add_argument("--z2", default="0,0", help="stiff offset RE,IM")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", default="boundary.csv")
    p.add_argument("--compare-rk4-rk6", action="store_true",
                   help="emit both builtin curves (suffixes _rk4/_rk6)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("integrate", help="fixed-step integration, final norms as JSON")
    p.add_argument("--tableau", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--problem", choices=["scalar", "ns"], default="scalar")
    p.add_argument("--lam1", default="0,1", help="explicit rate RE,IM (scalar problem)")
    p.add_argument("--lam2", default="-10,0", help="stiff rate RE,IM (scalar problem)")
    p.add_argument("--n", type=int, default=64, help="grid size (ns problem)")
    p.add_argument("--nu", type=float, default=1e-2, help="viscosity (ns problem)")
    p.add_argument("--out", default="", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("ns-converge", help="Navier-Stokes convergence study to CSV")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--nu", type=float, default=1e-2)
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--steps", default="32,64,128,256,512,1024",
                   help="comma-separated step counts")
    p.add_argument("--ref", type=int, default=4096, help="reference step count")
    p.add_argument("--out", default="conv.csv")
    p.set_defaults(func=cmd_ns_converge)

    p = sub.add_parser("ns-run", help="integrate the benchmark flow, dump snapshots")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--nu", type=float, default=1e-2)
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--tableau", default="rk6")
    p.add_argument("--every", type=int, default=0,
                   help="also dump every K steps (0: final only)")
    p.add_argument("--out", default="vorticity.bin")
    p.set_defaults(func=cmd_ns_run)

    return parser


_COMPLEX_FLAGS = {"--z2", "--lam1", "--lam2"}


def _merge_complex_values(argv):
    """Join '--z2 -10,0' into '--z2=-10,0' so argparse keeps the value."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _COMPLEX_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_complex_values(list(argv)))
    run = _Run()
    t0 = time.perf_counter()
    try:
        code = args.func(args, run)
    except _UsageError as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if run.outputs:
        out = Path(args.out)
        manifest = {
            "subcommand": args.subcommand,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in ("func", "subcommand")},
            "seeds": run.seeds,
            "version": __version__,
            "outputs": run.outputs,
            "duration_s": time.perf_counter() - t0,
        }
        # search's --out is a stem that may contain dots, like its other outputs' names
        stem = out.name if args.subcommand == "search" else out.stem
        out.with_name(f"{stem}_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
