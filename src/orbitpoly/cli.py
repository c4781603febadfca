"""Command-line front end: orbits, evaluation, decomposition, polynomial
generation and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  Identical inputs (and seed) produce byte-identical output: terms
are emitted in descending graded-lex order and floats use a fixed format.
"""
from __future__ import annotations

import json
import math
import os

import click
import numpy as np

from . import analysis, chebyshev, exp_ring, lie, orbit_functions, weyl

_FLOAT = "{:.15g}"


def _parse_weight(text: str, rank: int | None) -> tuple[int, ...]:
    try:
        coords = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"weight must be comma-separated integers, got {text!r}")
    try:
        lam = lie.as_weight(coords)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if rank is not None and len(lam) != rank:
        raise click.UsageError(f"weight {text!r} has length {len(lam)}, expected rank {rank}")
    return lam


def _parse_point(text: str, rank: int) -> tuple[float, ...]:
    try:
        point = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"point must be comma-separated reals, got {text!r}")
    if len(point) != rank:
        raise click.UsageError(f"point {text!r} has length {len(point)}, expected {rank}")
    if not all(math.isfinite(p) for p in point):
        raise click.UsageError(f"point coordinates must be finite, got {text!r}")
    return point


def _require_dominant(lam: tuple[int, ...]) -> None:
    if not lie.is_dominant(lam):
        raise click.UsageError(f"weight {lam} is not dominant")


def _unwritable(out: str, exc: OSError) -> click.FileError:
    # A precondition error: exit 2 with one line, not a traceback.
    err = click.FileError(out, exc.strerror or str(exc))
    err.exit_code = 2
    return err


def _check_writable(out: str) -> None:
    """Refuse an --out path that cannot be opened for writing before any
    work is done; a file the check creates is removed again."""
    existed = os.path.lexists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise _unwritable(out, exc)
    if not existed:
        os.remove(out)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _unwritable(out, exc)
        click.echo(f"written to {out}")
    else:
        click.echo(text)


@click.group()
def main() -> None:
    """Weyl-orbit functions of the A-series and their Chebyshev-type polynomials."""


@main.command()
@click.option("-n", "--rank", type=int, default=None, help="Rank (inferred from -l if omitted).")
@click.option("-l", "--lambda", "lam_text", required=True, help="Dominant weight, e.g. 1,0.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--out", type=click.Path(), default=None, help="Write output to a file.")
def orbit(rank, lam_text, as_json, out):
    """Print the signed Weyl orbit of a dominant weight."""
    lam = _parse_weight(lam_text, rank)
    _require_dominant(lam)
    orb = weyl.orbit(lam)
    if as_json:
        payload = {
            "rank": orb.rank,
            "dominant": list(orb.dominant),
            "size": orb.size,
            "stabilizer_order": orb.stabilizer_order,
            "points": [
                {"weight": list(p), "sign": s, "even": e}
                for p, s, e in zip(orb.points, orb.signs, orb.even)
            ],
        }
        _emit(json.dumps(payload), out)
        return
    lines = [
        f"A{orb.rank} orbit of {orb.dominant}: size {orb.size}, "
        f"stabilizer order {orb.stabilizer_order}"
    ]
    for p, s, e in zip(orb.points, orb.signs, orb.even):
        flag = "even" if e else "odd "
        lines.append(f"  {'+' if s > 0 else '-'}  {flag}  {p}")
    _emit("\n".join(lines), out)


@main.command("eval")
@click.option("-n", "--rank", type=int, default=None)
@click.option("-k", "--kind", type=click.Choice(["C", "S", "E"]), required=True)
@click.option("-l", "--lambda", "lam_text", required=True)
@click.option("-x", "--point", "point_text", required=True,
              help="Alpha-basis coordinates, e.g. 0.25,0.5.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(rank, kind, lam_text, point_text, as_json, out):
    """Evaluate an orbit function at a point given in the alpha basis."""
    lam = _parse_weight(lam_text, rank)
    x = _parse_point(point_text, len(lam))
    if kind == "S" and not lie.is_strictly_dominant(lam):
        raise click.UsageError(f"S requires a strictly dominant weight, got {lam}")
    try:
        # Phases that overflow give a non-finite value, which raises below.
        with np.errstate(over="ignore", invalid="ignore"):
            value = getattr(orbit_functions, f"eval_{kind.lower()}")(lam, x)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    re_s = _FLOAT.format(value.real)
    im_s = _FLOAT.format(value.imag)
    if as_json:
        _emit(json.dumps({"kind": kind, "lambda": list(lam),
                          "x": list(x), "re": value.real, "im": value.imag}), out)
    else:
        _emit(f"{kind}_{lam}({x}) = {re_s} {'+' if value.imag >= 0 else '-'} {im_s.lstrip('-')}i", out)


@main.command()
@click.option("-n", "--rank", type=int, default=None)
@click.option("-a", "weight_a", required=True, help="First dominant weight.")
@click.option("-b", "weight_b", required=True, help="Second dominant weight.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def decompose(rank, weight_a, weight_b, as_json, out):
    """Decompose the product of two C-orbit sums into orbit multiplicities."""
    a = _parse_weight(weight_a, rank)
    b = _parse_weight(weight_b, len(a))
    _require_dominant(a)
    _require_dominant(b)
    dec = exp_ring.orbit_product(a, b)
    congruence = (lie.congruence_number(a) + lie.congruence_number(b)) % (len(a) + 1)
    payload = dec.to_json_dict()
    payload["congruence"] = congruence
    if as_json:
        _emit(json.dumps(payload), out)
        return
    lines = [f"C_{a} * C_{b} (congruence class {congruence}):"]
    for w, m in dec.sorted_terms():
        lines.append(f"  {m} * C_{tuple(w)}")
    _emit("\n".join(lines), out)


@main.command()
@click.option("-n", "--rank", type=int, default=None)
@click.option("-l", "--lambda", "lam_text", required=True)
@click.option("-k", "--kind", type=click.Choice(["T", "U", "PC", "PS", "PE"]), default="T",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text",
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Shorthand for --format json.")
@click.option("--out", type=click.Path(), default=None)
def poly(rank, lam_text, kind, fmt, as_json, out):
    """Print a Chebyshev-type polynomial (T/U in X variables, P* Laurent)."""
    lam = _parse_weight(lam_text, rank)
    _require_dominant(lam)
    if as_json:
        fmt = "json"
    try:
        if kind == "T":
            p = chebyshev.poly_t(lam)
        elif kind == "U":
            p = chebyshev.poly_u(lam)
        else:
            p = chebyshev.substitute_p(lam, kind[1])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        _emit(json.dumps(p.to_json_dict(lam, kind)), out)
    elif fmt == "csv":
        n = p.rank
        header = ",".join(f"deg_{j}" for j in range(1, n + 1)) + ",coeff"
        rows = [header]
        for d, c in p.sorted_terms():
            rows.append(",".join(str(v) for v in d) + f",{c}")
        _emit("\n".join(rows), out)
    else:
        _emit(str(p), out)


@main.command()
@click.option("-s", "--suite",
              type=click.Choice(["all", *analysis.SUITES]),
              default="all", show_default=True)
@click.option("-n", "--rank", "rank_bound", type=int, default=None,
              help="Upper rank bound for the randomized suites.")
@click.option("-c", "--coord-bound", type=int, default=None)
@click.option("--seed", type=int, default=analysis.DEFAULT_SEED, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def verify(ctx, suite, rank_bound, coord_bound, seed, as_json, out):
    """Run verification suites; exit 1 if any check fails."""
    if rank_bound is not None and not 1 <= rank_bound <= lie.MAX_RANK:
        raise click.UsageError(f"rank bound must lie in 1..{lie.MAX_RANK}")
    if coord_bound is not None and coord_bound < 1:
        raise click.UsageError("coordinate bound must be >= 1")
    if out:
        _check_writable(out)
    try:
        reports = analysis.run_suite(suite, rank_bound=rank_bound,
                                     coord_bound=coord_bound, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if as_json:
        text = json.dumps([r.as_dict() for r in reports], indent=2)
    else:
        text = "\n".join(r.render_text() for r in reports)
    _emit(text, out)
    if not all(r.passed for r in reports):
        ctx.exit(1)


if __name__ == "__main__":
    main()
