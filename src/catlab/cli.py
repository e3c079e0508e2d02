"""Command-line front end.

Subcommands: orbits, propagator-check, husimi, expect, quasimode, sweep,
selftest.  Each parses its arguments, calls the library (the experiments
live in quasimodes) and writes the result.  All I/O goes through files;
every run that writes artifacts also writes a manifest echoing the
resolved configuration and tool version.
Exit codes: 0 ok, 2 configuration error, 3 numeric precondition violation,
4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .classical import DEFAULT_LATTICE_GUARD, enumerate_prime_orbits, validate_cat_map
from .coherent import husimi
from .errors import CatlabError, ConfigError, PreconditionError
from .io import (
    canonical_json,
    load_state,
    load_symbol_json,
    save_husimi_csv,
    save_orbits_json,
    save_state,
)
from .quantize import antiwick_expectation, weyl_quantize
from .quasimodes import (
    husimi_width_sweep,
    propagator_check,
    run_pipeline,
    scmeasure_sweep,
    waw_gap_sweep,
)
from .selftest import selftest


def _parse_matrix(text: str):
    try:
        vals = [int(v) for v in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ConfigError(f"matrix must be four integers: {text!r}") from exc
    if len(vals) != 4:
        raise ConfigError(f"matrix must have four entries, got {len(vals)}")
    return validate_cat_map(*vals)


def _parse_ladder(text: str) -> List[int]:
    try:
        ladder = [int(v) for v in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ConfigError(f"ladder must be comma-separated integers: {text!r}") from exc
    if len(ladder) < 3:
        raise PreconditionError("sweep ladder needs at least 3 points")
    repeated = sorted({v for v in ladder if ladder.count(v) > 1})
    if repeated:
        raise ConfigError(f"sweep ladder repeats the point(s) {repeated}")
    return ladder


def _write_manifest(out: Path, config: Dict) -> None:
    clean = {k: v for k, v in config.items() if not callable(v)}
    doc = {"tool": "catlab", "version": __version__, "resolved_config": clean}
    manifest = out.parent / (out.stem + ".manifest.json")
    manifest.write_text(canonical_json(doc))


def _make_out_dir(args) -> None:
    """Create the parent directory of --out, for every subcommand that has one."""
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the directory of --out {out}: {exc}") from exc


def parse_config_file(path: str) -> Dict:
    """Key = value configuration ('toml-like'): ints, floats, JSON arrays,
    comma lists, and bare strings; '#' starts a comment."""
    cfg: Dict = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for raw in p.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (need key = value): {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            cfg[key] = json.loads(val)
            continue
        except json.JSONDecodeError:
            pass
        if "," in val:
            parts = [s.strip() for s in val.split(",")]
            try:
                cfg[key] = [int(s) for s in parts]
                continue
            except ValueError:
                try:
                    cfg[key] = [float(s) for s in parts]
                    continue
                except ValueError:
                    pass
        cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_orbits(args) -> int:
    cat = _parse_matrix(args.matrix)
    orbits = enumerate_prime_orbits(cat, args.T, lattice_guard=args.guard)
    out = Path(args.out)
    save_orbits_json(out, orbits, cat)
    _write_manifest(out, vars(args))
    print(f"{len(orbits)} prime orbit(s) of length {args.T} -> {out}")
    return 0


def cmd_propagator_check(args) -> int:
    cat = _parse_matrix(args.matrix)
    report = propagator_check(cat, args.N, args.seed, args.states, args.nmax)
    text = canonical_json(report)
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(out, vars(args))
    sys.stdout.write(text)
    return 0


def cmd_husimi(args) -> int:
    cat = _parse_matrix(args.matrix)
    state = load_state(args.state)
    h = husimi(state, cat, args.G)
    out = Path(args.out)
    save_husimi_csv(out, h)
    _write_manifest(out, vars(args))
    print(f"husimi grid {args.G}x{args.G} -> {out} (total mass {h.total():.6f})")
    return 0


def cmd_expect(args) -> int:
    cat = _parse_matrix(args.matrix)
    state = load_state(args.state)
    symbol = load_symbol_json(args.symbol)
    if args.mode == "aw":
        # a Fourier symbol takes the closed form and reads no grid
        hgrid = None if symbol.fn is None else husimi(state, cat, args.G)
        val = antiwick_expectation(state, symbol, cat, hgrid)
    elif args.mode == "w":
        if symbol.fourier is None:
            raise ConfigError(
                "mode 'w' needs a Fourier symbol; sampled symbols only "
                "support mode 'aw'"
            )
        op = weyl_quantize(symbol, state.grid)
        val = state.inner(op(state))
    else:
        raise ConfigError(f"mode must be 'aw' or 'w', got {args.mode!r}")
    report = {
        "mode": args.mode,
        "value": [val.real, val.imag],
        "state": args.state,
        "symbol": args.symbol,
    }
    text = canonical_json(report)
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(out, vars(args))
    sys.stdout.write(text)
    return 0


def cmd_quasimode(args) -> int:
    cfg = parse_config_file(args.config)
    t0 = time.perf_counter()
    exp = run_pipeline(cfg)
    t1 = time.perf_counter()
    out = Path(args.out)
    out.write_text(canonical_json(exp.report))
    _write_manifest(out, exp.config)
    outputs = exp.config["outputs"]
    if "state" in outputs:
        save_state(out.parent / (out.stem + ".state.bin"), exp.psi_n)
    if "husimi" in outputs:
        save_husimi_csv(out.parent / (out.stem + ".husimi.csv"), exp.hgrid)
    if "orbit" in outputs:
        save_orbits_json(out.parent / (out.stem + ".orbit.json"), [exp.orbit], exp.catmap)
    t2 = time.perf_counter()
    # timings are volatile; they live in a sidecar so report bytes stay
    # reproducible for identical config + seed
    stages = dict(exp.timings, artifacts=t2 - t1)
    (out.parent / (out.stem + ".timings.json")).write_text(
        canonical_json({"total_seconds": t2 - t0, "stages": stages})
    )
    print(f"quasimode report -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cat = _parse_matrix(args.matrix)
    ladder = _parse_ladder(args.ladder)
    if args.kind == "waw-gap":
        header, rows, slope = waw_gap_sweep(cat, ladder)
    elif args.kind == "husimi-width":
        header, rows, slope = husimi_width_sweep(cat, args.N, ladder, args.G)
    else:
        header, rows, slope = scmeasure_sweep(cat, ladder, args.T, args.delta)
    out = Path(args.out)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row))
    lines.append(f"slope,{slope:.16e}")
    out.write_text("\n".join(lines) + "\n")
    _write_manifest(out, vars(args))
    print(f"sweep {args.kind} -> {out} (slope {slope:+.4f})")
    return 0


def cmd_selftest(args) -> int:
    report, ok = selftest(seed=args.seed)
    if args.out:
        out = Path(args.out)
        out.write_text(canonical_json(report))
        _write_manifest(out, vars(args))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catlab",
        description="Quantized hyperbolic torus maps: propagators, coherent "
        "states, Husimi analysis, periodic orbits, and orbit quasimodes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="enumerate prime closed orbits")
    p.add_argument("--matrix", required=True, help="A,B,C,D integer entries")
    p.add_argument("--T", type=int, required=True, help="orbit length")
    p.add_argument(
        "--guard", type=int, default=DEFAULT_LATTICE_GUARD, help="lattice guard on l"
    )
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("propagator-check", help="unitarity and Egorov defects")
    p.add_argument("--matrix", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--states", type=int, default=20)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_propagator_check)

    p = sub.add_parser("husimi", help="Husimi grid of a stored state")
    p.add_argument("--state", required=True, help="binary CATSTATE file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--G", type=int, default=256)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_husimi)

    p = sub.add_parser("expect", help="Weyl or anti-Wick expectation value")
    p.add_argument("--state", required=True)
    p.add_argument("--symbol", required=True, help="symbol JSON path")
    p.add_argument("--mode", choices=["aw", "w"], required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument(
        "--G",
        type=int,
        default=256,
        help="Husimi grid side for sampled symbols in mode aw; Fourier "
        "symbols take the closed form and need no grid",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("quasimode", help="build a quasimode and run diagnostics")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(fn=cmd_quasimode)

    p = sub.add_parser("sweep", help="scaling tables over N- or t-ladders")
    p.add_argument("--kind", choices=["waw-gap", "husimi-width", "scmeasure"], required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--ladder", required=True, help="comma-separated ladder points")
    p.add_argument("--N", type=int, default=4096, help="dimension for t-ladders")
    p.add_argument("--T", type=int, default=2, help="orbit length for scmeasure")
    p.add_argument("--delta", type=float, default=0.24)
    p.add_argument(
        "--G",
        type=int,
        default=256,
        help="Husimi grid side; only husimi-width reads it, the other kinds "
        "accept and ignore it",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("selftest", help="run acceptance criteria twice; compare bytes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config-error code
        return int(exc.code or 0)
    try:
        _make_out_dir(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except CatlabError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"error[internal:{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
