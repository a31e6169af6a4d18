"""Command-line front end: every computation as a reproducible run.

Each subcommand handler resolves its options and returns them with the
table's header, its rows and the route's accuracy certificate where it
reports one (``kernel``, and ``transport`` in limit mode).  One writer
echoes the options into the output header (a ``#``-prefixed comment block
atop CSV, or the first object of a JSON-lines file), the certificate after
them, and then the rows, whose floating-point cells carry 17 significant
digits, so re-running the echoed configuration reproduces the numeric
columns bit for bit.

Exit codes: 0 success; 2 invalid parameters or arguments; 3 numerical
non-convergence.  Failures print a machine-readable JSON object to stderr
naming the failed precondition.  Half-integers are always written "n/2";
permutation words are JSON arrays.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import chain, combinations

import numpy as np

from . import __version__
from . import kernels as kr
from .fredholm import InverseDecay, TestFunction, ZeroTail, expectation_det, expectation_sum
from .lattice import FiniteConfig, HalfInt, Partition
from .rn import (
    CylinderFunction, rn_compose, rn_exact, rn_limit, verify_limit_transport, verify_transport,
    word_window,
)
from .sampler import point_names, sample_underline_then_involute, sample_window
from .zmeasure import Params, XiParams, correlation_oracle, log_weight_config, log_weight_partition

__all__ = ["CliError", "main"]

_EXIT_INVALID = 2
_EXIT_NONCONVERGED = 3


class CliError(Exception):
    """Invalid arguments or parameters; carries the failing precondition."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2) on its own
        raise CliError("argv", message)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def _csv_rows(rows: list[list]) -> str:
    """The rows as CSV lines: one %-format call when every column is all float
    (_fmt's ".17g") or all str needing no quoting, else _fmt and csv.writer."""
    specs = []
    for col in zip(*rows):
        kinds = set(map(type, col))
        if kinds != {float} and (kinds != {str} or not set(',"\r\n').isdisjoint("".join(col))):
            break
        specs.append("%.17g" if kinds == {float} else "%s")
    else:
        if len({len(row) for row in rows}) == 1:
            return ((",".join(specs) + "\n") * len(rows)) % tuple(chain.from_iterable(rows))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise CliError(flag, f"{flag}: cannot parse {text!r} as a number")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CliError(flag, f"{flag}: value must be finite")
    return value


def _parse_half(text: str):
    try:
        return HalfInt.parse(text)
    except ValueError as e:
        raise CliError("half_integer_format", str(e))


def _parse_half_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_half(part) for part in text.split(","))


def _parse_partition(text: str):
    text = text.strip()
    rows: list[int] = []
    if text:
        try:
            rows = [int(part) for part in text.split(",")]
        except ValueError:
            raise CliError("partition_format", f"cannot parse partition {text!r}")
    try:
        return Partition(rows)
    except ValueError as e:
        raise CliError("partition_rows", str(e))


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise CliError("word_format", f"word must be a JSON array, got {text!r}")
    if not isinstance(raw, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in raw
    ):
        raise CliError("word_format", f"word must be a JSON array of integers, got {text!r}")
    return tuple(raw)


def _parse_sweep(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliError("sweep_format", f"cannot parse sweep {text!r}")
    if not vals or not all(0.0 < v < 1.0 for v in vals):
        raise CliError("sweep_range", "sweep values must lie in (0, 1)")
    return vals


def _build_params(args):
    z = _parse_complex(args.z, "z")
    if args.zp.strip().lower() == "conj":
        zp = z.conjugate()
    else:
        zp = _parse_complex(args.zp, "zp")
    try:
        return Params(z, zp)
    except ValueError as e:
        raise CliError("params_admissible", str(e))


def _xi_value(args, required: bool):
    xi = getattr(args, "xi", None)
    if xi is None:
        if required:
            raise CliError("xi_required", "this computation needs --xi in (0, 1)")
        return None
    if not (0.0 < xi < 1.0):
        raise CliError("xi_range", f"xi must lie in (0, 1), got {xi}")
    return xi


def _xi_params(args):
    return XiParams(_build_params(args), _xi_value(args, required=True))


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

# A handler's run: its echoed options, header (None for bare JSON rows), rows
# and accuracy certificate (None where the route reports none).
_Run = tuple[dict, list[str] | None, list[list], dict | None]


def _write(fh, args, run: _Run) -> None:
    options, header, rows, certificate = run
    echo = {"command": args.command, **options}
    if args.format == "csv":
        fh.write(f"# gammakernel {__version__}\n")
        fh.write(f"# config: {json.dumps(echo, sort_keys=True)}\n")
        if certificate is not None:
            fh.write(f"# certificate: {json.dumps(certificate, sort_keys=True)}\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write(_csv_rows(rows))
    else:
        head = {"gammakernel": __version__, "config": echo}
        if certificate is not None:
            head["certificate"] = certificate
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        # Each row as json.dumps of its dict writes it, the keys encoded once.
        keys = [json.dumps(key) + ": " for key in header or ()]
        for row in rows:
            body = ", ".join(k + _json_value(v) for k, v in zip(keys, row))
            fh.write((json.dumps(row) if header is None else "{" + body + "}") + "\n")


def _json_value(v) -> str:
    if isinstance(v, (float, complex)):
        v = _fmt(v)
    return json.encoder.encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)


def _emit_error(name: str, code: int, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"name": name, "exit_code": code, "message": message}})
        + "\n"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_weight(args) -> _Run:
    p = _xi_params(args)
    if (args.partition is None) == (args.config is None):
        raise CliError("weight_input", "give exactly one of --lambda or --config")
    if args.partition is not None:
        lam = _parse_partition(args.partition)
        label, kind = str(lam) or "(empty)", "partition"
        logw = log_weight_partition(lam, p)
    else:
        config = _balanced_config(args)
        label, kind = ",".join(str(x) for x in config.points) or "(empty)", "config"
        logw = log_weight_config(config, p)
    opts = {"z": _fmt(p.base.z), "zp": _fmt(p.base.z_prime), "xi": args.xi,
            "object": label, "kind": kind}
    return opts, ["kind", "object", "log_weight", "weight"], [[kind, label, logw, math.exp(logw)]], None


_METHODS = ("integrable", "contour-limit", "contour-prelimit", "spectral")
_QUADRATURE_READ = {"integrable": (), "spectral": ("tol",)}  # the contour methods read both


def _kernel_grid(args) -> tuple[tuple, tuple]:
    if args.x is None and args.window is None:
        raise CliError("kernel_grid", "give --x (and optionally --y) or --window")
    if args.x is not None:
        xs = _parse_half_list(args.x)
        ys = _parse_half_list(args.y) if args.y is not None else xs
        if not xs or not ys:
            raise CliError("kernel_grid", "empty point list")
        return xs, ys
    pts = kr.window_points(args.window)
    return pts, pts


def _cmd_kernel(args) -> _Run:
    if args.method not in _METHODS:
        raise CliError("kernel_method", f"--method must be one of {_METHODS}")
    xs, ys = _kernel_grid(args)
    base = _build_params(args)
    needs_xi = args.method in ("contour-prelimit", "spectral")
    xi = _xi_value(args, required=needs_xi)
    if not needs_xi and xi is not None:
        raise CliError("xi_forbidden", f"--xi does not apply to method {args.method}")
    given = {key: getattr(args, key) for key in ("tol", "max_nodes") if getattr(args, key) is not None}
    unread = [f"--{key.replace('_', '-')}" for key in given
              if key not in _QUADRATURE_READ.get(args.method, given)]
    if unread:
        raise CliError("quadrature_forbidden", f"method {args.method} reads no {', '.join(unread)}")

    sx, sy = [str(t) for t in xs], [str(t) for t in ys]  # labels once per point
    xv, yv = (np.array([float(t) for t in ts]) for ts in (xs, ys))
    if args.method == "spectral":
        # The smallest window holding every requested entry (--tol sets its residual).
        N = max(4, args.window or 0,
                max((abs(t.twice) + 1) // 2 for t in (*xs, *ys)))
        wk = kr.underline_prelimit_window(N, XiParams(base, xi), tol=given.get("tol", 1e-9))
        grid, cert = [[wk.entry(x, y) for y in ys] for x in xs], wk.meta
    elif args.method == "integrable":
        grid, cert = kr._limit_closed_form(xv, yv, base).tolist(), None
    else:  # circles for XiParams, hairpins for Params
        out = kr._contour_grid(xv, yv, XiParams(base, xi) if needs_xi else base, **given)
        # Per variant block: its nodes, largest last increment (and hairpin tail bound).
        cert = {mode: {key: arr[sel].max().item() for key, arr in out.items()
                       if key not in ("value", "variant")}
                for mode in ("sum", "difference") if (sel := out["variant"] == mode).any()}
        grid = out["value"].tolist()
    rows = [[a, b, v] for a, row in zip(sx, grid) for b, v in zip(sy, row)]
    opts = {"method": args.method, "z": _fmt(base.z), "zp": _fmt(base.z_prime),
            "xi": xi, "x": sx, "y": sy,
            "tol": args.tol, "max_nodes": args.max_nodes}
    return opts, ["x", "y", "value"], rows, cert


def _cmd_correlate(args) -> _Run:
    p = _xi_params(args)
    if args.order < 1 or args.order > 3:
        raise CliError("correlate_order", "--order must be 1, 2, or 3")
    under = kr.underline_prelimit_window(args.window, p)
    wk = under if args.process == "maya" else kr.j_transform(under)
    rows: list[list] = []
    for size in range(1, args.order + 1):
        for pts in combinations(wk.points, size):
            oracle = correlation_oracle(pts, p, args.max_size, process=args.process)
            minor = wk.minor(pts)
            diff = abs(oracle.value - minor)
            rows.append([
                ";".join(str(t) for t in pts), oracle.value, oracle.tail_mass,
                minor, diff, diff <= oracle.tail_mass + 1e-7,
            ])
    opts = {"z": _fmt(p.base.z), "zp": _fmt(p.base.z_prime), "xi": args.xi,
            "window": args.window, "order": args.order, "max_size": args.max_size,
            "process": args.process}
    return opts, ["points", "oracle", "tail_mass", "minor", "abs_diff", "passed"], rows, under.meta


def _parse_test_function(args):
    try:
        mapping = json.loads(args.f)
    except json.JSONDecodeError:
        raise CliError("f_format", f"--f must be a JSON object, got {args.f!r}")
    if not isinstance(mapping, dict) or not mapping:
        raise CliError("f_format", "--f must be a non-empty JSON object")
    values = {}
    for key, v in mapping.items():
        values[_parse_half(key)] = float(v)
    tail = InverseDecay(args.tail_c) if args.tail_c is not None else None
    try:
        return TestFunction(values.items(), tail), {str(x): v for x, v in values.items()}
    except ValueError as e:
        raise CliError("f_values", str(e))


def _cmd_fredholm(args) -> _Run:
    p = _xi_params(args)
    f, f_echo = _parse_test_function(args)
    s = expectation_sum(f, p, max_size=args.max_size)
    wk = kr.j_transform(kr.underline_prelimit_window(args.window, p))
    d = expectation_det(f, wk, tol=args.det_tol, full_output=True)
    # A zero-tail f runs to its cover, where the determinant is exact.
    det_err = 0.0 if isinstance(f.tail, ZeroTail) else d.increments[-1]
    diff = abs(s.value - d.value)
    combined = s.error + max(args.det_tol, det_err) + 1e-10
    rows = [
        ["sum", s.value, s.error],
        ["det", d.value, det_err],
        ["difference", diff, combined],
    ]
    opts = {"z": _fmt(p.base.z), "zp": _fmt(p.base.z_prime), "xi": args.xi,
            "f": f_echo, "tail_c": args.tail_c,
            "window": args.window, "max_size": args.max_size, "det_tol": args.det_tol}
    return opts, ["route", "value", "error"], rows, dict(wk.meta, windows=list(d.windows))


def _balanced_config(args):
    pts = _parse_half_list(args.config)
    config = FiniteConfig(pts)
    if len(config.positives) != len(config.negatives):
        raise CliError(
            "config_balanced",
            "--config must be balanced (equal counts on both sides of 0)",
        )
    return config


def _cmd_rn(args) -> _Run:
    word = _parse_word(args.word)
    config = _balanced_config(args)
    base = _build_params(args)
    xi = _xi_value(args, required=False)
    # The window holds every point of the config, so every point is evaluated.
    N = max([word_window(word)] + [(abs(x.twice) + 1) // 2 for x in config.points])
    expr = rn_compose(word, config, base, N=N)
    rows: list[list] = []
    if xi is not None:
        rows.append(["exact", xi, rn_exact(word, config, XiParams(base, xi)), 0.0])
        rows.append(["closed_form", xi, expr.evaluate(config, xi=xi), 0.0])
    limit = rn_limit(expr, config)
    rows.append(["limit", 1.0, limit.value, limit.bound])
    opts = {"z": _fmt(base.z), "zp": _fmt(base.z_prime), "xi": xi,
            "word": list(word), "config": [str(x) for x in config.points]}
    return opts, ["route", "xi", "value", "bound"], rows, None


def _cylinder(args):
    if (args.f_contains is None) == (args.f_const is None):
        raise CliError("transport_f", "give exactly one of --f-contains or --f-const")
    if args.f_const is not None:
        return CylinderFunction.constant(args.f_const), f"const:{_fmt(args.f_const)}"
    pts = _parse_half_list(args.f_contains)
    if not pts:
        raise CliError("transport_f", "--f-contains needs at least one point")
    F = CylinderFunction.from_callable(pts, lambda s: float(s.issuperset(pts)))
    return F, "contains:" + ",".join(str(t) for t in pts)


def _cmd_transport(args) -> _Run:
    word = _parse_word(args.word)
    base = _build_params(args)
    F, f_label = _cylinder(args)
    xi = _xi_value(args, required=False)
    header = ["mode", "lhs", "rhs", "difference", "tolerance", "passed"]
    common = {
        "z": _fmt(base.z), "zp": _fmt(base.z_prime), "xi": xi,
        "word": list(word), "F": f_label,
    }
    if xi is not None:
        rep = verify_transport(word, F, XiParams(base, xi), max_size=args.max_size)
        rows = [["prelimit", rep.lhs, rep.rhs, rep.difference, rep.bound, rep.passed]]
        return {**common, "max_size": args.max_size}, header, rows, None
    kernel = kr.j_transform(kr.underline_limit_window(args.window, base))
    rep = verify_limit_transport(word, F, base, kernel, atol=args.atol)
    rows = [["limit", rep.lhs, rep.rhs, rep.difference, rep.tolerance, rep.passed]]
    # The factored kernel's rank and the Richardson residual behind the tolerance.
    opts = {**common, "window": args.window, "atol": args.atol}
    return opts, header, rows, {"rank": rep.rank, "residual": rep.residual}


# The options each converge report reads, and their defaults.
_CONVERGE_READS = {"kernel": ("sweep", "window", "tol"), "blocknorms": ("sweep", "window", "tol"),
                   "blockcauchy": ("window",), "expectation": ("sweep", "tol")}
_CONVERGE_DEFAULTS = {"sweep": (0.9, 0.99, 0.999), "window": 64, "tol": 1e-7}


def _cmd_converge(args) -> _Run:
    base = _build_params(args)
    if args.xi is not None:
        raise CliError("xi_forbidden", "--xi does not apply to converge; give --sweep")
    if args.report not in _CONVERGE_READS:
        raise CliError("converge_report", f"--report must be one of {tuple(_CONVERGE_READS)}")
    unread = [f"--{key}" for key in _CONVERGE_DEFAULTS
              if getattr(args, key) is not None and key not in _CONVERGE_READS[args.report]]
    if unread:
        raise CliError("converge_forbidden", f"report {args.report} reads no {', '.join(unread)}")
    opts = {key: _CONVERGE_DEFAULTS[key] if getattr(args, key) is None else getattr(args, key)
            for key in _CONVERGE_READS[args.report]}
    sweep, N, tol = opts.get("sweep"), opts.get("window"), opts.get("tol")
    if args.report == "blockcauchy" and N < 16:
        raise CliError("blockcauchy_window", f"--window must be >= 16 for blockcauchy, got {N}")
    rows: list[list] = []

    if args.report == "kernel":
        limit = kr.underline_limit_window(N, base)
        header = ["xi", "max_abs_gap"]
        for xi in sweep:
            pre = kr.underline_prelimit_window(N, XiParams(base, xi), tol=tol)
            rows.append([xi, float(abs(pre.values - limit.values).max())])
    elif args.report == "blocknorms":
        bl_limit = kr.weighted_blocks(kr.j_transform(kr.underline_limit_window(N, base)))
        header = ["xi", "trace_pp", "trace_gap", "hs_pm", "hs_gap"]
        for xi in sweep:
            bl = kr.weighted_blocks(
                kr.j_transform(kr.underline_prelimit_window(N, XiParams(base, xi), tol=tol))
            )
            rows.append([
                xi, bl.trace_pp, abs(bl.trace_pp - bl_limit.trace_pp),
                bl.hs_pm, abs(bl.hs_pm - bl_limit.hs_pm),
            ])
    elif args.report == "blockcauchy":
        header = ["N", "trace_pp", "trace_increment", "hs_pm", "hs_increment"]
        prev = None
        n = 16
        while n <= N:
            bl = kr.weighted_blocks(kr.j_transform(kr.underline_limit_window(n, base)))
            prev = prev or bl  # the first row has zero increments
            rows.append([n, bl.trace_pp, abs(bl.trace_pp - prev.trace_pp),
                         bl.hs_pm, abs(bl.hs_pm - prev.hs_pm)])
            prev = bl
            n *= 2
    else:  # expectation
        f = TestFunction.from_callable(lambda t: -0.3 / abs(t), 4)
        kernel_n = max(8, 2 * math.ceil(f.window_radius))
        limit_val = expectation_det(f, kr.j_transform(kr.underline_limit_window(kernel_n, base)))
        header = ["xi", "value", "limit_value", "gap"]
        for xi in sweep:
            wk = kr.j_transform(kr.underline_prelimit_window(kernel_n, XiParams(base, xi), tol=tol))
            v = expectation_det(f, wk)
            rows.append([xi, v, limit_val, abs(v - limit_val)])
    echo = {"z": _fmt(base.z), "zp": _fmt(base.z_prime), "report": args.report, **opts}
    return echo, header, rows, None


def _cmd_sample(args) -> _Run:
    base = _build_params(args)
    xi = _xi_value(args, required=False)
    if xi is None:
        under = kr.underline_limit_window(args.window, base)
    else:
        under = kr.underline_prelimit_window(args.window, XiParams(base, xi))
    sample = sample_underline_then_involute if args.involute else sample_window
    batch = sample(under, args.count, args.seed)
    exact = kr.j_transform(under) if args.involute else under
    opts = {"z": _fmt(base.z), "zp": _fmt(base.z_prime), "xi": xi,
            "window": args.window, "count": args.count, "seed": args.seed,
            "involute": bool(args.involute),
            "kind": batch.kind, "algorithm": batch.algorithm, "rng": batch.rng,
            "max_clamp": batch.max_clamp}
    if args.format == "jsonl":
        # No header: one configuration per line, as the sorted "n/2" strings.
        return opts, None, list(point_names(batch)), None
    rows = [[str(x), est.value, est.se, exact.entry(x, x)] for x, est in batch.diagonal]
    return opts, ["point", "estimate", "se", "exact"], rows, None


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, xi_help: str = "pre-limit parameter in (0, 1)"):
    sub.add_argument("--z", default="0.5", help="parameter z, e.g. 0.5 or 0.3+0.5j")
    sub.add_argument("--zp", default="conj", help="parameter z', a number or 'conj'")
    sub.add_argument("--xi", type=float, default=None, help=xi_help)
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gammakernel", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("weight", help="z-measure weight of a partition or configuration")
    _add_common(w)
    w.add_argument("--lambda", dest="partition", default=None,
                   help="partition rows, e.g. '3,1,1' ('' = empty)")
    w.add_argument("--config", default=None,
                   help="balanced config; use --config='-1/2,1/2' (leading dash)")

    k = subs.add_parser("kernel", help="kernel values by one of four methods")
    _add_common(k)
    k.add_argument("--method", required=True, help="|".join(_METHODS))
    k.add_argument("--x", default=None, help="comma list of 'n/2' points")
    k.add_argument("--y", default=None, help="comma list of 'n/2' points (default: --x)")
    k.add_argument("--window", type=int, default=None, help="use all points of [-N, N]")
    k.add_argument("--tol", type=float, default=None, help="quadrature or window-stabilization tolerance")
    k.add_argument("--max-nodes", type=int, default=None, help="quadrature node cap")

    c = subs.add_parser("correlate", help="enumeration oracle vs kernel minors")
    _add_common(c)
    c.add_argument("--window", type=int, default=4)
    c.add_argument("--order", type=int, default=3, help="largest correlation order")
    c.add_argument("--max-size", type=int, default=18, help="oracle partition cap")
    c.add_argument("--process", choices=("maya", "config"), default="maya")

    f = subs.add_parser("fredholm", help="expectation of Phi_f by both routes")
    _add_common(f)
    f.add_argument("--f", required=True, help='JSON map, e.g. \'{"1/2": -0.5}\'')
    f.add_argument("--tail-c", type=float, default=None,
                   help="inverse-decay constant beyond the tabulated points")
    f.add_argument("--window", type=int, default=64, help="kernel window for the det route")
    f.add_argument("--max-size", type=int, default=16, help="partition cap for the sum route")
    f.add_argument("--det-tol", type=float, default=1e-8)

    r = subs.add_parser("rn", help="permutation density: exact, closed form, limit")
    _add_common(r)
    r.add_argument("--word", required=True, help="JSON array, leftmost factor first")
    r.add_argument("--config", default="",
                   help="balanced config; use --config='-1/2,1/2' (leading dash)")

    t = subs.add_parser("transport", help="transport identity verification report")
    _add_common(t, xi_help="verify the pre-limit measure at this xi (omit for the limit)")
    t.add_argument("--word", required=True, help="JSON array, leftmost factor first")
    t.add_argument("--f-contains", default=None,
                   help="cylinder F = indicator these 'n/2' points are all present")
    t.add_argument("--f-const", type=float, default=None, help="cylinder F = constant")
    t.add_argument("--max-size", type=int, default=16, help="pre-limit partition cap")
    t.add_argument("--window", type=int, default=256, help="limit-kernel window")
    t.add_argument("--atol", type=float, default=1e-5, help="limit agreement floor")

    g = subs.add_parser("converge", help="xi-sweep and window-doubling tables")
    _add_common(g)
    g.add_argument("--sweep", type=_parse_sweep,
                   help="comma list of xi values (default 0.9,0.99,0.999; not blockcauchy)")
    g.add_argument("--report", default="blocknorms",
                   help="kernel | blocknorms | blockcauchy | expectation")
    g.add_argument("--window", type=int, help="window half-width (default 64; not expectation)")
    g.add_argument("--tol", type=float, help="pre-limit window stabilization (default 1e-7)")

    s = subs.add_parser("sample", help="exact determinantal window samples")
    _add_common(s)
    s.add_argument("--window", type=int, default=4)
    s.add_argument("--count", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--involute", action="store_true",
                   help="flip occupancy on the negative half (J-side configs)")
    return parser


_DISPATCH = {
    "weight": _cmd_weight,
    "kernel": _cmd_kernel,
    "correlate": _cmd_correlate,
    "fredholm": _cmd_fredholm,
    "rn": _cmd_rn,
    "transport": _cmd_transport,
    "converge": _cmd_converge,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = _DISPATCH[args.command](args)
        if args.output == "-":
            _write(sys.stdout, args, run)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                _write(fh, args, run)
        return 0
    except CliError as e:
        _emit_error(e.name, _EXIT_INVALID, str(e))
        return _EXIT_INVALID
    except ValueError as e:
        _emit_error("value", _EXIT_INVALID, str(e))
        return _EXIT_INVALID
    except (kr.NonConvergenceError, OverflowError) as e:  # from any module
        _emit_error(f"non_convergence:{getattr(e, 'op', 'overflow')}", _EXIT_NONCONVERGED, str(e))
        return _EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
