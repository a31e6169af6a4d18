"""End-to-end tests of the command-line front end.

Every assertion parses the emitted CSV/JSONL rather than library objects, so
these tests pin the external file formats: '#' config echo atop CSV, 17
significant digits, "n/2" half-integers, JSON-array words, and the
documented exit codes (2 invalid parameters, 3 non-convergence).  The
commands run in-process through ``cli.main``; three tests run
``python -m gammakernel`` as a subprocess, one per exit code.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest

from gammakernel import cli


def run_cli(*args):
    """cli.main on the arguments, with its exit code and captured streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "gammakernel", *args],
                          capture_output=True, text=True, timeout=300)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


def config_echo(text):
    for ln in text.splitlines():
        if ln.startswith("# config: "):
            return json.loads(ln[len("# config: "):])
    raise AssertionError("no config echo found")


def printed_certificate(text):
    """The certificate a run printed: the '# certificate:' line after the CSV
    config echo, or the "certificate" key of the JSONL header."""
    lines = text.splitlines()
    if lines[0].startswith("{"):
        return json.loads(lines[0])["certificate"]
    assert lines[2].startswith("# certificate: ")
    return json.loads(lines[2][len("# certificate: "):])


def stderr_error(res):
    return json.loads(res.stderr.strip().splitlines()[-1])["error"]


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_empty_partition():
    res = run_module("weight", "--z", "0.5", "--zp", "0.5", "--xi", "0.3", "--lambda", "")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header == ["kind", "object", "log_weight", "weight"]
    assert float(rows[0]["weight"]) == pytest.approx(0.7 ** 0.25, rel=1e-15)
    assert config_echo(res.stdout)["command"] == "weight"


def test_weight_rerun_is_bit_identical():
    args = ("weight", "--xi", "0.2", "--lambda", "3,1")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_weight_config_equals_partition():
    a = run_cli("weight", "--xi", "0.3", "--lambda", "1")
    b = run_cli("weight", "--xi", "0.3", "--config=-1/2,1/2")
    _, ra = parse_csv(a.stdout)
    _, rb = parse_csv(b.stdout)
    assert ra[0]["weight"] == rb[0]["weight"]


def test_weight_requires_exactly_one_input():
    res = run_cli("weight", "--xi", "0.3", "--lambda", "1", "--config=1/2,-1/2")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "weight_input"


def test_weight_rejects_unbalanced_config():
    res = run_cli("weight", "--xi", "0.3", "--config=1/2")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "config_balanced"


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_integrable_diagonal():
    res = run_cli("kernel", "--method", "integrable", "--z", "0.5", "--zp", "0.5",
                  "--x", "1/2", "--y", "1/2")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert rows[0]["x"] == "1/2" and rows[0]["y"] == "1/2"
    assert float(rows[0]["value"]) == pytest.approx(0.5 - 4 / math.pi**2, rel=1e-12)


def test_kernel_integrable_grid_rows():
    # A non-square --x/--y grid: rows run x-major, and each value is the
    # entry of the same (x, y) cell in the full window grid.
    common = ("kernel", "--method", "integrable", "--z", "0.3", "--zp", "0.7")
    a = run_cli(*common, "--x", "3/2,-1/2", "--y", "1/2,-3/2,3/2")
    b = run_cli(*common, "--window", "2")
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    rows = parse_csv(a.stdout)[1]
    assert [(r["x"], r["y"]) for r in rows] == [
        (x, y) for x in ("3/2", "-1/2") for y in ("1/2", "-3/2", "3/2")]
    window = {(r["x"], r["y"]): r["value"] for r in parse_csv(b.stdout)[1]}
    assert len(window) == 16
    for r in rows:
        assert r["value"] == window[(r["x"], r["y"])]


def test_kernel_integrable_vs_contour():
    point = ("--x", "1/2", "--y", "3/2")
    a = run_cli("kernel", "--method", "integrable", *point)
    b = run_cli("kernel", "--method", "contour-limit", *point)
    va = float(parse_csv(a.stdout)[1][0]["value"])
    vb = float(parse_csv(b.stdout)[1][0]["value"])
    assert va == pytest.approx(vb, abs=1e-8)


def test_kernel_contour_limit_grid_matches_entries():
    # The grid is one call over all pairs, one block per contour variant;
    # each value must match its entry evaluated on its own (reference from
    # the library), in all four sign blocks.
    from gammakernel import HalfInt, Params, underline_limit_contour

    res = run_cli("kernel", "--method", "contour-limit", "--z", "0.3+0.5j", "--zp", "conj",
                  "--x=-3/2,1/2", "--y=-1/2,5/2,7/2")
    assert res.returncode == 0, res.stderr
    rows = parse_csv(res.stdout)[1]
    assert len(rows) == 6
    p = Params(0.3 + 0.5j, 0.3 - 0.5j)
    for r in rows:
        want = underline_limit_contour(HalfInt.parse(r["x"]), HalfInt.parse(r["y"]), p)
        assert float(r["value"]) == pytest.approx(want, abs=1e-10), r


def test_kernel_prelimit_contour_vs_spectral():
    # The spectral route pads its diagonalization until the requested
    # entries stabilize, so no explicit --window is needed for accuracy.
    common = ("--xi", "0.5", "--x", "1/2", "--y", "1/2")
    a = run_cli("kernel", "--method", "contour-prelimit", *common)
    b = run_cli("kernel", "--method", "spectral", *common)
    va = float(parse_csv(a.stdout)[1][0]["value"])
    vb = float(parse_csv(b.stdout)[1][0]["value"])
    assert va == pytest.approx(vb, abs=1e-8)


def test_kernel_prelimit_contour_window_vs_spectral():
    # The spectral method at --window=6 is underline_prelimit_window(6) with
    # the requested residual; the contour route must match it on every row.
    common = ("--xi", "0.9", "--window", "6")
    a = run_cli("kernel", "--method", "contour-prelimit", *common)
    b = run_cli("kernel", "--method", "spectral", "--tol", "1e-12", *common)
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    rows_a, rows_b = parse_csv(a.stdout)[1], parse_csv(b.stdout)[1]
    assert len(rows_a) == len(rows_b) == 144
    for ra, rb in zip(rows_a, rows_b):
        assert (ra["x"], ra["y"]) == (rb["x"], rb["y"])
        assert float(ra["value"]) == pytest.approx(float(rb["value"]), abs=1e-9), ra


def test_kernel_spectral_prints_its_certificate():
    # The padding ladder's meta follows the config echo: a '# certificate:'
    # line in CSV, a "certificate" key in the JSONL header; the closed form
    # prints none.
    from gammakernel import Params, XiParams, underline_prelimit_window

    meta = underline_prelimit_window(4, XiParams(Params(0.5, 0.5), 0.9), tol=1e-9).meta
    common = ("kernel", "--xi", "0.9", "--x", "1/2", "--y", "1/2")
    res = run_cli(*common, "--method", "spectral")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[1].startswith("# config: ") and lines[2].startswith("# certificate: ")
    cert = json.loads(lines[2][len("# certificate: "):])
    assert cert == meta
    assert set(cert) == {"padding", "padding_residual", "positive_eigenvalues", "spectral_gap",
                         "quadrature_nodes", "quadrature_bound"}
    assert parse_csv(res.stdout)[0] == ["x", "y", "value"]
    res = run_cli(*common, "--method", "spectral", "--format", "jsonl")
    assert json.loads(res.stdout.splitlines()[0])["certificate"] == meta
    res = run_cli("kernel", "--x", "1/2", "--method", "integrable")
    assert res.returncode == 0 and "# certificate" not in res.stdout
    res = run_cli("kernel", "--x", "1/2", "--method", "integrable", "--format", "jsonl")
    assert "certificate" not in json.loads(res.stdout.splitlines()[0])


@pytest.mark.parametrize("method, nodes, flags", [
    ("contour-limit", "nodes_per_contour", ()),
    ("contour-prelimit", "nodes_per_circle", ("--xi", "0.9")),
], ids=["contour-limit", "contour-prelimit"])
def test_kernel_contour_prints_its_certificate(method, nodes, flags):
    # Per variant block of the grid: its node count, its largest last
    # increment and, on hairpins, its largest ray-tail bound, as the library
    # reports them.
    from gammakernel import HalfInt, Params, XiParams
    from gammakernel.kernels import _contour_grid

    args = ("kernel", "--method", method, "--x=-3/2,1/2", "--y=-1/2,5/2", *flags)
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[1].startswith("# config: ") and lines[2].startswith("# certificate: ")
    cert = json.loads(lines[2][len("# certificate: "):])
    p = Params(0.5, 0.5)
    grid = _contour_grid(*([float(HalfInt.parse(t)) for t in ts.split(",")]
                           for ts in ("-3/2,1/2", "-1/2,5/2")), XiParams(p, 0.9) if flags else p)
    keys = {nodes, "last_increment"} | (set() if flags else {"tail_bound"})
    assert set(cert) == {"sum", "difference"}
    for mode, block in cert.items():
        sel = grid["variant"] == mode
        assert set(block) == keys
        assert block[nodes] == grid[nodes][sel][0] and len(set(grid[nodes][sel])) == 1
        assert block["last_increment"] == grid["last_increment"][sel].max() < 1e-10
    res = run_cli(*args, "--format", "jsonl")
    assert json.loads(res.stdout.splitlines()[0])["certificate"] == cert


def test_kernel_contour_limit_difference_block_stops_at_256():
    # A near mixed-sign pair of the equal pair: the "difference" block's
    # slope-8 outer rays stabilize at 256 nodes per ray.
    res = run_cli("kernel", "--method=contour-limit", "--x=3/2", "--y=-5/2")
    assert res.returncode == 0, res.stderr
    cert = printed_certificate(res.stdout)
    assert set(cert) == {"difference"} and cert["difference"]["nodes_per_contour"] == 256


def test_kernel_xi_flag_validation():
    res = run_cli("kernel", "--method", "integrable", "--x", "1/2", "--xi", "0.5")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "xi_forbidden"
    res = run_cli("kernel", "--method", "contour-prelimit", "--x", "1/2")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "xi_required"


@pytest.mark.parametrize("method, flags", [
    ("integrable", ("--max-nodes", "16", "--tol", "1e-3")),
    ("spectral", ("--xi", "0.5", "--max-nodes", "16")),
], ids=["integrable", "spectral-max-nodes"])
def test_kernel_rejects_quadrature_flags_it_does_not_read(method, flags):
    res = run_cli("kernel", "--method", method, "--x", "1/2", *flags)
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "quadrature_forbidden"


def test_kernel_starved_quadrature_exits_3():
    res = run_module("kernel", "--method", "contour-limit", "--x", "1/2", "--y", "1/2",
                     "--tol", "1e-15", "--max-nodes", "128")
    assert res.returncode == 3
    err = stderr_error(res)
    assert err["name"].startswith("non_convergence:")
    assert err["exit_code"] == 3


def test_kernel_bad_half_integer():
    for text in ("0.5", "+3/2", "1_1/2"):
        res = run_cli("kernel", "--method", "integrable", "--x", text)
        assert res.returncode == 2, text
        assert stderr_error(res)["name"] == "half_integer_format"


def test_kernel_quadrature_cap_below_two_levels_exits_2():
    res = run_cli("kernel", "--method", "contour-limit", "--x", "1/2", "--max-nodes", "32")
    assert res.returncode == 2
    err = stderr_error(res)
    assert err["name"] == "value"
    assert "max_nodes" in err["message"]


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------

def test_correlate_all_rows_pass():
    res = run_cli("correlate", "--xi", "0.2", "--window", "2", "--order", "2",
                  "--max-size", "12")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert len(rows) == 4 + 6  # four points, six pairs
    assert all(r["passed"] == "true" for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_correlate_prints_the_ladder_certificate(fmt):
    # The pre-limit window's padding-ladder meta follows the config echo.
    from gammakernel import Params, XiParams, underline_prelimit_window

    meta = underline_prelimit_window(2, XiParams(Params(0.5, 0.5), 0.2)).meta
    res = run_cli("correlate", "--xi", "0.2", "--window", "2", "--order", "1",
                  "--max-size", "12", "--format", fmt)
    assert res.returncode == 0, res.stderr
    assert printed_certificate(res.stdout) == meta


def test_correlate_rejects_empty_window():
    res = run_cli("correlate", "--xi", "0.2", "--window", "0")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "value"


# ---------------------------------------------------------------------------
# fredholm
# ---------------------------------------------------------------------------

def test_fredholm_routes_agree():
    res = run_cli("fredholm", "--xi", "0.2", "--f", '{"1/2": -0.5, "-3/2": 0.25}',
                  "--window", "32", "--max-size", "14")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    by_route = {r["route"]: r for r in rows}
    assert set(by_route) == {"sum", "det", "difference"}
    assert float(by_route["difference"]["value"]) <= float(
        by_route["difference"]["error"]
    )
    assert float(by_route["det"]["error"]) == 0.0  # finite support, exact det


def test_fredholm_trailing_zero_keeps_det_exact():
    # A tabulated zero beyond the support changes neither the determinant nor
    # its exactness, and the echo keeps the tabulation as given.
    base = ["fredholm", "--z=0.5", "--zp=0.5", "--xi=0.3", "--window=8"]
    runs = [run_cli(*base, "--f", f) for f in ('{"3/2": 0.5}', '{"3/2": 0.5, "9/2": 0}')]
    assert all(res.returncode == 0 for res in runs), [res.stderr for res in runs]
    plain, padded = ({r["route"]: r for r in parse_csv(res.stdout)[1]} for res in runs)
    assert padded == plain
    assert float(padded["det"]["error"]) == 0.0
    assert config_echo(runs[1].stdout)["f"] == {"3/2": 0.5, "9/2": 0.0}


def test_fredholm_gapped_support_runs_det_to_its_cover():
    # Windows 1, 2, 4 hold only 1/2 of the support {1/2, 41/2} and agree; a
    # chain stopped there reports error 0 at 4.1e-7 from the sum, outside
    # the combined error 1.4e-7.  Run to window 32 the routes agree.
    res = run_cli("fredholm", "--xi=0.6", "--f", '{"1/2": -0.5, "41/2": -0.9}',
                  "--window=64", "--max-size=24")
    assert res.returncode == 0, res.stderr
    by_route = {r["route"]: r for r in parse_csv(res.stdout)[1]}
    assert float(by_route["det"]["error"]) == 0.0
    assert float(by_route["difference"]["value"]) <= float(by_route["difference"]["error"])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_fredholm_prints_the_ladder_certificate_and_window_chain(fmt):
    # The pre-limit window's padding-ladder meta, plus the determinant chain's
    # windows, follows the config echo.
    from gammakernel import (HalfInt, Params, TestFunction, XiParams, expectation_det,
                             j_transform, underline_prelimit_window)

    p = XiParams(Params(0.5, 0.5), 0.2)
    under = underline_prelimit_window(32, p)
    f = TestFunction([(HalfInt.parse("1/2"), -0.5), (HalfInt.parse("-3/2"), 0.25)])
    windows = expectation_det(f, j_transform(under), tol=1e-8, full_output=True).windows
    res = run_cli("fredholm", "--xi", "0.2", "--f", '{"1/2": -0.5, "-3/2": 0.25}',
                  "--window", "32", "--max-size", "14", "--format", fmt)
    assert res.returncode == 0, res.stderr
    cert = printed_certificate(res.stdout)
    assert cert == dict(under.meta, windows=list(windows)) and cert["windows"] == [1, 2]


# ---------------------------------------------------------------------------
# rn
# ---------------------------------------------------------------------------

def test_rn_routes_agree():
    res = run_cli("rn", "--word", "[1,0]", "--config=-1/2,1/2", "--xi", "0.5")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    by_route = {r["route"]: r for r in rows}
    exact = float(by_route["exact"]["value"])
    closed = float(by_route["closed_form"]["value"])
    assert exact == pytest.approx(closed, rel=1e-11)
    assert float(by_route["limit"]["xi"]) == 1.0


def test_rn_limit_add_value():
    res = run_cli("rn", "--word", "[0]", "--config", "", "--z", "0.5", "--zp", "0.5")
    _, rows = parse_csv(res.stdout)
    assert rows == [
        {"route": "limit", "xi": "1", "value": "0.25", "bound": "0"}
    ]


def test_rn_tabulates_out_to_the_farthest_point():
    # 99/2 lies beyond max(2N, 16) for the word's N = 2; the window grows to
    # hold it, so it is evaluated with no radius error and the limit row
    # carries no tail bound.  The echo names no window.
    res = run_cli("rn", "--word=[1]", "--config=-3/2,-1/2,1/2,99/2", "--xi=0.5")
    assert res.returncode == 0, res.stderr
    by_route = {r["route"]: r for r in parse_csv(res.stdout)[1]}
    exact = float(by_route["exact"]["value"])
    assert float(by_route["closed_form"]["value"]) == pytest.approx(exact, rel=1e-11)
    assert float(by_route["limit"]["bound"]) == 0.0
    assert "window" not in config_echo(res.stdout)


def test_rn_bad_word():
    res = run_cli("rn", "--word", "[1, oops]", "--config", "")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "word_format"


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_prelimit_passes():
    res = run_cli("transport", "--word", "[0]", "--f-contains", "1/2",
                  "--xi", "0.2", "--max-size", "12")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert rows[0]["mode"] == "prelimit"
    assert rows[0]["passed"] == "true"


def test_transport_limit_passes():
    res = run_cli("transport", "--word", "[0]", "--f-contains", "1/2",
                  "--window", "64", "--atol", "1e-3")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert rows[0]["mode"] == "limit"
    assert rows[0]["passed"] == "true"
    assert float(rows[0]["difference"]) < 1e-3


def test_transport_limit_prints_its_certificate():
    # The factored kernel's rank and the Richardson residual, as the library
    # reports them; the pre-limit mode prints none.
    from gammakernel import (
        CylinderFunction, HalfInt, Params, j_transform, underline_limit_window,
        verify_limit_transport,
    )

    p = Params(0.5, 0.5)
    rep = verify_limit_transport([0], CylinderFunction.contains(HalfInt(1)), p,
                                 j_transform(underline_limit_window(64, p)), atol=1e-3)
    args = ("transport", "--word", "[0]", "--f-contains", "1/2", "--window", "64", "--atol", "1e-3")
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[1].startswith("# config: ") and lines[2].startswith("# certificate: ")
    cert = json.loads(lines[2][len("# certificate: "):])
    assert cert == {"rank": rep.rank, "residual": rep.residual}
    assert float(parse_csv(res.stdout)[1][0]["rhs"]) == rep.rhs
    res = run_cli(*args, "--format", "jsonl")
    assert json.loads(res.stdout.splitlines()[0])["certificate"] == cert
    res = run_cli("transport", "--word", "[0]", "--f-contains", "1/2", "--xi", "0.2",
                  "--max-size", "12")
    assert res.returncode == 0 and "# certificate" not in res.stdout


def test_transport_limit_window_without_residual_exits_2():
    # The window chain 1, 2, 4 measures no residual.
    res = run_cli("transport", "--word", "[1]", "--f-contains", "1/2", "--window", "4")
    assert res.returncode == 2
    err = stderr_error(res)
    assert err["name"] == "value" and "N >= 5" in err["message"]


def test_transport_needs_exactly_one_f():
    res = run_cli("transport", "--word", "[0]", "--xi", "0.2")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "transport_f"


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_blocknorm_gaps_decrease():
    res = run_cli("converge", "--sweep", "0.9,0.99", "--report", "blocknorms",
                  "--window", "16")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    trace_gaps = [float(r["trace_gap"]) for r in rows]
    hs_gaps = [float(r["hs_gap"]) for r in rows]
    assert trace_gaps[0] > trace_gaps[1] > 0
    assert hs_gaps[0] > hs_gaps[1] > 0


def test_converge_blockcauchy_increments_shrink():
    res = run_cli("converge", "--report", "blockcauchy", "--window", "64")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    incs = [float(r["trace_increment"]) for r in rows[1:]]
    assert incs == sorted(incs, reverse=True)


def test_converge_rejects_xi():
    res = run_cli("converge", "--xi", "0.5")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "xi_forbidden"


def test_converge_blockcauchy_rejects_window_below_first_row():
    res = run_cli("converge", "--report", "blockcauchy", "--window", "8")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "blockcauchy_window"


@pytest.mark.parametrize("report, flags, unread", [
    ("blockcauchy", ("--window", "16", "--tol", "5", "--sweep", "0.5"), "--sweep, --tol"),
    ("blockcauchy", ("--tol", "1e-9"), "--tol"),
    ("expectation", ("--window", "5"), "--window"),
], ids=["blockcauchy-sweep-tol", "blockcauchy-tol", "expectation-window"])
def test_converge_rejects_flags_its_report_does_not_read(report, flags, unread):
    res = run_cli("converge", "--report", report, *flags)
    assert res.returncode == 2
    err = stderr_error(res)
    assert err["name"] == "converge_forbidden"
    assert err["message"] == f"report {report} reads no {unread}"


def test_converge_echo_holds_only_the_options_its_report_reads():
    res = run_cli("converge", "--report", "blockcauchy", "--window", "16")
    assert res.returncode == 0, res.stderr
    config = json.loads(res.stdout.splitlines()[1][len("# config: "):])
    assert config == {"command": "converge", "z": "0.5+0j", "zp": "0.5-0j",
                      "report": "blockcauchy", "window": 16}
    res = run_cli("converge", "--report", "expectation", "--sweep", "0.9")
    assert res.returncode == 0, res.stderr
    config = json.loads(res.stdout.splitlines()[1][len("# config: "):])
    assert config == {"command": "converge", "z": "0.5+0j", "zp": "0.5-0j",
                      "report": "expectation", "sweep": [0.9], "tol": 1e-7}


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_jsonl_deterministic_and_parseable():
    args = ("sample", "--window", "3", "--count", "50", "--seed", "9",
            "--involute", "--format", "jsonl")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    lines = a.stdout.splitlines()
    meta = json.loads(lines[0])
    assert meta["config"]["command"] == "sample"
    assert meta["config"]["seed"] == 9
    assert "workers" not in meta["config"]
    assert len(lines) == 1 + 50
    for ln in lines[1:]:
        pts = json.loads(ln)
        assert all(json.loads(f'"{p}"') and p.endswith("/2") for p in pts)
        assert pts == sorted(pts, key=lambda s: int(s.split("/")[0]))


def test_sample_csv_estimates_match_exact():
    res = run_cli("sample", "--window", "3", "--count", "4000", "--seed", "9",
                  "--involute")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    for r in rows:
        err = abs(float(r["estimate"]) - float(r["exact"]))
        assert err <= 5 * float(r["se"]) + 1e-3


def test_sample_rejects_workers_flag():
    res = run_cli("sample", "--window", "2", "--count", "10", "--workers", "2")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "argv"


def test_sample_output_file(tmp_path):
    out = tmp_path / "batch.jsonl"
    res = run_cli("sample", "--window", "2", "--count", "10", "--seed", "1",
                  "--format", "jsonl", "--output", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    assert len(out.read_text().splitlines()) == 11


# ---------------------------------------------------------------------------
# shared behaviour
# ---------------------------------------------------------------------------

def test_invalid_params_exit_2():
    res = run_module("weight", "--z", "3", "--zp", "3", "--xi", "0.3", "--lambda", "")
    assert res.returncode == 2
    assert stderr_error(res)["name"] == "params_admissible"


@pytest.mark.parametrize("args, name, message", [
    (("converge", "--report", "kernel", "--window", "4", "--sweep", "0.5", "--tol", "-1"),
     "value", "tol must be > 0, got -1.0"),
    (("fredholm", "--xi", "0.5", "--f", '{"1/2": -0.5}', "--tail-c", "0.3", "--det-tol", "0",
      "--window", "8", "--max-size", "4"), "value", "tol must be > 0, got 0.0"),
    (("transport", "--word", "[1,0]", "--f-contains", "1/2", "--atol", "nan"),
     "value", "atol must be >= 0, got nan"),
    (("kernel", "--method", "contour-limit", "--x", "1/2", "--tol", "nan"),
     "value", "tol must be positive"),
], ids=["converge-tol", "fredholm-det-tol", "transport-atol", "contour-tol"])
def test_tolerance_and_radius_out_of_range_exit_2(args, name, message):
    # Each is an invalid argument (exit 2), not a non-convergence (exit 3) nor
    # a report checked against a nan tolerance (exit 0).
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    err = stderr_error(res)
    assert (err["name"], err["message"]) == (name, message)



@pytest.mark.parametrize("rows", [
    [["-1/2", "3/2", 0.1], ["1/2", "-3/2", -2.5e-300], ["5/2", "1/2", float("inf")]],
    [["1/2", 1.0 / 3.0], ["-1/2,1/2", 2.0]],  # a label with a comma is quoted
    [["a", 1, True], ["b", 2, False]],  # int and bool columns
    [["a", 1.5], ["b", 2]],  # a column mixing float and int
    [["z", 0.5 + 0.25j], ["w", 1.0 - 1.0j]],
    [["x"], ["y", 1.0]],  # ragged
    [],
])
def test_csv_rows_match_cell_by_cell_writer(rows):
    # The one-format fast path of the CSV writer must reproduce, byte for
    # byte, what formatting each cell with _fmt through csv.writer gives.
    import io

    from gammakernel.cli import _csv_rows, _fmt

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    assert _csv_rows(rows) == buf.getvalue()
