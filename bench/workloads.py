"""The four benchmark workloads.

Each workload stresses one layer of gammakernel and leaves the others idle:

* ``ladder``    -- the padding ladder of ``underline_prelimit_window``;
* ``contour``   -- the O(n^2) coupled trapezoid sums of the contour routes;
* ``sample``    -- the per-sample Schur chain and ``SampleBatch`` reductions;
* ``transport`` -- enumeration, oracles, RN densities and transport checks.

A workload has ``setup(run)``, which builds its fixed parameters and
reference kernels, ``round(run, state, rng)``, which runs one fixed set of
checked ops on inputs drawn from ``rng``, and ``finish(run, state)`` for
checks pooled over the whole run.  Inputs are drawn inside fixed strata, so
every seed yields the same mix of ops.  Every call into the library goes
through ``run.call`` so that traced runs see it as a span.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import gammakernel as gk

EQUAL = (0.5, 0.5)
PRINCIPAL = (0.3 + 0.5j, 0.3 - 0.5j)
DISTINCT = (0.3, 0.7)


def _f_inverse(t: float) -> float:
    return -0.3 / abs(t)


def _stab_tol(xi: float) -> float:
    """The window-stabilisation floor the ``converge`` command uses."""
    return max(1e-7, 2.0 * (1.0 - xi))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

class Ladder:
    """The ``converge`` sweep: pre-limit windows on the padding ladder, their
    J-transform, weighted blocks and a Fredholm expectation, each compared
    with the limit kernel.  One op is one pair's sweep, as one ``converge``
    run.  Inputs are fixed: the cost is a step function of (z, z', xi), so
    seeded inputs would change the number of ladder rungs."""

    name = "ladder"

    def setup(self, run):
        if run.tiny:
            n, tight = 8, (8, 0.9, 1e-6)
            sweeps = dict.fromkeys(("equal", "principal", "distinct"), (0.9, 0.99))
        else:
            n, tight = 64, (8, 0.99, 1e-6)
            sweeps = {"equal": (0.9, 0.99, 0.999), "principal": (0.9, 0.99, 0.999),
                      "distinct": (0.9, 0.99)}
        f = run.call(gk.TestFunction.from_callable, _f_inverse, 4)
        pairs = []
        for label, (z, zp) in (("equal", EQUAL), ("principal", PRINCIPAL),
                               ("distinct", DISTINCT)):
            p = run.call(gk.Params, z, zp)
            pairs.append((label, p, sweeps[label], self._limit_ref(run, p, n, f)))
        tight_ref = self._limit_ref(run, pairs[0][1], tight[0], f)
        run.sizes.update(window=n, sweeps=sweeps, tight_op=tight, f="-0.3/|x| on |x|<=4")
        return {"n": n, "f": f, "pairs": pairs, "tight": tight, "tight_ref": tight_ref}

    @staticmethod
    def _limit_ref(run, p, n, f):
        k = run.call(gk.j_transform, run.call(gk.underline_limit_window, n, p))
        return {
            "blocks": run.call(gk.weighted_blocks, k),
            "expectation": run.call(gk.expectation_det, f, k),
        }

    def round(self, run, state, rng):
        for label, p, sweep, ref in state["pairs"]:
            run.op(f"ladder_sweep_{label}", lambda op: self._sweep(run, op, state, p, sweep, ref))
        n, xi, tol = state["tight"]
        p = state["pairs"][0][1]
        run.op("ladder_tight",
               lambda op: self._rung(run, op, state, p, n, xi, tol, state["tight_ref"]))

    def _sweep(self, run, op, state, p, sweep, ref):
        gaps = [self._rung(run, op, state, p, state["n"], xi, _stab_tol(xi), ref) for xi in sweep]
        for j, what in enumerate(("trace_pp", "hs_pm", "expectation")):
            seq = [g[j] for g in gaps]
            op.holds("xi_gap_monotone", _strictly_decreasing(seq), quantity=what, gaps=seq)

    @staticmethod
    def _rung(run, op, state, p, n, xi, tol, ref):
        """One window on the ladder and its gaps to the limit kernel."""
        xp = run.call(gk.XiParams, p, xi)
        wk = run.call(gk.underline_prelimit_window, n, xp, tol=tol)
        residual = wk.meta["padding_residual"]
        run.count("ladder_padding", wk.meta["padding"])
        run.count("ladder_residual", residual)
        op.within("ladder_residual", residual, tol, xi=xi, padding=wk.meta["padding"])
        k = run.call(gk.j_transform, wk)
        blocks = run.call(gk.weighted_blocks, k)
        if run.traced:
            det = run.call(gk.expectation_det, state["f"], k, full_output=True)
            run.count("det_windows", len(det.windows))
            value = det.value
        else:
            value = run.call(gk.expectation_det, state["f"], k)
        return (
            abs(blocks.trace_pp - ref["blocks"].trace_pp),
            abs(blocks.hs_pm - ref["blocks"].hs_pm),
            abs(value - ref["expectation"]),
        )


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

_MAGNITUDES = range(1, 12, 2)  # twice |x| for |x| <= 11/2


class _Deck:
    """Deals the items in a seeded order and reshuffles when they run out, so
    a run covers a stratum's whole population about evenly."""

    def __init__(self, items, rng):
        self.items, self.rng, self.left = list(items), rng, []

    def deal(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _same_sign(rng, a, b):
    s = rng.choice((1, -1))
    return gk.HalfInt(s * a), gk.HalfInt(s * b)


def _mixed_sign(rng, a, b):
    x, y = gk.HalfInt(a), gk.HalfInt(-b)
    return (x, y) if rng.random() < 0.5 else (y, x)


class Contour:
    """Single kernel entries by the two contour routes, checked against the
    integrable form (limit) and a certified window (pre-limit).  Each stratum
    deals its (|x|, |y|) cells from a seeded deck; the seed also picks signs
    and order."""

    name = "contour"
    XIS = (0.5, 0.9)

    def setup(self, run):
        # (kind, xi or None for the limit route, signs, variant, ops per pair).
        # The counts centre the median op on the ~10 ms limit entries (510
        # nodes): about as many ops are cheaper as are dearer, so the median
        # does not sit on the edge between two latency clusters.
        strata = [
            ("limit_same", None, _same_sign, None, 2),
            ("limit_mixed_sum", None, _mixed_sign, "sum", 1),
            ("limit_mixed_difference", None, _mixed_sign, None, 1),
            ("prelimit_xi0.5_same", 0.5, _same_sign, None, 1),
            ("prelimit_xi0.5_mixed", 0.5, _mixed_sign, None, 1),
            ("prelimit_xi0.9_same", 0.9, _same_sign, None, 1),
            ("prelimit_xi0.9_mixed", 0.9, _mixed_sign, None, 1),
        ]
        pairs = []
        for z, zp in (EQUAL, PRINCIPAL, DISTINCT):
            p = run.call(gk.Params, z, zp)
            windows = {}
            for xi in self.XIS:
                xp = run.call(gk.XiParams, p, xi)
                w = run.call(gk.underline_prelimit_window, 6, xp, tol=1e-9)
                run.count("ladder_padding", w.meta["padding"])
                run.count("ladder_residual", w.meta["padding_residual"])
                windows[xi] = w
            pairs.append((p, windows))
        run.sizes.update(radius="11/2", reference_window=6, reference_tol=1e-9,
                         ops_per_pair_per_round={k: n for k, *_, n in strata})
        # Twelve rounds deal each stratum's 36 cells to the three pairs a
        # whole number of times, so every full run draws the same cells.
        return {"pairs": pairs, "strata": strata, "cycle": 1 if run.tiny else 12}

    def round(self, run, state, rng):
        if "decks" not in state:
            cells = list(itertools.product(_MAGNITUDES, repeat=2))
            state["decks"] = {kind: _Deck(cells, rng) for kind, *_ in state["strata"]}
        for p, windows in state["pairs"]:
            for kind, xi, signs, variant, count in state["strata"]:
                for _ in range(count):
                    x, y = signs(rng, *state["decks"][kind].deal())
                    if xi is None:
                        run.op(kind, lambda op: self._limit(run, op, p, x, y, variant))
                    else:
                        run.op(kind, lambda op: self._prelimit(run, op, p, windows[xi], x, y, xi))

    @staticmethod
    def _limit(run, op, p, x, y, variant):
        kw = {"variant": variant} if variant else {}
        if run.traced:
            value, info = run.call(gk.underline_limit_contour, x, y, p, full_output=True, **kw)
            run.count("contour_limit_nodes", info["nodes_per_contour"])
        else:
            value = run.call(gk.underline_limit_contour, x, y, p, **kw)
        ref = run.call(gk.underline_limit_integrable, x, y, p)
        op.within("limit_vs_integrable", abs(value - ref), 1e-8, x=str(x), y=str(y))

    @staticmethod
    def _prelimit(run, op, p, window, x, y, xi):
        xp = run.call(gk.XiParams, p, xi)
        if run.traced:
            value, info = run.call(gk.underline_prelimit_contour, x, y, xp, full_output=True)
            run.count("contour_prelimit_nodes", info["nodes_per_circle"])
        else:
            value = run.call(gk.underline_prelimit_contour, x, y, xp)
        op.within("prelimit_vs_window", abs(value - run.call(window.entry, x, y)), 1e-6,
                  x=str(x), y=str(y))


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

class Sample:
    """Exact window samples and the SampleBatch estimators.  2N=20 is
    dominated by per-sample Python overhead, 2N=60 by linear algebra, and the
    involution path rewrites every configuration."""

    name = "sample"

    def setup(self, run):
        counts = ({"2n20": 200, "2n60": 50, "involute": 200, "rerun": 50} if run.tiny
                  else {"2n20": 1500, "2n60": 300, "involute": 1500, "rerun": 150})
        equal = run.call(gk.Params, *EQUAL)
        principal = run.call(gk.Params, *PRINCIPAL)
        k20 = run.call(gk.underline_limit_window, 10, equal)
        k60 = run.call(gk.underline_limit_window, 30, principal)
        pre = run.call(gk.underline_prelimit_window, 10, run.call(gk.XiParams, equal, 0.5))
        run.count("ladder_padding", pre.meta["padding"])
        run.count("ladder_residual", pre.meta["padding_residual"])
        exact_inv = run.call(gk.j_transform, pre)
        f = run.call(gk.TestFunction.from_callable, _f_inverse, 4)
        batches = {  # kind -> (sampler, kernel sampled, kernel whose diagonal it matches)
            "2n20": (gk.sample_window, k20, k20),
            "2n60": (gk.sample_window, k60, k60),
            "involute": (gk.sample_underline_then_involute, pre, exact_inv),
        }
        run.sizes.update(samples_per_round=counts, windows={
            "2n20": "limit, equal pair, N=10", "2n60": "limit, principal pair, N=30",
            "involute": "pre-limit, equal pair, xi=0.5, N=10"})
        return {"counts": counts, "batches": batches, "f": f,
                "hits": {k: np.zeros(2 * b[1].N) for k, b in batches.items()},
                "drawn": dict.fromkeys(batches, 0)}

    def round(self, run, state, rng):
        counts = state["counts"]
        for kind, (sampler, kernel, _) in state["batches"].items():
            seed = rng.getrandbits(63)
            batch = run.op(f"sample_{kind}",
                           lambda op: self._draw(run, op, sampler, kernel, counts[kind], seed))
            if batch is None:
                continue
            state["hits"][kind] += [round(est.value * batch.count) for _, est in batch.diagonal]
            state["drawn"][kind] += batch.count
            if kind != "2n60":
                self._estimators(run, state, batch, rng)
        seed = rng.getrandbits(63)
        run.op("sample_rerun", lambda op: self._rerun(run, op, state, seed))

    @staticmethod
    def _draw(run, op, sampler, kernel, count, seed):
        batch = run.call(sampler, kernel, count, seed)
        run.count("max_clamp", batch.max_clamp)
        run.count("samples_drawn", count)
        op.holds("sample_count", batch.count == count and len(batch.configs) == count)
        return batch

    @staticmethod
    def _rerun(run, op, state, seed):
        kernel = state["batches"]["2n20"][1]
        n = state["counts"]["rerun"]
        first = run.call(gk.sample_window, kernel, n, seed)
        again = run.call(gk.sample_window, kernel, n, seed)
        run.count("samples_drawn", 2 * n)
        op.holds("seeded_rerun_identical", first.configs == again.configs)

    def _estimators(self, run, state, batch, rng):
        pts = batch.points
        i, j = rng.sample(range(len(pts) - 1), 2)
        calls = [
            ("rho1", batch.rho1, (pts[i],)),
            ("rho1", batch.rho1, (pts[j],)),
            ("pair_frequency", batch.pair_frequency, (pts[i], pts[i + 1])),
            ("pair_frequency", batch.pair_frequency, (pts[j], pts[j + 1])),
            ("avoidance", batch.avoidance, (rng.sample(pts, 2),)),
            ("phi_mean", batch.phi_mean, (state["f"],)),
            ("balance_frequency", batch.balance_frequency, ()),
        ]
        for name, method, args in calls:
            run.op(f"estimator_{name}", lambda op: self._estimate(run, op, name, method, args))

    @staticmethod
    def _estimate(run, op, name, method, args):
        est = run.call(method, *args)
        ok = math.isfinite(est.value) and math.isfinite(est.se) and est.se >= 0.0
        if name != "phi_mean":  # the others are frequencies
            ok = ok and 0.0 <= est.value <= 1.0
        op.holds("estimator_range", ok, estimator=name, value=est.value, se=est.se)

    def finish(self, run, state):
        run.op("diagonal_3se", lambda op: self._diagonal(op, state))

    @staticmethod
    def _diagonal(op, state):
        """Occupation frequencies pooled over the run, against the exact
        diagonals of all sampled windows: within three standard errors at
        >= 95 % of the points.  The standard error is the binomial one at the
        exact value, which stays defined where a frequency is 0 or 1."""
        within, points = 0, 0
        for kind, (_, _, exact) in state["batches"].items():
            n = max(state["drawn"][kind], 1)
            p = np.diag(exact.values)
            dev = np.abs(state["hits"][kind] / n - p)
            within += int(np.sum(dev <= 3.0 * np.sqrt(p * (1.0 - p) / n)))
            points += len(p)
        need = math.ceil(0.95 * points)
        op.holds("diagonal_3se", within >= need, points_within=within, needed=need)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _partition_count(max_size: int) -> int:
    """Number of partitions of size <= max_size, counted part by part."""
    ways = [1] + [0] * max_size
    for part in range(1, max_size + 1):
        for total in range(part, max_size + 1):
            ways[total] += ways[total - part]
    return sum(ways)


def _balanced_configs(n: int):
    pts = gk.window_points(n)
    neg = [x for x in pts if x.twice < 0]
    pos = [x for x in pts if x.twice > 0]
    out = []
    for k in range(min(len(neg), len(pos)) + 1):
        for a in itertools.combinations(pos, k):
            for b in itertools.combinations(neg, k):
                out.append(gk.FiniteConfig(a + b))
    return out


def _draw_params(rng, series: str):
    if series == "principal":
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.8))
        return z, z.conjugate()
    if series == "equal":
        z = rng.uniform(0.2, 0.8)
        return z, z
    return rng.uniform(0.15, 0.45), rng.uniform(0.55, 0.85)


class Transport:
    """The paper's transport identity, case by case: each case builds fresh
    parameters, a fresh enumeration and a fresh N=256 limit kernel, then
    shares them across many queries."""

    name = "transport"
    SERIES = ("principal", "equal", "distinct")
    # Slots of (words, index of the cylinder function).  The cost of a
    # transport check depends much on its word and F, so each slot deals one
    # word per series from its own deck of three: every round checks the same
    # (word, F) pairs, and the seed picks which case gets which.  The words
    # and functions are those of acceptance criteria 6 and 7.
    TRANSPORT_SLOTS = (
        (((0,), (1,), (-2,)), 0),
        (((0, 1), (1, 0), (-1,)), 0),
        (((-1,), (1, 0), (2, 1, 0)), 1),
        (((2,), (1, -1), (-1, 0, 1)), 2),
        (((0,), (2,), (0, 1)), 1),
    )
    LIMIT_SLOTS = (
        (((0,), (1,), (-1,)), 0),
        (((0,), (1,), (-1,)), 1),
        (((1, 0), (0, 1), (-1, 0)), 0),
    )

    def setup(self, run):
        if run.tiny:
            sizes = {"kernel_n": 64, "max_size": 8, "oracle_subsets": (1, 1, 1),
                     "transport_slots": 1, "rn_words": (2,), "limit_slots": 1}
        else:
            sizes = {"kernel_n": 256, "max_size": 16, "oracle_subsets": (3, 3, 2),
                     "transport_slots": len(self.TRANSPORT_SLOTS), "rn_words": (1, 2, 2, 3),
                     "limit_slots": len(self.LIMIT_SLOTS)}
        h = gk.HalfInt
        cyl = gk.CylinderFunction
        transport_fs = (
            run.call(cyl.contains, h(1)),
            run.call(cyl.from_callable, (h(-1), h(1)),
                     lambda s: 1.0 + 0.5 * len(s) - 2.0 * (h(-1) in s)),
            run.call(cyl.from_callable, (h(-3), h(1), h(5)), lambda s: math.cos(float(len(s)))),
        )
        limit_fs = (
            transport_fs[0],
            run.call(cyl.from_callable, (h(-1), h(1), h(3)),
                     lambda s: 0.5 + 0.25 * len(s) - 1.0 * (h(1) in s)),
        )
        run.sizes.update(sizes, cases_per_round=len(self.SERIES), xi_range=(0.1, 0.4),
                         oracle_window=4, rn_window=3)
        return {
            "sizes": sizes,
            "partitions": _partition_count(sizes["max_size"]),
            "configs": _balanced_configs(3),
            "transport_fs": transport_fs,
            "limit_fs": limit_fs,
        }

    def round(self, run, state, rng):
        for series in self.SERIES:
            self._case(run, state, rng, series)

    def _case(self, run, state, rng, series):
        sz = state["sizes"]
        z, zp = _draw_params(rng, series)
        xi = rng.uniform(0.1, 0.4)
        case = run.op("case_setup", lambda op: self._case_setup(run, op, state, z, zp, xi))
        if case is None:
            return
        p, xp = case["p"], case["xp"]

        pts = case["under"].points
        for process, kernel in (("maya", case["under"]), ("config", case["k"])):
            subsets = [tuple(sorted(rng.sample(pts, size)))
                       for size, count in enumerate(sz["oracle_subsets"], start=1)
                       for _ in range(count)]
            run.op(f"correlate_{process}", lambda op: self._correlate(
                run, op, subsets, xp, sz["max_size"], process, kernel))

        for slot in range(sz["transport_slots"]):
            words, f_index = self.TRANSPORT_SLOTS[slot]
            word = self._deal(state, rng, ("transport", slot), words)
            F = state["transport_fs"][f_index]
            run.op("verify_transport",
                   lambda op: self._transport(run, op, word, F, xp, sz["max_size"]))

        for length in sz["rn_words"]:
            words = itertools.product(range(-2, 3), repeat=length)
            word = self._deal(state, rng, ("rn", length), words)
            run.op("rn_compare", lambda op: self._rn(run, op, word, state["configs"], p, xp))

        for slot in range(sz["limit_slots"]):
            words, f_index = self.LIMIT_SLOTS[slot]
            word = self._deal(state, rng, ("limit", slot), words)
            F = state["limit_fs"][f_index]
            run.op("verify_limit_transport",
                   lambda op: self._limit(run, op, word, F, p, case["limit"]))

    @staticmethod
    def _deal(state, rng, key, words):
        """A word from the seeded deck kept under ``key``."""
        decks = state.setdefault("decks", {})
        if key not in decks:
            decks[key] = _Deck(words, rng)
        return list(decks[key].deal())

    @staticmethod
    def _case_setup(run, op, state, z, zp, xi):
        sz = state["sizes"]
        p = run.call(gk.Params, z, zp)
        xp = run.call(gk.XiParams, p, xi)
        limit = run.call(gk.j_transform, run.call(gk.underline_limit_window, sz["kernel_n"], p))
        items, tail = run.call(gk.enumerate_weights, xp, sz["max_size"])
        run.count("partitions", len(items))
        op.holds("partition_count", len(items) == state["partitions"],
                 got=len(items), expected=state["partitions"])
        op.holds("tail_mass_range", 0.0 <= tail < 1.0, tail=tail)
        under = run.call(gk.underline_prelimit_window, 4, xp)
        run.count("ladder_padding", under.meta["padding"])
        run.count("ladder_residual", under.meta["padding_residual"])
        op.within("ladder_residual", under.meta["padding_residual"], 1e-9)
        k = run.call(gk.j_transform, under)
        return {"p": p, "xp": xp, "limit": limit, "under": under, "k": k}

    @staticmethod
    def _correlate(run, op, subsets, xp, max_size, process, kernel):
        """What the ``correlate`` command does, on the given subsets."""
        for subset in subsets:
            oracle = run.call(gk.correlation_oracle, subset, xp, max_size, process=process)
            diff = abs(oracle.value - run.call(kernel.minor, subset))
            op.within("oracle_vs_minor", diff - oracle.tail_mass, 1e-7,
                      points=[str(t) for t in subset], tail=oracle.tail_mass)

    @staticmethod
    def _transport(run, op, word, F, xp, max_size):
        rep = run.call(gk.verify_transport, word, F, xp, max_size=max_size)
        op.holds("transport_passed", rep.passed, word=word,
                 achieved=rep.difference, tol=rep.bound)

    @staticmethod
    def _rn(run, op, word, configs, p, xp):
        """Closed form against the exact ratio, and the cocycle identity at
        every cut of the word, on every given configuration."""
        for X in configs:
            expr = run.call(gk.rn_compose, word, X, p, N=3)
            closed = run.call(expr.evaluate, X, xp.xi)
            exact = run.call(gk.rn_exact, word, X, xp)
            op.within("rn_closed_vs_exact", abs(closed - exact) / exact, 1e-10,
                      word=word, X=str(X))
            for cut in range(1, len(word)):
                u, v = word[:cut], word[cut:]
                inverse = run.call(run.call(gk.FinitaryPermutation, u).inverse)
                moved = run.call(gk.apply_sigma_modified, inverse, X)
                chained = run.call(gk.rn_exact, v, moved, xp) * run.call(gk.rn_exact, u, X, xp)
                op.within("rn_cocycle", abs(exact - chained) / exact, 1e-10,
                          word=word, X=str(X), cut=cut)

    @staticmethod
    def _limit(run, op, word, F, p, kernel):
        rep = run.call(gk.verify_limit_transport, word, F, p, kernel=kernel)
        run.count("limit_terms", rep.n_terms)
        run.count("limit_residual", rep.residual)
        op.holds("limit_transport_passed", rep.passed, word=word,
                 achieved=rep.difference, tol=rep.tolerance)


WORKLOADS = {w.name: w for w in (Ladder(), Contour(), Sample(), Transport())}
