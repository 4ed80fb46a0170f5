"""Independent checks of every benchmark job's output.

Each oracle recomputes the job's answer from its spec by a route that does
not call ``lecam``: closed-form binomial sums and a knock-out recursion for
CRR markets, explicit multinomial laws with a log-factorial table and
per-step moment sums for the lattice studies, a lognormal formula for the
limit prices, and enumeration of vertex multisets for price bounds.

Strike sides are decided by counts.  A CRR strike is generated between the
terminal nodes ``k`` and ``k + 1``, so ``1{S_T > K}`` is ``1{k_T > k}``; no
floating-point product decides it.  :func:`routes_disagree` judges the
at-the-node jobs of ``workloads.tie_probe_jobs``, where the answer depends
on a tie rule, only by whether the two pricing routes agree.

Tolerance: a printed value ``x`` matches ``y`` when
``|x - y| <= TOL * max(1, |y|)``.  Outputs carry 12 significant digits, so
``TOL = 1e-9`` leaves room for rounding while a 1e-6 error fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr
from scipy.stats import binom

from workloads import Job

TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""


def _near(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


class _Mismatch:
    """Collects disagreements."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def close(self, label: str, got, want) -> None:
        got = float(got)
        if not _near(got, want):
            self.problems.append(f"{label}: got {got!r}, want {want!r}")

    def require(self, label: str, cond: bool) -> None:
        if not cond:
            self.problems.append(label)

    def verdict(self) -> Verdict:
        if not self.problems:
            return Verdict(True)
        return Verdict(False, "; ".join(self.problems))


def check(job: Job, rc, out: str) -> Verdict:
    """Judge one job from its exit code and standard output."""
    if not isinstance(rc, int):
        return Verdict(False, detail=f"raised {rc}")
    if rc != job.exit_ok:
        return Verdict(False, detail=f"exit {rc}, expected {job.exit_ok}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return Verdict(False, detail=f"output is not JSON: {exc}")
    study_checks = {"converge": _converge, "lan-report": _lan_report}
    if job.check["kind"] in study_checks:
        fn = study_checks[job.check["kind"]]
    elif job.docs["market"]["returns"]["type"] == "crr":
        fn = {"price": _crr_price, "np": _crr_np, "dynamics": _crr_dynamics}[
            job.check["kind"]]
    else:
        fn = {"bounds": _table_bounds, "complete": _table_complete,
              "dynamics": _table_dynamics}[job.check["kind"]]
    m = _Mismatch()
    try:
        fn(job, doc, m)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Verdict(False, detail=f"output malformed: {exc!r}")
    return m.verdict()


def routes_disagree(rc, out: str) -> bool:
    """True unless a ``price`` job exited 0 with equal direct and via-tests
    prices."""
    if rc != 0:
        return True
    try:
        doc = json.loads(out)
        return not _near(float(doc["price_via_tests"]), float(doc["price_direct"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return True


# ---------------------------------------------------------------------------
# CRR markets (tests workload)
# ---------------------------------------------------------------------------

def _terms(kind: str, strike: float):
    """``(coeff, strike, side)`` per term; ``side`` +1 tests ``S > K``."""
    call = (1.0, strike, +1)
    put = (-1.0, -strike, -1)
    return {"call": [call], "put": [put], "digital": [(0.0, -1.0, +1)],
            "straddle": [call, put], "barrier_up_out": [call]}[kind]


def _indicator(ks: np.ndarray, side: int, info: dict) -> np.ndarray:
    """``1{S > K}`` or ``1{S < K}`` at terminal up-counts ``ks``, by counts,
    for a strike between the nodes ``info["k"]`` and ``info["k"] + 1``."""
    above = ks > info["k"]
    return (above if side > 0 else ~above).astype(float)


class _Crr:
    def __init__(self, market: dict) -> None:
        ret = market["returns"]
        self.n = market["N"]
        self.s0 = market["s0"]
        self.u, self.d = ret["u"], ret["d"]
        self.bond = 1.0 + market["bond"]["const"]
        self.q = (self.bond - self.d) / (self.u - self.d)
        self.q1 = self.q * self.u / self.bond
        self.disc = self.bond ** -self.n

    def prices(self, ks: np.ndarray, n: int) -> np.ndarray:
        return self.s0 * self.u ** ks * self.d ** (n - ks)


def _crr_price(job: Job, doc: dict, m: _Mismatch) -> None:
    c = job.check
    mk = _Crr(job.docs["market"])
    info = c["strike"]
    ks = np.arange(mk.n + 1)
    if c["payoff"] == "barrier_up_out":
        base = _knock_out_law(mk, mk.q, c["B"])
        alt = _knock_out_law(mk, mk.q1, c["B"])
    else:
        base = binom.pmf(ks, mk.n, mk.q)
        alt = binom.pmf(ks, mk.n, mk.q1)
    price = 0.0
    powers = []
    for coeff, strike, side in _terms(c["payoff"], info["K"]):
        phi = _indicator(ks, side, info)
        p_alt = float(alt @ phi)
        p_base = float(base @ phi)
        powers.append((coeff, strike, p_alt, p_base))
        price += coeff * mk.s0 * p_alt - mk.disc * strike * p_base
    for label in ("price_direct", "price_via_tests"):
        m.close(label, doc[label], price)
    m.close("diff", doc["diff"], abs(doc["price_direct"] - doc["price_via_tests"]))
    report = doc["report"]
    m.close("discount", report["discount"], mk.disc)
    m.require("one power pair per term", len(report["terms"]) == len(powers))
    for term, (coeff, strike, p_alt, p_base) in zip(report["terms"], powers):
        m.close("coeff", term["coeff"], coeff)
        m.close("strike", term["strike"], strike)
        m.close("power_alt", term["power_alt"], p_alt)
        m.close("power_base", term["power_base"], p_base)


def _knock_out_law(mk: _Crr, up: float, level: float) -> np.ndarray:
    """Mass of paths ending after ``k`` up moves whose prices at every date
    (the start included) stay strictly below ``level``."""
    law = np.zeros(mk.n + 1)
    law[0] = 1.0 if mk.s0 < level else 0.0
    for t in range(1, mk.n + 1):
        nxt = np.zeros(mk.n + 1)
        nxt[1:t + 1] += law[:t] * up
        nxt[:t] += law[:t] * (1.0 - up)
        ks = np.arange(t + 1)
        nxt[:t + 1][mk.prices(ks, t) >= level] = 0.0
        law = nxt
    return law


def _crr_np(job: Job, doc: dict, m: _Mismatch) -> None:
    mk = _Crr(job.docs["market"])
    info = job.check["strike"]
    ks = np.arange(mk.n + 1)
    phi = _indicator(ks, +1, info)
    strike = info["K"]
    price = mk.s0 * float(binom.pmf(ks, mk.n, mk.q1) @ phi) - mk.disc * strike * float(
        binom.pmf(ks, mk.n, mk.q) @ phi)
    cutoff = strike * mk.disc / mk.s0
    m.close("cutoff", doc["cutoff"], cutoff)
    m.close("lambda0", doc["lambda0"], cutoff / (1.0 + cutoff))
    m.close("lambda1", doc["lambda1"], 1.0 / (1.0 + cutoff))
    m.close("price", doc["price"], price)
    scale = mk.s0 + strike * mk.disc
    m.close("bayes_risk (identity on printed values)", doc["bayes_risk"],
            (mk.s0 - doc["price"]) / scale)
    m.close("bayes_risk", doc["bayes_risk"], (mk.s0 - price) / scale)


def _crr_dynamics(job: Job, doc: dict, m: _Mismatch) -> None:
    c = job.check
    mk = _Crr(job.docs["market"])
    info = c["strike"]
    t = len(c["moves"])
    ups = c["moves"].count("u")
    rest = mk.n - t
    js = np.arange(rest + 1)
    ks = ups + js
    pmf = binom.pmf(js, rest, mk.q)
    s_t = mk.prices(ks, mk.n)
    value = np.zeros(rest + 1)
    for coeff, strike, side in _terms(c["payoff"], info["K"]):
        value += (coeff * s_t - strike) * _indicator(ks, side, info)
    disc = mk.bond ** -rest
    price = disc * float(pmf @ value)
    m.require("t", doc["t"] == t)
    m.require("moves", doc["moves"] == [0 if x == "u" else 1 for x in c["moves"]])
    m.close("price", doc["price"], price)


# ---------------------------------------------------------------------------
# lattice studies (limit workload)
# ---------------------------------------------------------------------------

class _Study:
    """The discretized model of a study spec, rebuilt from its definition."""

    def __init__(self, doc: dict) -> None:
        tan = doc["tangent"]
        if tan["type"] == "crr":
            a, b = tan["a"], tan["b"]
            self.p = np.array([b / (a + b), a / (a + b)])
            self.g = np.array([math.sqrt(a / b), -math.sqrt(b / a)])
        else:
            pa, pb, pc = tan["probs"]
            x = 1.0 / math.sqrt(pa + pc + (pc - pa) ** 2 / pb)
            self.p = np.array([pa, pb, pc])
            self.g = np.array([x, x * (pc - pa) / pb, -x])
        bs = doc["bs"]
        self.s0 = bs["s0"]
        self.horizon = bs["T"]
        self.sigma = self._pieces(bs["sigma"])
        self.rate = self._pieces(bs["rate"])
        self.payoff = doc["payoff"]

    def _pieces(self, spec: dict) -> list[tuple[float, float]]:
        if "const" in spec:
            return [(self.horizon, spec["const"])]
        return [(float(e), float(v)) for e, v in spec["pieces"]]

    @staticmethod
    def value_at(pieces, t: float) -> float:
        for end, v in pieces:
            if t <= end:
                return v
        return pieces[-1][1]

    @staticmethod
    def integral(pieces, upto: float, power: int = 1) -> float:
        total, prev = 0.0, 0.0
        for end, v in pieces:
            if upto <= prev:
                break
            total += v ** power * (min(end, upto) - prev)
            prev = end
        return total

    def classes(self, n_total: int, n: int):
        """``(sigma, rho, vol, rate, count)`` per class of identical steps
        among the first ``n`` steps of the ``n_total``-step grid."""
        dt = self.horizon / n_total
        counts: dict[tuple[float, float], int] = {}
        for j in range(n):
            mid = (j + 0.5) * dt
            sig = self.value_at(self.sigma, mid)
            rho = (math.exp(self.value_at(self.rate, mid) * dt) - 1.0) / dt
            counts[(sig, rho)] = counts.get((sig, rho), 0) + 1
        return [(sig, rho, sig * math.sqrt(dt), rho * dt, count)
                for (sig, rho), count in counts.items()]

    def measure(self, vol: float, rate: float) -> np.ndarray:
        return self.p * (1.0 + rate / vol * self.g)

    def moment_sums(self, classes, under_q: bool, stat):
        """Mean and variance of an additive statistic, summed per step."""
        mean = var = 0.0
        for _, _, vol, rate, count in classes:
            w = self.measure(vol, rate) if under_q else self.p
            x = stat(vol)
            mu = float(w @ x)
            mean += count * mu
            var += count * float(w @ (x - mu) ** 2)
        return mean, var

    def lattice_price(self, n: int) -> float:
        """Exact price on the ``n``-step lattice: each class of identical
        steps has a multinomial count law (log-factorial table); classes
        combine by an outer sum without merging equal values."""
        log_s = np.zeros(1)
        prob = np.ones(1)
        log_disc = 0.0
        for _, _, vol, rate, count in self.classes(n, n):
            values, probs = self._count_law(count, np.log1p(vol * self.g),
                                            self.measure(vol, rate))
            log_s = (log_s[:, None] + values[None, :]).ravel()
            prob = (prob[:, None] * probs[None, :]).ravel()
            log_disc -= count * math.log1p(rate)
        s_t = self.s0 * np.exp(log_s)
        return math.exp(log_disc) * float(prob @ _payoff_values(self.payoff, s_t))

    @staticmethod
    def _count_law(n: int, contrib: np.ndarray, q: np.ndarray):
        logf = gammaln(np.arange(n + 1) + 1.0)
        if len(q) == 2:
            k1 = np.arange(n + 1)
            counts = [k1, n - k1]
        else:
            k1, k3 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
            keep = k1 + k3 <= n
            k1, k3 = k1[keep], k3[keep]
            counts = [k1, n - k1 - k3, k3]
        logp = logf[n] - sum(logf[c] for c in counts) + sum(
            c * math.log(qi) for c, qi in zip(counts, q))
        values = sum(c * x for c, x in zip(counts, contrib))
        return values, np.exp(logp)

    def limit_price(self) -> float:
        v = self.integral(self.sigma, self.horizon, 2)
        big_r = self.integral(self.rate, self.horizon)
        strike = self.payoff["K"]
        root = math.sqrt(v)
        d1 = (math.log(self.s0 / strike) + big_r + v / 2.0) / root
        d2 = d1 - root
        disc = math.exp(-big_r)
        call = self.s0 * ndtr(d1) - strike * disc * ndtr(d2)
        put = strike * disc * ndtr(-d2) - self.s0 * ndtr(-d1)
        return {"call": call, "put": put, "digital": disc * ndtr(d2),
                "straddle": call + put}[self.payoff["type"]]


def _payoff_values(payoff: dict, s_t: np.ndarray) -> np.ndarray:
    strike = payoff["K"]
    kind = payoff["type"]
    if kind == "call":
        return np.maximum(s_t - strike, 0.0)
    if kind == "put":
        return np.maximum(strike - s_t, 0.0)
    if kind == "digital":
        return (s_t > strike).astype(float)
    return np.abs(s_t - strike)


def _converge(job: Job, doc: list, m: _Mismatch) -> None:
    study = _Study(job.docs["study"])
    p_bs = study.limit_price()
    m.require("one row per N", [row["N"] for row in doc] == job.docs["study"]["Ns"])
    for row in doc:
        n = row["N"]
        classes = study.classes(n, n)
        m.close(f"N={n} p_BS", row["p_BS"], p_bs)
        m.close(f"N={n} p_N", row["p_N"], study.lattice_price(n))
        m.close(f"N={n} abs_gap", row["abs_gap"], abs(row["p_N"] - row["p_BS"]))
        m.close(f"N={n} noether_max", row["noether_max"], max(c[2] for c in classes))
        _, var = study.moment_sums(classes, True, lambda vol: np.log1p(vol * study.g))
        m.close(f"N={n} var_gap", row["var_gap"],
                abs(var - study.integral(study.sigma, study.horizon, 2)))


def _lan_report(job: Job, doc: list, m: _Mismatch) -> None:
    study = _Study(job.docs["study"])
    m.require("one row per N", [row["N"] for row in doc] == job.docs["study"]["Ns"])
    t = study.horizon / 2.0 if job.check["t_half"] else study.horizon
    log_s = lambda vol: np.log1p(vol * study.g)  # noqa: E731
    for row in doc:
        n_total = row["N"]
        n = round(t / (study.horizon / n_total))
        classes = study.classes(n_total, n)
        v = study.integral(study.sigma, t, 2)
        big_r = study.integral(study.rate, t)
        p_mean, p_var = study.moment_sums(classes, False, log_s)
        z_mean, _ = study.moment_sums(classes, True, lambda vol: vol * study.g)
        q_mean, q_var = study.moment_sums(classes, True, log_s)
        dt = study.horizon / n_total
        want = {
            "t": n * dt,
            "noether_max": max(c[2] for c in classes),
            "riemann_gap": abs(sum(c[4] * c[2] ** 2 for c in classes) - v),
            "p0_mean_gap": abs(p_mean + 0.5 * v),
            "p0_var_gap": abs(p_var - v),
            "q_z_mean_gap": abs(z_mean - big_r),
            "q_logs_mean_gap": abs(q_mean - (big_r - 0.5 * v)),
            "q_logs_var_gap": abs(q_var - v),
            "alpha": dt * sum(c[4] * (c[1] / c[0]) ** 2 for c in classes),
        }
        for key, value in want.items():
            m.close(f"N={n_total} {key}", row[key], value)
        m.require(f"N={n_total} p0_cdf_sup in (0, 1]", 0.0 < row["p0_cdf_sup"] <= 1.0)


# ---------------------------------------------------------------------------
# incomplete table markets (bounds workload)
# ---------------------------------------------------------------------------

class _Table:
    def __init__(self, market: dict) -> None:
        self.n = market["N"]
        self.s0 = market["s0"]
        self.bond = 1.0 + market["bond"]["const"]
        self.values = np.array(market["returns"]["values"])
        above = [i for i, v in enumerate(self.values) if v > 1.0]
        below = [i for i, v in enumerate(self.values) if v < 1.0]
        self.vertices = []
        for i in above:
            for j in below:
                q = np.zeros(len(self.values))
                q[i] = (1.0 - self.values[j]) / (self.values[i] - self.values[j])
                q[j] = 1.0 - q[i]
                self.vertices.append(q)

    def price(self, spot: float, measures, payoff: dict) -> float:
        """Price at ``spot`` with one measure per remaining step, on the law
        of outcome counts (a ``k``-dimensional array)."""
        k = len(self.values)
        n = len(measures)
        law = np.zeros((n + 1,) * k)
        law[(0,) * k] = 1.0
        for w in measures:
            nxt = np.zeros_like(law)
            for i in range(k):
                if w[i] > 0.0:
                    nxt += w[i] * np.roll(law, 1, axis=i)
            law = nxt
        grids = np.indices(law.shape)
        log_s = sum(grids[i] * math.log(self.values[i]) for i in range(k))
        s_t = spot * self.bond ** n * np.exp(log_s)
        return self.bond ** -n * float((law * _payoff_values(payoff, s_t)).sum())


def _table_bounds(job: Job, doc: dict, m: _Mismatch) -> None:
    mk = _Table(job.docs["market"])
    payoff = job.docs["payoff"]
    # Steps are identically distributed, so a choice of one vertex per step
    # prices like any reordering: enumerate vertex multisets.
    prices = []
    nv = len(mk.vertices)
    for cut in _compositions(mk.n, nv):
        measures = [mk.vertices[v] for v in range(nv) for _ in range(cut[v])]
        prices.append(mk.price(mk.s0, measures, payoff))
    designated = mk.price(mk.s0, [np.mean(mk.vertices, axis=0)] * mk.n, payoff)
    m.close("lower", doc["lower"], min(prices))
    m.close("upper", doc["upper"], max(prices))
    m.require("lower <= designated <= upper",
              doc["lower"] - TOL <= designated <= doc["upper"] + TOL)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail


def _table_complete(job: Job, doc: dict, m: _Mismatch) -> None:
    mk = _Table(job.docs["market"])
    m.require("complete is false", doc["complete"] is False)
    m.require("one entry per step", len(doc["steps"]) == mk.n)
    want = sorted(tuple(v) for v in mk.vertices)
    for j, step in enumerate(doc["steps"]):
        m.require(f"step {j} kind", step["kind"] == ("segment" if len(want) == 2
                                                     else "polytope"))
        got = sorted(tuple(v) for v in step["vertices"])
        m.require(f"step {j} vertex count", len(got) == len(want))
        for gv, wv in zip(got, want):
            for a, b in zip(gv, wv):
                m.close(f"step {j} vertex", a, b)


def _table_dynamics(job: Job, doc: dict, m: _Mismatch) -> None:
    mk = _Table(job.docs["market"])
    moves = job.check["moves"]
    spot = mk.s0 * float(np.prod([mk.values[i] * mk.bond for i in moves]))
    designated = np.mean(mk.vertices, axis=0)
    price = mk.price(spot, [designated] * (mk.n - len(moves)), job.docs["payoff"])
    m.require("t", doc["t"] == len(moves))
    m.require("moves", doc["moves"] == moves)
    m.close("price", doc["price"], price)
