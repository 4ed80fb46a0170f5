"""End-to-end checks of the command line front end.

Most tests drive ``main(argv)`` in-process and read stdout/stderr through
capsys; one subprocess test covers the ``python -m lecam`` entry point.
Outputs must be byte-stable across runs, so two tests compare files written
by repeated invocations.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from lecam import (
    InvalidParams,
    LatticeMarket,
    PathState,
    build_discrete_model,
    lan,
    lan_diagnostics,
    lattice,
    study_from_json,
)
from lecam.cli import main, build_parser, _parse_state, CONVERGE_HEADER, LAN_HEADER
from lecam.lattice import _binom_pmf as binom_pmf
from test_pricing import crr_knock_out_price


CRR1 = {
    "N": 1, "T": 1.0, "s0": 4.0,
    "bond": {"const": 0.0},
    "returns": {"type": "crr", "u": 2.0, "d": 0.5, "p": 0.5},
}
CRR2 = dict(CRR1, N=2)
TRI = {
    "N": 1, "T": 1.0, "s0": 1.0,
    "bond": {"const": 0.0},
    "returns": {"type": "table",
                "values": [1.5, 1.0, 0.5],
                "probs": [1 / 3, 1 / 3, 1 / 3]},
}
ARB = {
    "N": 1, "T": 1.0, "s0": 4.0,
    "bond": {"const": 0.0},
    "returns": {"type": "crr", "u": 2.0, "d": 1.5, "p": 0.5},
}
CRR30 = {
    "N": 30, "T": 1.0, "s0": 100.0,
    "bond": {"const": 0.001},
    "returns": {"type": "crr", "u": 1.05, "d": 0.96, "p": 0.5},
}
CALL5 = {"type": "call", "K": 5.0}
CALL1 = {"type": "call", "K": 1.0}
STUDY = {
    "tangent": {"type": "crr", "a": 1.0, "b": 1.0},
    "bs": {"s0": 100.0, "T": 1.0,
           "sigma": {"const": 0.2}, "rate": {"const": 0.0}},
    "payoff": {"type": "call", "K": 100.0},
    "Ns": [4, 16],
    "threshold": 0.05,
}


@pytest.fixture
def spec_dir(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "crr1": write("crr1.json", CRR1),
        "crr2": write("crr2.json", CRR2),
        "tri": write("tri.json", TRI),
        "arb": write("arb.json", ARB),
        "call5": write("call5.json", CALL5),
        "call1": write("call1.json", CALL1),
        "study": write("study.json", STUDY),
        "dir": tmp_path,
    }


def text_values(out):
    """Parse ``name = value`` lines into a dict of floats."""
    vals = {}
    for line in out.strip().splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            try:
                vals[key] = float(val)
            except ValueError:
                vals[key] = val
    return vals


class TestPrice:
    def test_text(self, spec_dir, capsys):
        rc = main(["price", "--market", spec_dir["crr1"],
                   "--payoff", spec_dir["call5"]])
        out = capsys.readouterr().out
        assert rc == 0
        vals = text_values(out)
        assert vals["price_direct"] == pytest.approx(1.0, abs=1e-12)
        assert vals["price_via_tests"] == pytest.approx(1.0, abs=1e-12)
        assert vals["diff"] == pytest.approx(0.0, abs=1e-12)
        assert vals["discount"] == pytest.approx(1.0, abs=1e-15)
        assert "0.666666666667" in out           # alternative power of the call test
        assert "0.333333333333" in out           # base power

    def test_json(self, spec_dir, capsys):
        rc = main(["price", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["price_direct"] == pytest.approx(11.0 / 9.0, abs=1e-11)
        assert doc["diff"] == pytest.approx(0.0, abs=1e-12)

    def test_incomplete_needs_measure(self, spec_dir, capsys):
        rc = main(["price", "--market", spec_dir["tri"],
                   "--payoff", spec_dir["call1"]])
        captured = capsys.readouterr()
        assert rc == 3
        assert "incomplete" in captured.err

    def test_measure_selectors(self, spec_dir, capsys):
        rc = main(["price", "--market", spec_dir["tri"],
                   "--payoff", spec_dir["call1"],
                   "--measure", "0.4,0.2,0.4"])
        assert rc == 0
        assert text_values(capsys.readouterr().out)["price_direct"] == pytest.approx(
            0.2, abs=1e-14)
        rc = main(["price", "--market", spec_dir["tri"],
                   "--payoff", spec_dir["call1"],
                   "--measure", "designated"])
        assert rc == 0
        assert text_values(capsys.readouterr().out)["price_direct"] == pytest.approx(
            0.125, abs=1e-14)
        per_step = spec_dir["dir"] / "measure.json"
        per_step.write_text(json.dumps([[0.25, 0.5, 0.25]]))
        rc = main(["price", "--market", spec_dir["tri"],
                   "--payoff", spec_dir["call1"],
                   "--measure", f"@{per_step}"])
        assert rc == 0
        assert text_values(capsys.readouterr().out)["price_direct"] == pytest.approx(
            0.125, abs=1e-14)
        rc = main(["price", "--market", spec_dir["tri"],
                   "--payoff", spec_dir["call1"], "--measure", "half,half"])
        assert rc == 3
        for bad in ([0.25, 0.5, 0.25], {"step": [0.25, 0.5, 0.25]}, [["a", "b", "c"]]):
            per_step.write_text(json.dumps(bad))
            rc = main(["price", "--market", spec_dir["tri"],
                       "--payoff", spec_dir["call1"], "--measure", f"@{per_step}"])
            assert rc == 3
            assert capsys.readouterr().err.startswith("error:")

    def test_arbitrage_exits_2(self, spec_dir, capsys):
        rc = main(["price", "--market", spec_dir["arb"],
                   "--payoff", spec_dir["call5"]])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")


def binomial_tail(n, k, p):
    """``P(Bin(n, p) >= k)`` to 30 digits (mpmath): the terms from ``k`` up,
    each from the one before it, until past the mode they drop below 1e-40
    of the sum."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        p = mp.mpf(p)
        term = mp.binomial(n, k) * p ** k * (1 - p) ** (n - k)
        total = mp.mpf(0)
        while k <= n and (k <= n * p or term > 1e-40 * total):
            total += term
            term = term * (n - k) / (k + 1) * p / (1 - p)
            k += 1
        return float(total)


def crr30_call(strike):
    """Price of a call on CRR30 as a binomial sum."""
    n, r = CRR30["N"], 1.0 + CRR30["bond"]["const"]
    u, d = CRR30["returns"]["u"], CRR30["returns"]["d"]
    q = (r - d) / (u - d)
    price = sum(
        math.comb(n, k) * q ** k * (1.0 - q) ** (n - k)
        * max(CRR30["s0"] * u ** k * d ** (n - k) - strike, 0.0)
        for k in range(n + 1)
    )
    return price / r ** n


class TestLargeLattice:
    """Terminal payoffs are priced on the grouped law of S_T and barriers by
    backward induction on the recombined lattice, so N = 30 (2^30 paths,
    496 lattice nodes) is cheap; both are bounded by the state cap."""

    # half-way (in log) between the nodes with 17 and 18 up moves
    K = 100.0 * 1.05 ** 17.5 * 0.96 ** 12.5

    def write(self, spec_dir, name, doc):
        path = spec_dir["dir"] / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_price_and_np_match_binomial_sum(self, spec_dir, capsys):
        market = self.write(spec_dir, "crr30.json", CRR30)
        call = self.write(spec_dir, "call.json", {"type": "call", "K": self.K})
        want = crr30_call(self.K)
        rc = main(["price", "--market", market, "--payoff", call,
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["price_direct"] == pytest.approx(want, rel=1e-11)
        assert doc["price_via_tests"] == pytest.approx(want, rel=1e-11)
        rc = main(["np", "--market", market, "--payoff", call, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["price"] == pytest.approx(want, rel=1e-11)

    def barrier_argv(self, spec_dir):
        market = self.write(spec_dir, "crr30.json", CRR30)
        barrier = self.write(spec_dir, "barrier.json",
                             {"type": "barrier_up_out", "K": self.K, "B": 400.0})
        return ["price", "--market", market, "--payoff", barrier]

    def test_barrier_matches_knock_out_recursion(self, spec_dir, capsys):
        rc = main(self.barrier_argv(spec_dir) + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        want = crr_knock_out_price(
            CRR30["returns"]["u"], CRR30["returns"]["d"],
            1.0 + CRR30["bond"]["const"], CRR30["N"], CRR30["s0"], self.K, 400.0)
        assert doc["price_direct"] == pytest.approx(want, rel=1e-11)
        assert doc["price_via_tests"] == pytest.approx(want, rel=1e-11)

    def test_crr_65536_price_matches_binomial_tails(self, spec_dir, capsys):
        """CRR N = 65536: the grouped law is one binomial, and both routes
        match the closed form ``s0 P_{q u}(k >= k*) - K B_N^-1 P_q(k >= k*)``
        (discounted ``u``, tails summed in 30 digits)."""
        n, u, d, bond = 65536, 1.001, 0.999, 1.0 + 5e-7
        doc = {"N": n, "T": 1.0, "s0": 100.0, "bond": {"const": bond - 1.0},
               "returns": {"type": "crr", "u": u, "d": d, "p": 0.5}}
        k_star = 32800
        # half-way (in log) between the nodes with k_star - 1 and k_star ups
        strike = 100.0 * u ** (k_star - 0.5) * d ** (n - k_star + 0.5)
        market = self.write(spec_dir, "crr65536.json", doc)
        call = self.write(spec_dir, "call.json", {"type": "call", "K": strike})
        rc = main(["price", "--market", market, "--payoff", call, "--format", "json"])
        got = json.loads(capsys.readouterr().out)
        assert rc == 0
        up, down = u / bond, d / bond
        q = (1.0 - down) / (up - down)
        want = (100.0 * binomial_tail(n, k_star, q * up)
                - strike * bond ** -n * binomial_tail(n, k_star, q))
        assert got["diff"] <= 1e-12 * want
        assert got["price_direct"] == pytest.approx(want, rel=1e-11)
        assert got["price_via_tests"] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n, powers", [(8192, (0.374399843377, 0.625437985925)),
                                           (100000, (0.1317750005, 0.868230929262))])
    def test_three_point_table_beyond_its_class_count(self, spec_dir, capsys, n, powers):
        """1.01/1.0/0.99 under (0.25, 0.5, 0.25): the closed-form draw builds
        nothing, so ``C(n + 2, 2)`` (33,566,721 at n = 8192) meets no cap and
        only the ``n + 1`` counts of the first draw are built."""
        doc = {"N": n, "T": 1.0, "s0": 100.0, "bond": {"const": 0.0},
               "returns": {"type": "table", "values": [1.01, 1.0, 0.99],
                           "probs": [0.25, 0.5, 0.25]}}
        market = self.write(spec_dir, "flat.json", doc)
        call = self.write(spec_dir, "call.json", {"type": "call", "K": 100.0})
        rc = main(["price", "--market", market, "--payoff", call, "--measure", "designated",
                   "--format", "json"])
        (term,) = json.loads(capsys.readouterr().out)["report"]["terms"]
        assert rc == 0
        want = three_point_powers((1.01, 1.0, 0.99), (0.25, 0.5, 0.25), n)
        assert (term["power_base"], term["power_alt"]) == pytest.approx(want, rel=1e-11)
        assert (term["power_base"], term["power_alt"]) == pytest.approx(powers, rel=1e-12)

    def test_wide_table_q1_underflow_exits_5(self, spec_dir, capsys):
        """3.0/1.0/0.2 at N = 3000: ``Q`` probabilities underflow where
        ``Q1`` puts a quarter of its mass, which the masses' self-check
        finds."""
        doc = {"N": 3000, "T": 1.0, "s0": 1.0, "bond": {"const": 0.0},
               "returns": {"type": "table", "values": [3.0, 1.0, 0.2], "probs": [1 / 3] * 3}}
        market = self.write(spec_dir, "wide.json", doc)
        rc = main(["price", "--market", market, "--payoff", spec_dir["call1"],
                   "--measure", "designated"])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.out == ""
        assert "self-check failed: Q1 masses sum to 0.7244" in captured.err

    def test_barrier_hits_the_state_cap(self, spec_dir, capsys, monkeypatch):
        monkeypatch.setenv("LECAM_MAX_PATHS", "100")
        rc = main(self.barrier_argv(spec_dir))
        captured = capsys.readouterr()
        assert rc == 3
        assert "lattice nodes exceed cap 100" in captured.err


def three_point_powers(values, q, n):
    """``Q(X_T > 1)`` and ``Q1(X_T > 1)`` for ``n`` steps on three values,
    descending, under ``q``, as a chain sum of scipy binomials: ``a`` top
    moves from ``Bin(n, q_0)``, then the bottom moves ``c`` among the rest
    from ``Bin(n - a, q_2 / (q_1 + q_2))``, and ``log X_T = a l_0 + (n - a
    - c) l_1 + c l_2 > 0`` iff ``c`` is below ``(a (l_0 - l_1) + n l_1) /
    (l_1 - l_2)``, never an integer for the values here.  ``Q1`` is the
    same chain under ``q_i v_i``."""
    logs = np.log(values)
    a = np.arange(n + 1)
    most = np.ceil((a * (logs[0] - logs[1]) + n * logs[1]) / (logs[1] - logs[2])) - 1
    q = np.asarray(q)
    return tuple(float(np.sum(binom.pmf(a, n, w[0])
                              * binom.cdf(most, n - a, w[2] / (w[1] + w[2]))))
                 for w in (q, q * values))


def tri_bounds(n):
    """Call bounds at K = 1 on TRI over n steps: the vertices are the point
    mass at 1.0 and the even split of 1.5 / 0.5, so k steps on the split
    give a binomial law of S_T; the product measures are ranged over k."""
    prices = [sum(math.comb(k, i) * 0.5 ** k * max(1.5 ** i * 0.5 ** (k - i) - 1.0, 0.0)
                  for i in range(k + 1))
              for k in range(n + 1)]
    return min(prices), max(prices)


class TestInfiniteBarrier:
    """``barrier_up_out`` without ``B`` (or with ``"inf"``) never knocks out:
    every command prints what it prints for the call at the same strike."""

    def outputs(self, spec_dir, capsys, payoff):
        path = spec_dir["dir"] / "payoff.json"
        path.write_text(json.dumps(payoff))
        study = spec_dir["dir"] / "payoff_study.json"
        study.write_text(json.dumps(dict(STUDY, payoff=payoff)))
        docs = []
        for argv in (
            ["price", "--market", spec_dir["crr2"], "--payoff", str(path)],
            ["np", "--market", spec_dir["crr2"], "--payoff", str(path)],
            ["dynamics", "--market", spec_dir["crr2"], "--payoff", str(path),
             "--state", "u"],
            ["bounds", "--market", spec_dir["tri"], "--payoff", str(path)],
            ["converge", "--study", str(study)],
        ):
            rc = main(argv + ["--format", "json"])
            captured = capsys.readouterr()
            assert rc == 0, (argv, captured.err)
            docs.append(json.loads(captured.out))
        for term in docs[0]["report"]["terms"]:
            term.pop("label")
        return docs

    def test_every_command_prices_the_call(self, spec_dir, capsys):
        for strike in (1.0, 5.0):
            call = self.outputs(spec_dir, capsys, {"type": "call", "K": strike})
            for barrier in ({"type": "barrier_up_out", "K": strike},
                            {"type": "barrier_up_out", "K": strike, "B": "inf"}):
                assert self.outputs(spec_dir, capsys, barrier) == call


class TestBounds:
    """``bounds`` prices one measure per vertex multiset of each return
    class: TRI over 17 steps has 2^17 ordered vertex choices but 18
    multisets."""

    def write_tri(self, spec_dir, n):
        path = spec_dir["dir"] / f"tri{n}.json"
        path.write_text(json.dumps(dict(TRI, N=n)))
        return str(path)

    def test_trinomial_n17_matches_binomial_sums(self, spec_dir, capsys):
        rc = main(["bounds", "--market", self.write_tri(spec_dir, 17),
                   "--payoff", spec_dir["call1"], "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        lower, upper = tri_bounds(17)
        assert doc["lower"] == pytest.approx(lower, rel=1e-11, abs=1e-15)
        assert doc["upper"] == pytest.approx(upper, rel=1e-11)

    def test_cap_env_var_counts_multisets(self, spec_dir, capsys, monkeypatch):
        market = self.write_tri(spec_dir, 5)
        argv = ["bounds", "--market", market, "--payoff", spec_dir["call1"]]
        monkeypatch.setenv("LECAM_MAX_PATHS", "4")
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert "vertex multisets exceed cap 4" in captured.err
        monkeypatch.delenv("LECAM_MAX_PATHS")
        rc = main(argv)
        capsys.readouterr()
        assert rc == 0


class TestSelfCheck:
    def test_price_routes_disagreeing_exit_5(self, spec_dir, capsys, monkeypatch):
        import dataclasses
        import lecam.cli
        from lecam.pricing import price_routes

        def skewed(*args, **kwargs):
            direct, report = price_routes(*args, **kwargs)
            return direct, dataclasses.replace(report, price=report.price + 1e-9)

        monkeypatch.setattr(lecam.cli, "price_routes", skewed)
        rc = main(["price", "--market", spec_dir["crr1"],
                   "--payoff", spec_dir["call5"]])
        captured = capsys.readouterr()
        assert rc == 5
        assert "price_direct = 1" in captured.out
        assert "self-check failed" in captured.err

    def test_nan_route_price_exit_5(self, spec_dir, capsys, monkeypatch):
        """A NaN price never passes the route check."""
        import dataclasses
        import lecam.cli
        from lecam.pricing import price_routes

        def nan_price(*args, **kwargs):
            direct, report = price_routes(*args, **kwargs)
            return direct, dataclasses.replace(report, price=math.nan)

        monkeypatch.setattr(lecam.cli, "price_routes", nan_price)
        rc = main(["price", "--market", spec_dir["crr1"],
                   "--payoff", spec_dir["call5"]])
        captured = capsys.readouterr()
        assert rc == 5
        assert "diff = nan" in captured.out
        assert "self-check failed" in captured.err

    def test_bayes_risk_identity_exit_5(self, spec_dir, capsys, monkeypatch):
        import lecam.pricing

        monkeypatch.setattr(lecam.pricing, "bayes_risk", lambda *a: 0.5)
        rc = main(["np", "--market", spec_dir["crr1"],
                   "--payoff", spec_dir["call5"]])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.err.startswith("error: self-check failed")


class TestDynamics:
    def test_observed_moves(self, spec_dir, capsys):
        rc = main(["dynamics", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--state", "u"])
        assert rc == 0
        assert text_values(capsys.readouterr().out)["price"] == pytest.approx(
            11.0 / 3.0, abs=1e-11)
        rc = main(["dynamics", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--state", "d"])
        assert rc == 0
        assert text_values(capsys.readouterr().out)["price"] == pytest.approx(
            0.0, abs=1e-15)

    def test_integer_tokens_and_json(self, spec_dir, capsys):
        rc = main(["dynamics", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--state", "0,1",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t"] == 2
        assert doc["moves"] == [0, 1]
        # terminal node 'ud': intrinsic value (4*2*0.5 - 5)+ = 0
        assert doc["price"] == pytest.approx(0.0, abs=1e-15)

    def test_bad_state_exits_3(self, spec_dir, capsys):
        rc = main(["dynamics", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--state", "u,x"])
        capsys.readouterr()
        assert rc == 3
        rc = main(["dynamics", "--market", spec_dir["crr2"],
                   "--payoff", spec_dir["call5"], "--state", "u,d,u"])
        capsys.readouterr()
        assert rc == 3

    def test_state_errors_name_the_first_offending_token(self):
        two, three = ((1.2, 0.5), (0.9, 0.5)), ((1.2, 0.3), (1.0, 0.4), (0.9, 0.3))
        market = LatticeMarket(3, 1.0, 1.0, (two, three, two), (0.0,) * 3)
        assert _parse_state(market, " u , 2,d ") == PathState(3, (0, 2, 1))
        for raw, message in [
            ("u,u,d", "token 'u' needs a two-point step 1"),
            ("u,1,d,u", "token 'u' needs a two-point step 3"),
            ("u,x,d,u", "cannot parse move token 'x'"),
            ("u,d,1.5", "token 'd' needs a two-point step 1"),
        ]:
            with pytest.raises(InvalidParams, match=message):
                _parse_state(market, raw)


class TestComplete:
    def test_complete_market(self, spec_dir, capsys):
        rc = main(["complete", "--market", spec_dir["crr1"]])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "complete: true"
        assert lines[1] == "tau = 0.333333333333"
        assert lines[2] == "step 1: unique 0.333333333333,0.666666666667"

    def test_incomplete_market(self, spec_dir, capsys):
        rc = main(["complete", "--market", spec_dir["tri"]])
        out = capsys.readouterr().out
        assert rc == 1
        lines = out.strip().splitlines()
        assert lines[0] == "complete: false"
        assert "segment" in lines[1]

    def test_json_format(self, spec_dir, capsys):
        rc = main(["complete", "--market", spec_dir["tri"], "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["complete"] is False
        assert doc["steps"][0]["kind"] == "segment"
        assert len(doc["steps"][0]["vertices"]) == 2

    def test_arbitrage_exits_2(self, spec_dir, capsys):
        rc = main(["complete", "--market", spec_dir["arb"]])
        capsys.readouterr()
        assert rc == 2


class TestNp:
    def test_worked_decomposition(self, spec_dir, capsys):
        rc = main(["np", "--market", spec_dir["crr1"],
                   "--payoff", spec_dir["call5"]])
        assert rc == 0
        vals = text_values(capsys.readouterr().out)
        assert vals["cutoff"] == pytest.approx(1.25, abs=1e-15)
        assert vals["lambda0"] == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert vals["lambda1"] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert vals["bayes_risk"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert vals["price"] == pytest.approx(1.0, abs=1e-12)

    def test_non_call_exits_3(self, spec_dir, capsys):
        put = spec_dir["dir"] / "put.json"
        put.write_text(json.dumps({"type": "put", "K": 5.0}))
        rc = main(["np", "--market", spec_dir["crr1"], "--payoff", str(put)])
        capsys.readouterr()
        assert rc == 3


class TestConverge:
    def test_csv_shape(self, spec_dir, capsys):
        rc = main(["converge", "--study", spec_dir["study"]])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == CONVERGE_HEADER
        assert len(lines) == 3
        for line, n in zip(lines[1:], (4, 16)):
            cells = line.split(",")
            assert cells[0] == str(n)
            # columns are independently rounded to 12 significant digits
            assert abs(float(cells[1]) - float(cells[2])) == pytest.approx(
                float(cells[3]), abs=1e-10)

    def test_threshold_gate(self, spec_dir, capsys):
        rc = main(["converge", "--study", spec_dir["study"],
                   "--threshold", "1e-9"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "threshold violated" in captured.err
        # flag overrides the study's own threshold in both directions
        rc = main(["converge", "--study", spec_dir["study"],
                   "--threshold", "10.0"])
        capsys.readouterr()
        assert rc == 0
        # a single-size study is gated too
        single = spec_dir["dir"] / "single.json"
        single.write_text(json.dumps(dict(STUDY, Ns=[16])))
        rc = main(["converge", "--study", str(single), "--threshold", "1e-12"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "threshold violated" in captured.err

    def test_study_threshold_used_by_default(self, spec_dir, capsys):
        tight = dict(STUDY, threshold=1e-9)
        path = spec_dir["dir"] / "tight.json"
        path.write_text(json.dumps(tight))
        rc = main(["converge", "--study", str(path)])
        capsys.readouterr()
        assert rc == 4

    def test_json_format(self, spec_dir, capsys):
        rc = main(["converge", "--study", spec_dir["study"],
                   "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [row["N"] for row in doc] == [4, 16]
        assert set(doc[0]) == {"N", "p_N", "p_BS", "abs_gap",
                               "noether_max", "var_gap"}


    def test_trinomial_8192(self, spec_dir, capsys):
        """One class of 8192 trinomial steps: 8193 counts are built beside
        the closed-form draw, against ``C(8194, 2)`` count states of the
        class; ``p_N`` is a scipy chain sum on the discrete model."""
        study = dict(STUDY, Ns=[8192], threshold=None,
                     tangent={"type": "symmetric_trinomial", "probs": [0.25, 0.5, 0.25]})
        path = spec_dir["dir"] / "trinomial.json"
        path.write_text(json.dumps(study))
        rc = main(["converge", "--study", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        (row,) = json.loads(captured.out)
        spec = study_from_json(study)
        model = build_discrete_model(spec.path, spec.family()(8192))
        (step,), (q,) = model.market.returns.kinds, model.measures.kinds
        base, alt = three_point_powers(np.array([v for v, _ in step]), q, 8192)
        assert row["p_N"] == pytest.approx(100.0 * (alt - base), rel=1e-10)
        assert row["abs_gap"] < 1e-3

    def test_two_piece_crr_8192(self, spec_dir, capsys):
        """Two 4097-atom class laws would combine to 16.8M states; the price
        reads binomial tails over one class's atoms instead.  The lan-report
        of the same study sorts a law of 619 x 619 atoms, each class's draw
        on its Hoeffding window: its row is pinned."""
        study = dict(STUDY, Ns=[8192], threshold=None, bs={
            "s0": 100.0, "T": 1.0,
            "sigma": {"pieces": [[0.5, 0.2], [1.0, 0.3]]},
            "rate": {"pieces": [[0.5, 0.01], [1.0, 0.03]]}})
        path = spec_dir["dir"] / "two_piece.json"
        path.write_text(json.dumps(study))
        rc = main(["converge", "--study", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        (row,) = json.loads(captured.out)
        assert row["N"] == 8192
        assert row["abs_gap"] < 1e-3
        rc = main(["lan-report", "--study", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        (row,) = json.loads(captured.out)
        assert (row["N"], row["t"]) == (8192, 1.0)
        assert row["noether_max"] == pytest.approx(0.3 / math.sqrt(8192), rel=1e-11)
        assert row["riemann_gap"] == pytest.approx(0.0, abs=1e-13)
        assert row["p0_cdf_sup"] == pytest.approx(0.00172752989376, rel=1e-11)
        pinned = {"p0_mean_gap": 1.48011239459e-07, "p0_var_gap": 3.94697031003e-07,
                  "q_z_mean_gap": 3.05176217803e-08, "q_logs_mean_gap": 5.4423465911e-08,
                  "q_logs_var_gap": 3.33661243912e-07, "alpha": 0.00625001983652}
        for name, value in pinned.items():
            assert row[name] == pytest.approx(value, rel=1e-6), name


class TestLanReport:
    def test_csv_shape(self, spec_dir, capsys):
        rc = main(["lan-report", "--study", spec_dir["study"]])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == LAN_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"

    def test_intermediate_time(self, spec_dir, capsys):
        rc = main(["lan-report", "--study", spec_dir["study"], "--t", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1].split(",")[1] == "0.5"
        rc = main(["lan-report", "--study", spec_dir["study"], "--t", "0.3"])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("rate", [{"const": 0.03}, {"const": 0.0}])
    def test_one_law_per_row(self, spec_dir, capsys, monkeypatch, rate):
        """Each row builds the law of its P0 sup-distance and no other: the
        designated measures' side is moments only, with or without a rate."""
        laws = []
        original = lan.terminal_log_atoms
        monkeypatch.setattr(lan, "terminal_log_atoms",
                            lambda *args: laws.append(args) or original(*args))
        study = dict(STUDY, Ns=[4, 16, 64], bs=dict(STUDY["bs"], rate=rate))
        path = spec_dir["dir"] / "rows.json"
        path.write_text(json.dumps(study))
        assert main(["lan-report", "--study", str(path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3
        assert len(laws) == 3

    @pytest.mark.parametrize("t", [[], ["--t", "0.5"]])
    def test_one_market_per_row(self, spec_dir, capsys, monkeypatch, t):
        """Both diagnostics of a row read the one discrete market it builds."""
        built = []
        original = LatticeMarket.__post_init__
        monkeypatch.setattr(LatticeMarket, "__post_init__",
                            lambda market: built.append(market.steps) or original(market))
        study = dict(STUDY, Ns=[4, 16, 64], bs=dict(STUDY["bs"], rate={"const": 0.03}))
        path = spec_dir["dir"] / "rows.json"
        path.write_text(json.dumps(study))
        assert main(["lan-report", "--study", str(path)] + t) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3
        assert built == [4, 16, 64]

    @pytest.mark.parametrize("tangent, sigma, rate, n", [
        ({"type": "crr", "a": 1.0, "b": 1.0}, {"pieces": [[0.5, 0.2], [1.0, 0.3]]},
         {"pieces": [[0.5, 0.01], [1.0, 0.03]]}, 2048),
        ({"type": "symmetric_trinomial", "probs": [0.25, 0.5, 0.25]}, {"const": 0.2},
         {"const": 0.0}, 1024),
    ])
    def test_sup_distance_cap_fails_before_the_law(self, spec_dir, capsys, monkeypatch,
                                                   tangent, sigma, rate, n):
        """A cap one below the windowed atoms of the study's law exits 3 with
        the sup-distance message before the law is built: the binomial pmfs
        are evaluated on a few windows only, and the memory traced at the
        peak stays below the law's values alone."""
        study = dict(STUDY, tangent=tangent, Ns=[n], threshold=None,
                     bs={"s0": 100.0, "T": 1.0, "sigma": sigma, "rate": rate})
        path = spec_dir["dir"] / "cap.json"
        path.write_text(json.dumps(study))
        spec = study_from_json(study)
        atoms = lan_diagnostics(spec.path, spec.family()(n)).states
        evaluated = []

        def counted(k, size, p):
            evaluated.append(np.size(k))
            return binom_pmf(k, size, p)

        monkeypatch.setattr(lattice, "_binom_pmf", counted)
        monkeypatch.setenv("LECAM_MAX_PATHS", str(atoms - 1))
        tracemalloc.start()
        try:
            rc = main(["lan-report", "--study", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 3
        assert f"exceed cap {atoms - 1}: the CDF sup-distance needs the law of log S_t" in captured.err
        assert 0 < sum(evaluated) < atoms // 100
        assert peak < 8 * atoms
        monkeypatch.delenv("LECAM_MAX_PATHS")
        assert main(["lan-report", "--study", str(path)]) == 0
        capsys.readouterr()


class TestErrorPaths:
    def test_malformed_json_exits_3(self, spec_dir, capsys):
        bad = spec_dir["dir"] / "bad.json"
        bad.write_text("{not json")
        rc = main(["price", "--market", str(bad), "--payoff", spec_dir["call5"]])
        captured = capsys.readouterr()
        assert rc == 3
        assert "not valid JSON" in captured.err

    def test_missing_file_exits_3(self, spec_dir, capsys):
        rc = main(["price", "--market", str(spec_dir["dir"] / "nope.json"),
                   "--payoff", spec_dir["call5"]])
        capsys.readouterr()
        assert rc == 3

    def test_missing_schema_key_exits_3(self, spec_dir, capsys):
        bad = spec_dir["dir"] / "keyless.json"
        bad.write_text(json.dumps({"N": 1, "T": 1.0}))
        rc = main(["price", "--market", str(bad), "--payoff", spec_dir["call5"]])
        capsys.readouterr()
        assert rc == 3
        # wrong shapes: a list where an object belongs, a non-numeric threshold
        bad.write_text(json.dumps(dict(CRR1, returns=[2.0, 0.5])))
        rc = main(["price", "--market", str(bad), "--payoff", spec_dir["call5"]])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: market spec malformed")
        for study in (dict(STUDY, tangent=[1.0, 1.0]), dict(STUDY, threshold="abc")):
            bad.write_text(json.dumps(study))
            rc = main(["converge", "--study", str(bad)])
            assert rc == 3
            assert capsys.readouterr().err.startswith("error: study spec malformed")

    @pytest.mark.parametrize("command", ["converge", "lan-report"])
    def test_empty_sizes_exit_3(self, spec_dir, capsys, command):
        path = spec_dir["dir"] / "empty.json"
        path.write_text(json.dumps(dict(STUDY, Ns=[])))
        rc = main([command, "--study", str(path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "error: need at least one lattice size\n"

    GAP_1 = "error: step 1 measure is not a martingale measure (gap 2.000e-02)\n"
    ZERO_0 = "error: step 0 measure is not strictly positive\n"

    @pytest.mark.parametrize("command, measure, err", [
        # price checks the martingale gap of every step before positivity;
        # np checks both step by step; dynamics needs no positivity
        ("price", [[0.5, 0.0, 0.5], [0.6, 0.0, 0.4]], GAP_1),
        ("price", [[0.5, 0.0, 0.5], [0.3, 0.4, 0.3]], ZERO_0),
        ("np", [[0.5, 0.0, 0.5], [0.6, 0.0, 0.4]], ZERO_0),
        ("dynamics", [[0.5, 0.0, 0.5], [0.6, 0.0, 0.4]], GAP_1),
    ])
    def test_measure_error_precedence(self, spec_dir, capsys, command, measure, err):
        market = spec_dir["dir"] / "tri2.json"
        market.write_text(json.dumps(dict(TRI, N=2, returns={
            "type": "table", "values": [1.1, 1.0, 0.9], "probs": [0.3, 0.4, 0.3]})))
        path = spec_dir["dir"] / "q.json"
        path.write_text(json.dumps(measure))
        state = ["--state", "0"] if command == "dynamics" else []
        rc = main([command, "--market", str(market), "--payoff", spec_dir["call1"],
                   "--measure", f"@{path}"] + state)
        assert (rc, capsys.readouterr()) == (3, ("", err))

    def test_price_caps_before_positivity(self, spec_dir, capsys, monkeypatch):
        """A measure with a zero whose law exceeds the state cap fails on the
        cap, as the direct route, which allows zeros, prices first."""
        market = spec_dir["dir"] / "quad.json"
        market.write_text(json.dumps(dict(TRI, N=6, returns={
            "type": "table", "values": [1.2, 1.1, 0.9, 0.8], "probs": [0.25] * 4})))
        path = spec_dir["dir"] / "q.json"
        path.write_text(json.dumps([[2 / 7, 2 / 7, 0.0, 3 / 7]] * 6))
        argv = ["price", "--market", str(market), "--payoff", spec_dir["call1"],
                "--measure", f"@{path}"]
        assert (main(argv), capsys.readouterr()) == (3, ("", self.ZERO_0))
        monkeypatch.setenv("LECAM_MAX_PATHS", "5")
        assert (main(argv), capsys.readouterr()) == (
            3, ("", "error: count states 7 exceed cap 5\n"))

    def test_table_lengths_must_match(self, spec_dir, capsys):
        """A table with more values than probs is rejected, not truncated."""
        bad = spec_dir["dir"] / "table.json"
        bad.write_text(json.dumps(dict(TRI, returns={
            "type": "table", "values": [1.2, 0.9, 0.5], "probs": [0.5, 0.5]})))
        rc = main(["price", "--market", str(bad), "--payoff", spec_dir["call1"]])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: market spec malformed")
        bad.write_text(json.dumps(dict(TRI, N=2, returns={
            "type": "table", "values": [[1.5, 0.5], [1.1, 0.8, 0.7]],
            "probs": [[0.5, 0.5], [0.5, 0.5]]})))
        rc = main(["complete", "--market", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: market spec malformed")

    def test_non_finite_inputs_exit_3(self, spec_dir, capsys):
        """NaN or infinite strikes, rates, probabilities, measures and times
        are spec errors, in every command that reads them."""
        nan, inf = math.nan, math.inf
        table = dict(TRI, N=8, returns={"type": "table",
                                        "values": [1.3, 1.1, 0.9, 0.6],
                                        "probs": [0.25] * 4})
        specs = {
            "crr15": dict(CRR30, N=15),
            "table": table,
            "nan_bond": dict(table, bond={"const": nan}),
            "nan_prob": dict(TRI, returns={"type": "table", "values": [1.5, 0.5],
                                           "probs": [nan, 0.5]}),
            "k_nan": {"type": "call", "K": nan},
            "k_inf": {"type": "call", "K": inf},
            "study": dict(STUDY, payoff={"type": "call", "K": nan}),
            "nan_threshold": dict(STUDY, threshold=nan),
            "inf_steps": dict(CRR1, N=inf),
            "crr4": dict(CRR1, N=4),
            "nan_row": [[1 / 3, 2 / 3], [1 / 3, 2 / 3], [nan, nan], [1 / 3, 2 / 3]],
        }
        path = {}
        for name, doc in specs.items():
            path[name] = spec_dir["dir"] / f"{name}.json"
            path[name].write_text(json.dumps(doc))
        for argv in (
            ["price", "--market", path["crr15"], "--payoff", path["k_nan"]],
            ["price", "--market", path["crr15"], "--payoff", path["k_inf"]],
            ["bounds", "--market", path["table"], "--payoff", path["k_nan"]],
            ["price", "--market", path["nan_bond"], "--payoff", spec_dir["call1"],
             "--measure", "designated"],
            ["complete", "--market", path["nan_prob"]],
            ["converge", "--study", path["study"]],
            ["converge", "--study", path["nan_threshold"]],
            ["converge", "--study", spec_dir["study"], "--threshold", "inf"],
            ["price", "--market", path["inf_steps"], "--payoff", spec_dir["call5"]],
            *([*cmd, "--market", path["crr4"], "--payoff", spec_dir["call5"],
               "--measure", measure]
              for cmd in (["price"], ["np"], ["dynamics", "--state", "u"])
              for measure in ("nan,nan", f"@{path['nan_row']}")),
            ["lan-report", "--study", spec_dir["study"], "--t", "nan"],
            ["lan-report", "--study", spec_dir["study"], "--t", "inf"],
        ):
            rc = main([str(a) for a in argv])
            captured = capsys.readouterr()
            assert rc == 3, argv
            assert captured.out == ""
            assert captured.err.startswith("error:")

    def test_path_cap_env_var(self, spec_dir, capsys, monkeypatch):
        """Eight three-point steps enumerate the 9 counts of their first
        draw beside the closed-form one: over a cap of 4."""
        monkeypatch.setenv("LECAM_MAX_PATHS", "4")
        big = spec_dir["dir"] / "big.json"
        big.write_text(json.dumps(dict(TRI, N=8)))
        rc = main(["price", "--market", str(big), "--payoff", spec_dir["call1"],
                   "--measure", "designated"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("error:")
        monkeypatch.delenv("LECAM_MAX_PATHS")
        rc = main(["price", "--market", str(big), "--payoff", spec_dir["call1"],
                   "--measure", "designated"])
        capsys.readouterr()
        assert rc == 0


    @pytest.mark.parametrize("tangent, named", [
        ({"type": "crr", "a": 1.0, "b": math.inf}, "tangent b = inf"),
        ({"type": "custom", "probs": [0.5, 0.5], "g": [1.0, -1.0], "C": math.inf},
         "tangent C = inf"),
        ({"type": "custom", "probs": [0.5, 0.5], "g": [math.nan, -1.0]}, "tangent g[0] = nan"),
    ])
    def test_non_finite_tangent_exits_3(self, spec_dir, capsys, tangent, named):
        path = spec_dir["dir"] / "tangent.json"
        path.write_text(json.dumps(dict(STUDY, tangent=tangent)))
        rc = main(["converge", "--study", str(path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"{named} is not finite" in captured.err

    def test_np_cap_error_names_the_count_states(self, spec_dir, capsys, monkeypatch):
        monkeypatch.setenv("LECAM_MAX_PATHS", "4")
        big = spec_dir["dir"] / "big.json"
        big.write_text(json.dumps(dict(TRI, N=8)))
        rc = main(["np", "--market", str(big), "--payoff", spec_dir["call1"],
                   "--measure", "designated"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "count states 9 exceed cap 4" in captured.err


class TestFormats:
    """Each command's text or CSV fields equal its JSON fields of the same
    name, both printed to 12 significant digits."""

    def both(self, capsys, argv):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        return text, json.loads(capsys.readouterr().out)

    def test_name_value_commands(self, spec_dir, capsys):
        market = spec_dir["dir"] / "crr3.json"
        market.write_text(json.dumps(dict(CRR30, N=3, s0=5.0)))
        strangle = spec_dir["dir"] / "strangle.json"
        strangle.write_text(json.dumps({"type": "strangle", "K1": 4.5, "K2": 5.5}))
        specs = ["--market", str(market), "--payoff", str(strangle)]
        text, doc = self.both(capsys, ["price", *specs])
        vals, report = text_values(text), doc["report"]
        for name in ("price_direct", "price_via_tests", "diff"):
            assert vals[name] == doc[name], name
        assert vals["discount"] == report["discount"]
        terms = [line for line in text.splitlines() if line.startswith("term ")]
        assert len(terms) == len(report["terms"]) == 2
        for line, term in zip(terms, report["terms"]):
            label, _, powers = line.removeprefix("term ").partition(": ")
            assert label == term["label"]
            assert text_values(powers.replace(", ", "\n")) == {
                "power_alt": term["power_alt"], "power_base": term["power_base"]}
        text, doc = self.both(capsys, ["bounds", "--market", spec_dir["tri"],
                                       "--payoff", spec_dir["call1"]])
        assert text_values(text) == doc == {"lower": 0.0, "upper": 0.25}
        for argv in (["np", "--market", str(market), "--payoff", spec_dir["call5"]],
                     ["dynamics", *specs, "--state", "u,1"]):
            text, doc = self.both(capsys, argv)
            vals = text_values(text)
            assert list(vals) == list(doc), argv[0]
            for name, value in doc.items():
                if isinstance(value, list):
                    assert vals[name] == ",".join(map(str, value))
                else:
                    assert vals[name] == value, name

    @pytest.mark.parametrize("command", ["converge", "lan-report"])
    def test_csv_commands(self, spec_dir, capsys, command):
        header = {"converge": CONVERGE_HEADER, "lan-report": LAN_HEADER}[command]
        text, doc = self.both(capsys, [command, "--study", spec_dir["study"]])
        lines = text.splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + len(doc) == 3
        for line, row in zip(lines[1:], doc):
            assert list(row) == header.split(",")
            assert [float(cell) for cell in line.split(",")] == list(row.values())


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, spec_dir):
        a = spec_dir["dir"] / "a.csv"
        b = spec_dir["dir"] / "b.csv"
        assert main(["converge", "--study", spec_dir["study"],
                     "--out", str(a)]) == 0
        assert main(["converge", "--study", spec_dir["study"],
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        content = a.read_bytes()
        assert b"\r" not in content
        assert content.endswith(b"\n")

    def test_out_file_matches_stdout(self, spec_dir, capsys):
        path = spec_dir["dir"] / "price.txt"
        assert main(["price", "--market", spec_dir["crr1"],
                     "--payoff", spec_dir["call5"]]) == 0
        stdout = capsys.readouterr().out
        assert main(["price", "--market", spec_dir["crr1"],
                     "--payoff", spec_dir["call5"], "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == stdout


    def test_reused_parser_matches_fresh_parsers(self, spec_dir, capsys):
        """One parser serves every ``main`` call of a process; a rejected
        argument (argparse's ``SystemExit``) leaves it usable."""
        market, payoff = ["--market", spec_dir["crr2"]], ["--payoff", spec_dir["call5"]]
        calls = [
            ["price", *market, *payoff],
            ["complete", "--market", spec_dir["tri"], "--format", "json"],
            ["np", *market, *payoff, "--format", "json"],
            ["converge", "--study", spec_dir["study"]],
            ["price", *market, *payoff, "--format", "xml"],
            ["bounds", "--market", spec_dir["tri"], "--payoff", spec_dir["call1"]],
            ["dynamics", *market, *payoff, "--state", "u"],
        ]

        def run(fresh):
            results = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                results.append((capsys.readouterr().out, code))
            return results

        reused = run(fresh=False)
        assert [code for _, code in reused] == [0, 1, 0, 0, ("exit", 2), 0, 0]
        assert reused == run(fresh=True)


def test_commands_load_no_scipy(spec_dir):
    """Every command runs on numpy alone: one process imports the command
    line, runs each command through ``main`` (the large market and study
    reach the saddle-point pmf, the continued fraction and the normal cdf)
    and finds no ``scipy`` module loaded."""
    def write(name, doc):
        path = spec_dir["dir"] / name
        path.write_text(json.dumps(doc))
        return str(path)

    big = write("crr400.json", dict(CRR30, N=400))
    crr30 = write("crr30.json", CRR30)
    call = write("call100.json", {"type": "call", "K": 100.0})
    barrier = write("barrier.json", {"type": "barrier_up_out", "K": 100.0, "B": 130.0})
    study = write("study256.json", dict(STUDY, Ns=[16, 256], threshold=None))
    commands = [
        ["price", "--market", big, "--payoff", call],
        ["price", "--market", crr30, "--payoff", barrier],
        ["np", "--market", big, "--payoff", call],
        ["dynamics", "--market", big, "--payoff", call, "--state", "u,d,u"],
        ["bounds", "--market", spec_dir["tri"], "--payoff", spec_dir["call1"]],
        ["complete", "--market", crr30],
        ["converge", "--study", study],
        ["lan-report", "--study", study],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "import lecam.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [lecam.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(name for name in sys.modules\n"
        "                                if name.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(commands)
    assert loaded == []


def test_module_entry_point(spec_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "lecam", "complete",
         "--market", spec_dir["crr1"]],
        capture_output=True, text=True,
        env=dict(os.environ),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "complete: true"
