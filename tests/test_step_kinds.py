"""Which steps are the same is decided once, by ``lattice.group_steps``:
the grouped form itself, outputs pinned to the last bit on markets whose
classes and measures interleave step by step, and first-offending-step
messages of the checks that run once per kind."""

import numpy as np
import pytest

from lecam import (
    InvalidParams,
    LatticeMarket,
    NoArbitrageViolation,
    PathState,
    build_crr,
    convergence_study,
    discrete_market,
    dynamic_price,
    lan_diagnostics,
    np_decomposition,
    payoff_digital,
    payoff_european_call,
    payoff_european_put,
    payoff_from_json,
    payoff_straddle,
    price_bounds,
    price_direct,
    price_via_tests,
    solve_martingale_measures,
    study_from_json,
    third_lemma_check,
)
from lecam import lattice
from lecam.lattice import as_step_measures, group_steps


class TestStepKinds:
    def test_groups_by_value_in_first_seen_order(self):
        a, b = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        kinds = group_steps([b, a, b.copy(), a, b])
        assert len(kinds.kinds) == 2
        assert kinds.kinds[0] is b and kinds.kinds[1] is a
        assert kinds.index.tolist() == [0, 1, 0, 1, 0]
        assert kinds.first.tolist() == [0, 1]
        assert len(kinds) == 5 and kinds[2] is b and list(kinds)[1] is a

    def test_convert_runs_once_per_object(self):
        seen = []
        step = (1, 0.5)
        kinds = group_steps([step] * 1000 + [(1.0, 0.5)],
                            lambda item: seen.append(item) or tuple(map(float, item)))
        assert len(seen) == 2
        assert kinds.kinds == ((1.0, 0.5),) and not kinds.index.any()

    def test_slices_and_conversions_regroup(self):
        kinds = group_steps(["a", "b", "a", "c", "b"])
        tail = kinds[3:]
        assert tail.kinds == ("c", "b") and tail.index.tolist() == [0, 1]
        assert list(kinds[1:4]) == ["b", "a", "c"] and kinds[1:4].first.tolist() == [0, 1, 2]
        merged = group_steps(kinds, lambda item: item in "ab")
        assert merged.kinds == (True, False)
        assert merged.index.tolist() == [0, 0, 0, 1, 0]

    def test_market_keeps_steps_and_classes(self):
        up, down = ((1.2, 0.5), (0.9, 0.5)), ((1.2, 0.25), (0.9, 0.75))
        other = ((1.1, 0.5), (0.95, 0.5))
        m = LatticeMarket(5, 1.0, 1.0, (up, other, down, up, other), (0.0,) * 5)
        assert m.returns.index.tolist() == [0, 1, 2, 0, 1]
        assert m.classes.kinds == ((1.2, 0.9), (1.1, 0.95))
        assert m.classes.index.tolist() == [0, 1, 0, 0, 1]
        assert m.classes.first.tolist() == [0, 1]

    def test_head_shares_the_validated_steps(self, monkeypatch):
        m = LatticeMarket(6, 3.0, 2.0, (((1.2, 0.5), (0.9, 0.5)),) * 3
                          + (((1.1, 0.5), (0.95, 0.5)),) * 3,
                          (0.01, 0.02, 0.0, 0.01, 0.03, 0.0))
        want = LatticeMarket(4, 2.0, 2.0, m.returns[:4], m.bond_rates[:4])
        monkeypatch.setattr(LatticeMarket, "__post_init__", None)
        head = m.head(4)
        assert head == want
        assert head.returns.index.tolist() == want.returns.index.tolist()
        assert head.classes.kinds == want.classes.kinds
        assert head.bond_factor(4) == want.bond_factor(4)
        for n in (0, 7, -1):
            with pytest.raises(InvalidParams, match="head needs 1 to 6 steps"):
                m.head(n)

    def test_equal_per_step_by_value(self):
        m = LatticeMarket(4, 1.0, 1.0, (((1.2, 0.5), (0.9, 0.5)), ((1.1, 0.5), (0.95, 0.5))) * 2,
                          (0.0,) * 4)
        assert solve_martingale_measures(m) == solve_martingale_measures(m)
        assert hash(solve_martingale_measures(m)) == hash(solve_martingale_measures(m))
        one, _ = as_step_measures(m, solve_martingale_measures(m))
        assert one == as_step_measures(m, [np.array(q) for q in one])[0]
        assert one != one[:3]
        assert one != as_step_measures(m, list(one)[:3] + [np.array([0.5, 0.5])])[0]
        assert group_steps("abab") == group_steps("abab") != group_steps("abba")

    def test_measure_lists_of_the_wrong_length_are_rejected(self):
        m = build_crr(1.2, 0.9, 1.0, 0.5, 4, 1.0)
        q = np.array([1 / 3, 2 / 3])
        for qs in ([q] * 3, [q] * 5, [q]):
            message = f"^expected 4 step measures, got {len(qs)}$"
            for check in (lambda: as_step_measures(m, qs, strict=False),
                          lambda: lattice.terminal_log_atoms(m, qs),
                          lambda: price_direct(m, qs, payoff_european_call(1.0)),
                          lambda: as_step_measures(m, qs)):
                with pytest.raises(InvalidParams, match=message):
                    check()


class TestGroupedOnce:
    """A market keeps only its grouped steps, and each pricing route joins
    its measures to the return classes once."""

    TWO = ((1.2, 0.5), (0.9, 0.5))
    OTHER = ((1.1, 0.25), (0.95, 0.75))

    def counted(self, monkeypatch, name):
        calls = []
        original = getattr(lattice, name)
        monkeypatch.setattr(lattice, name,
                            lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))
        return calls

    def test_each_route_joins_measures_to_classes_once(self, monkeypatch):
        m = LatticeMarket(6, 1.0, 100.0, (self.TWO, self.OTHER) * 3, (0.01, 0.0) * 3)
        q = solve_martingale_measures(m)
        call, barrier = payoff_european_call(100.0), payoff_from_json(
            {"type": "barrier_up_out", "K": 100.0, "B": 150.0})
        joins = self.counted(monkeypatch, "_joint")
        routes = ((lambda: price_direct(m, q, call), 1),
                  (lambda: price_direct(m, q, barrier), 1),
                  (lambda: price_via_tests(m, q, call), 1),
                  (lambda: np_decomposition(m, q, call), 1),
                  (lambda: dynamic_price(m, q, call, PathState(3, (0, 1, 1))), 2))
        for route, want in routes:
            joins.clear()
            route()
            assert len(joins) == want

    def test_market_keeps_grouped_steps_and_head_does_not_regroup(self, monkeypatch):
        m = LatticeMarket(6, 1.0, 100.0, (self.TWO, self.OTHER) * 3, (0.01, 0.0) * 3)
        assert isinstance(m.returns, lattice.StepKinds)
        assert isinstance(m.bond_rates, lattice.StepKinds)
        assert m.returns.kinds == (self.TWO, self.OTHER) and m.bond_rates.kinds == (0.01, 0.0)
        groups = self.counted(monkeypatch, "group_steps")
        head = m.head(3)
        assert groups == []
        assert isinstance(head.returns, lattice.StepKinds) and list(head.returns) == [
            self.TWO, self.OTHER, self.TWO]
        assert head.bond_path.tolist() == m.bond_path[:4].tolist()

    @pytest.mark.parametrize("bond, lists", [({"const": 0.01}, 0),
                                             ({"r_simple_per_step": [0.01, 0.0] * 500_000}, 1)])
    def test_crr_spec_groups_its_rates_once(self, monkeypatch, bond, lists):
        """At N = 10^6 a CRR spec hands ``group_steps`` its per-step rate list
        once and a constant rate never; then only grouped steps follow."""
        walked = []
        original = lattice.group_steps

        def counted(items, *args):
            if not isinstance(items, lattice.StepKinds):
                walked.append(len(items))
            return original(items, *args)

        monkeypatch.setattr(lattice, "group_steps", counted)
        m = lattice.market_from_json({"N": 10**6, "T": 1.0, "s0": 100.0, "bond": bond,
                                      "returns": {"type": "crr", "u": 1.01, "d": 0.99}})
        assert walked == [10**6] * lists
        assert len(m.returns) == len(m.bond_rates) == 10**6
        assert len(m.returns.kinds) == len(m.bond_rates.kinds) == 1 + lists

    def test_valid_routes_never_look_up_first_steps(self, monkeypatch):
        """Building, solving and pricing valid markets, their price bounds
        and the lan rows never compute ``StepKinds.first``: it only names a
        step in an error."""
        def forbidden(kinds):
            raise AssertionError("StepKinds.first computed for valid input")

        monkeypatch.setattr(lattice.StepKinds, "first", property(forbidden))
        markets = (LatticeMarket(6, 1.0, 100.0, (self.TWO, self.OTHER) * 3, (0.01, 0.0) * 3),
                   build_crr(1.2, 0.9, 1.01, 0.5, 5, 100.0),
                   lattice.market_from_json({
                       "N": 3, "T": 1.0, "s0": 100.0, "bond": {"r_simple_per_step": [0.0] * 3},
                       "returns": {"type": "table", "values": [[1.2, 1.0, 0.9]] * 3,
                                   "probs": [[0.25, 0.5, 0.25]] * 3}}))
        call, barrier = payoff_european_call(100.0), payoff_from_json(
            {"type": "barrier_up_out", "K": 100.0, "B": 150.0})
        for m in markets:
            q = solve_martingale_measures(m)
            as_step_measures(m, q, strict=True)
            lattice.terminal_log_atoms(m, q.designated())
            price_direct(m, q, call)
            price_direct(m, q, barrier)
            price_via_tests(m, q, call)
            dynamic_price(m, q, call, PathState(2, (0, 1)))
            price_bounds(m, call)
        np_decomposition(markets[1], solve_martingale_measures(markets[1]), call)
        study = study_from_json({
            "tangent": {"type": "symmetric_trinomial", "probs": [0.25, 0.5, 0.25]},
            "bs": {"s0": 100.0, "T": 1.0, "sigma": {"pieces": [[0.5, 0.2], [1.0, 0.3]]},
                   "rate": {"pieces": [[0.5, 0.01], [1.0, 0.03]]}},
            "payoff": {"type": "call", "K": 100.0}, "Ns": [8, 32]})
        convergence_study(study.path, study.family(), study.payoff, study.bs, study.Ns)
        schedule = study.family()(32)
        market = discrete_market(study.path, schedule)
        lan_diagnostics(study.path, schedule, 0.5, market)
        third_lemma_check(study.path, schedule, 0.5, market)

    def test_probability_checks_come_before_martingale_checks(self):
        m = LatticeMarket(3, 1.0, 1.0, (self.TWO,) * 3, (0.0,) * 3)
        off, good = np.array([0.5, 0.5]), np.array([1 / 3, 2 / 3])
        with pytest.raises(InvalidParams, match="^step 2 measure has negative mass"):
            as_step_measures(m, [off, good, np.array([1.5, -0.5])], strict=True)
        with pytest.raises(InvalidParams, match="^step 0 measure is not a martingale"):
            as_step_measures(m, [off, good, good], strict=True)
        as_step_measures(m, [off, good, good])  # no martingale check asked


# ---------------------------------------------------------------------------
# outputs pinned to the last bit
# ---------------------------------------------------------------------------

SIZES = (6, 7, 9, 12, 24, 41)


def interleaved_case(n, seed):
    """Two three-point return classes and two strictly positive martingale
    measures per class, interleaved step by step (class ``j % 2``, measure
    ``(j // 2) % 2``), each step holding its own copy of its vector."""
    rng = np.random.default_rng(seed)
    steps, rates = [], []
    for _ in range(2):
        values = (1.0 + rng.uniform(0.03, 0.2), 1.0 + rng.uniform(0.001, 0.02),
                  1.0 - rng.uniform(0.03, 0.2))
        steps.append(tuple(zip(values, rng.dirichlet([2.0, 2.0, 2.0]).tolist())))
        rates.append(float(rng.uniform(0.0, 0.01)))
    m = LatticeMarket(n, 1.0, 100.0, tuple(steps[j % 2] for j in range(n)),
                      tuple(rates[j % 2] for j in range(n)))
    solutions = solve_martingale_measures(m)
    measures = []
    for c in range(2):
        a, b = (np.array(v) for v in solutions.per_step[c].vertices)
        measures.append([w * a + (1.0 - w) * b for w in (0.3, 0.65)])
    qs = [measures[j % 2][(j // 2) % 2].copy() for j in range(n)]
    return m, qs


def outputs(n, seed):
    m, qs = interleaved_case(n, seed)
    strike = 100.0 * m.bond_factor(n) * 1.0123
    payoffs = {
        "call": payoff_european_call(strike),
        "put": payoff_european_put(strike),
        "digital": payoff_digital(strike),
        "straddle": payoff_straddle(strike),
        "mixed": payoff_from_json({"type": "sum", "terms": [
            {"type": "call", "K": strike},
            {"type": "barrier_up_out", "K": 100.0, "B": 100.0 * 1.09 ** (n / 6)}]}),
    }
    out = {}
    for name, payoff in payoffs.items():
        out[f"{name}/direct"] = price_direct(m, qs, payoff)
        report = price_via_tests(m, qs, payoff)
        out[f"{name}/tests"] = report.price
        for i, term in enumerate(report.terms):
            out[f"{name}/alt{i}"] = term.power_alt
            out[f"{name}/base{i}"] = term.power_base
    dec = np_decomposition(m, qs, payoffs["call"])
    out["np/price"], out["np/risk"] = dec.price, dec.risk
    state = PathState(3, (0, 2, 1))
    out["dynamic/call"] = dynamic_price(m, qs, payoffs["call"], state)
    if n <= 24:
        out["bounds/lower"], out["bounds/upper"] = price_bounds(m, payoffs["straddle"])
    return out


#: ``float.hex`` of :func:`outputs` as computed with scipy's binomial pmf
#: and cdf (Boost's, behind ``scipy.stats.binom``) and before steps were
#: grouped once per market (per-step measure lists, ``dict`` keyed
#: groupings).  The ``dynamic/call`` values are node prices with the
#: observed moves pinned as fixed counts on the full market, not re-based on
#: a float spot: within 3.2e-15 relative of the re-based values, both within
#: 1.3e-14 of exact path sums for n <= 12.
REFERENCE = {
    6: {
        "call/direct": "0x1.a86cac2fa9c79p+2",
        "call/tests": "0x1.a86cac2fa9c78p+2",
        "call/alt0": "0x1.f559378f4263dp-2",
        "call/base0": "0x1.ac2c8e13a0eb7p-2",
        "put/direct": "0x1.f724fe1b2ee57p+2",
        "put/tests": "0x1.f724fe1b2ee58p+2",
        "put/alt0": "0x1.055364385ececp-1",
        "put/base0": "0x1.29e9b8f62f8aep-1",
        "digital/direct": "0x1.a7f91f04edd6fp-2",
        "digital/tests": "0x1.a7f91f04edd6fp-2",
        "digital/alt0": "0x1.f559378f4263dp-2",
        "digital/base0": "0x1.ac2c8e13a0eb7p-2",
        "straddle/direct": "0x1.cfc8d5256c550p+3",
        "straddle/tests": "0x1.cfc8d5256c550p+3",
        "straddle/alt0": "0x1.f559378f42636p-2",
        "straddle/base0": "0x1.ac2c8e13a0eb6p-2",
        "straddle/alt1": "0x1.055364385ececp-1",
        "straddle/base1": "0x1.29e9b8f62f8aep-1",
        "mixed/direct": "0x1.bac629377711ap+2",
        "mixed/tests": "0x1.bac629377711ap+2",
        "mixed/alt0": "0x1.f559378f4263dp-2",
        "mixed/base0": "0x1.ac2c8e13a0eb7p-2",
        "mixed/alt1": "0x1.42d4087ad0b88p-4",
        "mixed/base1": "0x1.3a2ab9bc09ff4p-4",
        "np/price": "0x1.a86cac2fa9c78p+2",
        "np/risk": "0x1.db1fc03c880eep-2",
        "dynamic/call": "0x1.52db6399013ebp+3",
        "bounds/lower": "0x1.f90b46df20d71p+0",
        "bounds/upper": "0x1.680a5cfcc9a67p+4",
    },
    7: {
        "call/direct": "0x1.ca8c1ea25831dp+2",
        "call/tests": "0x1.ca8c1ea258320p+2",
        "call/alt0": "0x1.00e9a26714a61p-1",
        "call/base0": "0x1.b31b1bb294176p-2",
        "put/direct": "0x1.0ca23846eea83p+3",
        "put/tests": "0x1.0ca23846eea84p+3",
        "put/alt0": "0x1.fe2cbb31d6b40p-2",
        "put/base0": "0x1.26727226b5f47p-1",
        "digital/direct": "0x1.99c320c5f5d0ap-2",
        "digital/tests": "0x1.99c320c5f5d0ap-2",
        "digital/alt0": "0x1.00e9a26714a61p-1",
        "digital/base0": "0x1.b31b1bb294176p-2",
        "straddle/direct": "0x1.f1e847981ac07p+3",
        "straddle/tests": "0x1.f1e847981ac00p+3",
        "straddle/alt0": "0x1.00e9a26714a62p-1",
        "straddle/base0": "0x1.b31b1bb29417bp-2",
        "straddle/alt1": "0x1.fe2cbb31d6b42p-2",
        "straddle/base1": "0x1.26727226b5f47p-1",
        "mixed/direct": "0x1.e7d25aa013b22p+2",
        "mixed/tests": "0x1.e7d25aa013b2cp+2",
        "mixed/alt0": "0x1.00e9a26714a61p-1",
        "mixed/base0": "0x1.b31b1bb294176p-2",
        "mixed/alt1": "0x1.acd7c5aa2ff4bp-4",
        "mixed/base1": "0x1.b378e7e01819dp-4",
        "np/price": "0x1.ca8c1ea258320p+2",
        "np/risk": "0x1.d8692fcd6f773p-2",
        "dynamic/call": "0x1.89983d625de24p+3",
        "bounds/lower": "0x1.659a76f493149p+2",
        "bounds/upper": "0x1.58c9b55a0045ep+4",
    },
    9: {
        "call/direct": "0x1.9302d19c3c92ap+3",
        "call/tests": "0x1.9302d19c3c928p+3",
        "call/alt0": "0x1.21d417d3e16e6p-1",
        "call/base0": "0x1.bd379fbc3b247p-2",
        "put/direct": "0x1.ba5efa91ff22bp+3",
        "put/tests": "0x1.ba5efa91ff228p+3",
        "put/alt0": "0x1.bc57d0583d23ep-2",
        "put/base0": "0x1.21643021e26e4p-1",
        "digital/direct": "0x1.9ce806da44041p-2",
        "digital/tests": "0x1.9ce806da44041p-2",
        "digital/alt0": "0x1.21d417d3e16e6p-1",
        "digital/base0": "0x1.bd379fbc3b247p-2",
        "straddle/direct": "0x1.a6b0e6171dd99p+4",
        "straddle/tests": "0x1.a6b0e6171dd9cp+4",
        "straddle/alt0": "0x1.21d417d3e16e7p-1",
        "straddle/base0": "0x1.bd379fbc3b24bp-2",
        "straddle/alt1": "0x1.bc57d0583d23ep-2",
        "straddle/base1": "0x1.21643021e26e1p-1",
        "mixed/direct": "0x1.9e182262f6ef3p+3",
        "mixed/tests": "0x1.9e182262f6ef1p+3",
        "mixed/alt0": "0x1.21d417d3e16e6p-1",
        "mixed/base0": "0x1.bd379fbc3b247p-2",
        "mixed/alt1": "0x1.b19613a8e7612p-5",
        "mixed/base1": "0x1.b4ec07a18064ap-5",
        "np/price": "0x1.9302d19c3c928p+3",
        "np/risk": "0x1.bcc867257a95cp-2",
        "dynamic/call": "0x1.3522987dfde99p+3",
        "bounds/lower": "0x1.894b05604d44ap+3",
        "bounds/upper": "0x1.22b41e0b64678p+5",
    },
    12: {
        "call/direct": "0x1.43a1bab5e4c38p+3",
        "call/tests": "0x1.43a1bab5e4c38p+3",
        "call/alt0": "0x1.2eaf8fcd6166cp-1",
        "call/base0": "0x1.efb64fc73e55fp-2",
        "put/direct": "0x1.6afde3aba7523p+3",
        "put/tests": "0x1.6afde3aba7528p+3",
        "put/alt0": "0x1.a2a0e0653d325p-2",
        "put/base0": "0x1.0824d81c60d4ep-1",
        "digital/direct": "0x1.c58b41a17af2bp-2",
        "digital/tests": "0x1.c58b41a17af2bp-2",
        "digital/alt0": "0x1.2eaf8fcd6166cp-1",
        "digital/base0": "0x1.efb64fc73e55fp-2",
        "straddle/direct": "0x1.574fcf30c609fp+4",
        "straddle/tests": "0x1.574fcf30c609ep+4",
        "straddle/alt0": "0x1.2eaf8fcd6166bp-1",
        "straddle/base0": "0x1.efb64fc73e55ep-2",
        "straddle/alt1": "0x1.a2a0e0653d322p-2",
        "straddle/base1": "0x1.0824d81c60d48p-1",
        "mixed/direct": "0x1.57a3c551fca23p+3",
        "mixed/tests": "0x1.57a3c551fca22p+3",
        "mixed/alt0": "0x1.2eaf8fcd6166cp-1",
        "mixed/base0": "0x1.efb64fc73e55fp-2",
        "mixed/alt1": "0x1.5ac41eddfbc6ap-4",
        "mixed/base1": "0x1.5f03eb687e750p-4",
        "np/price": "0x1.43a1bab5e4c38p+3",
        "np/risk": "0x1.c967e74bbca1ap-2",
        "dynamic/call": "0x1.582b650edb4a6p+1",
        "bounds/lower": "0x1.eec91e25755b4p+3",
        "bounds/upper": "0x1.9104bc8ad977bp+4",
    },
    24: {
        "call/direct": "0x1.5c3f91f8cf485p+4",
        "call/tests": "0x1.5c3f91f8cf484p+4",
        "call/alt0": "0x1.3c6986d227c78p-1",
        "call/base0": "0x1.94f6e57620de4p-2",
        "put/direct": "0x1.6feda673b08fbp+4",
        "put/tests": "0x1.6feda673b08fcp+4",
        "put/alt0": "0x1.872cf25bb0716p-2",
        "put/base0": "0x1.35848d44ef910p-1",
        "digital/direct": "0x1.8199a59d8010dp-2",
        "digital/tests": "0x1.8199a59d8010dp-2",
        "digital/alt0": "0x1.3c6986d227c78p-1",
        "digital/base0": "0x1.94f6e57620de4p-2",
        "straddle/direct": "0x1.66169c363ff04p+5",
        "straddle/tests": "0x1.66169c363ff04p+5",
        "straddle/alt0": "0x1.3c6986d227c8ap-1",
        "straddle/base0": "0x1.94f6e57620de0p-2",
        "straddle/alt1": "0x1.872cf25bb0711p-2",
        "straddle/base1": "0x1.35848d44ef925p-1",
        "mixed/direct": "0x1.74eeaeb8d9234p+4",
        "mixed/tests": "0x1.74eeaeb8d9234p+4",
        "mixed/alt0": "0x1.3c6986d227c78p-1",
        "mixed/base0": "0x1.94f6e57620de4p-2",
        "mixed/alt1": "0x1.d447a90b63e67p-4",
        "mixed/base1": "0x1.a96e86cb81b74p-4",
        "np/price": "0x1.5c3f91f8cf484p+4",
        "np/risk": "0x1.8e1cb5b37cfdap-2",
        "dynamic/call": "0x1.160af47831326p+4",
        "bounds/lower": "0x1.0e9ffb619a566p+4",
        "bounds/upper": "0x1.eaba0b414b9efp+5",
    },
    41: {
        "call/direct": "0x1.a0c779e095487p+3",
        "call/tests": "0x1.a0c779e095484p+3",
        "call/alt0": "0x1.127bc1effeccdp-1",
        "call/base0": "0x1.9a8c3adec0f5dp-2",
        "put/direct": "0x1.c823a2d657d79p+3",
        "put/tests": "0x1.c823a2d657d7cp+3",
        "put/alt0": "0x1.db087c200265dp-2",
        "put/base0": "0x1.32b9e2909f84dp-1",
        "digital/direct": "0x1.4947259a79bf6p-2",
        "digital/tests": "0x1.4947259a79bf6p-2",
        "digital/alt0": "0x1.127bc1effeccdp-1",
        "digital/base0": "0x1.9a8c3adec0f5dp-2",
        "straddle/direct": "0x1.b4758e5b768f0p+4",
        "straddle/tests": "0x1.b4758e5b768f0p+4",
        "straddle/alt0": "0x1.127bc1effecc8p-1",
        "straddle/base0": "0x1.9a8c3adec0f44p-2",
        "straddle/alt1": "0x1.db087c200265cp-2",
        "straddle/base1": "0x1.32b9e2909f840p-1",
        "mixed/direct": "0x1.8d76f22b7e263p+4",
        "mixed/tests": "0x1.8d76f22b7e25ep+4",
        "mixed/alt0": "0x1.127bc1effeccdp-1",
        "mixed/base0": "0x1.9a8c3adec0f5dp-2",
        "mixed/alt1": "0x1.13ebd7a9d320ep-1",
        "mixed/base1": "0x1.0c95bb213a215p-1",
        "np/price": "0x1.a0c779e095484p+3",
        "np/risk": "0x1.ba97e7a1c4281p-2",
        "dynamic/call": "0x1.49e6bbfd63ad5p+4",
    },
}

#: ``float.hex`` of :func:`outputs` with the binomial pmf and cdf of
#: :mod:`lecam._binom`: each within 1e-12 relative of :data:`REFERENCE`.
#: The ``bounds`` entries are those of the one batched pass over every
#: vertex multiset (within 1.2e-15 relative of one law per multiset).
PINNED = {
    6: {
        "call/direct": "0x1.a86cac2fa9c61p+2",
        "call/tests": "0x1.a86cac2fa9c60p+2",
        "call/alt0": "0x1.f559378f42632p-2",
        "call/base0": "0x1.ac2c8e13a0eafp-2",
        "put/direct": "0x1.f724fe1b2ee4fp+2",
        "put/tests": "0x1.f724fe1b2ee58p+2",
        "put/alt0": "0x1.055364385ece6p-1",
        "put/base0": "0x1.29e9b8f62f8a8p-1",
        "digital/direct": "0x1.a7f91f04edd67p-2",
        "digital/tests": "0x1.a7f91f04edd67p-2",
        "digital/alt0": "0x1.f559378f42632p-2",
        "digital/base0": "0x1.ac2c8e13a0eafp-2",
        "straddle/direct": "0x1.cfc8d5256c550p+3",
        "straddle/tests": "0x1.cfc8d5256c558p+3",
        "straddle/alt0": "0x1.f559378f42630p-2",
        "straddle/base0": "0x1.ac2c8e13a0eaep-2",
        "straddle/alt1": "0x1.055364385ece8p-1",
        "straddle/base1": "0x1.29e9b8f62f8a9p-1",
        "mixed/direct": "0x1.bac6293777103p+2",
        "mixed/tests": "0x1.bac6293777102p+2",
        "mixed/alt0": "0x1.f559378f42632p-2",
        "mixed/base0": "0x1.ac2c8e13a0eafp-2",
        "mixed/alt1": "0x1.42d4087ad0b88p-4",
        "mixed/base1": "0x1.3a2ab9bc09ff4p-4",
        "np/price": "0x1.a86cac2fa9c60p+2",
        "np/risk": "0x1.db1fc03c880efp-2",
        "dynamic/call": "0x1.52db6399013ebp+3",
        "bounds/lower": "0x1.f90b46df20d61p+0",
        "bounds/upper": "0x1.680a5cfcc9a69p+4",
    },
    7: {
        "call/direct": "0x1.ca8c1ea25831dp+2",
        "call/tests": "0x1.ca8c1ea258320p+2",
        "call/alt0": "0x1.00e9a26714a61p-1",
        "call/base0": "0x1.b31b1bb294176p-2",
        "put/direct": "0x1.0ca23846eea83p+3",
        "put/tests": "0x1.0ca23846eea84p+3",
        "put/alt0": "0x1.fe2cbb31d6b40p-2",
        "put/base0": "0x1.26727226b5f47p-1",
        "digital/direct": "0x1.99c320c5f5d0ap-2",
        "digital/tests": "0x1.99c320c5f5d0ap-2",
        "digital/alt0": "0x1.00e9a26714a61p-1",
        "digital/base0": "0x1.b31b1bb294176p-2",
        "straddle/direct": "0x1.f1e847981ac03p+3",
        "straddle/tests": "0x1.f1e847981ac04p+3",
        "straddle/alt0": "0x1.00e9a26714a61p-1",
        "straddle/base0": "0x1.b31b1bb29417bp-2",
        "straddle/alt1": "0x1.fe2cbb31d6b3fp-2",
        "straddle/base1": "0x1.26727226b5f46p-1",
        "mixed/direct": "0x1.e7d25aa013b22p+2",
        "mixed/tests": "0x1.e7d25aa013b2cp+2",
        "mixed/alt0": "0x1.00e9a26714a61p-1",
        "mixed/base0": "0x1.b31b1bb294176p-2",
        "mixed/alt1": "0x1.acd7c5aa2ff4bp-4",
        "mixed/base1": "0x1.b378e7e01819dp-4",
        "np/price": "0x1.ca8c1ea258320p+2",
        "np/risk": "0x1.d8692fcd6f773p-2",
        "dynamic/call": "0x1.89983d625de1cp+3",
        "bounds/lower": "0x1.659a76f493151p+2",
        "bounds/upper": "0x1.58c9b55a00452p+4",
    },
    9: {
        "call/direct": "0x1.9302d19c3c92ap+3",
        "call/tests": "0x1.9302d19c3c928p+3",
        "call/alt0": "0x1.21d417d3e16e2p-1",
        "call/base0": "0x1.bd379fbc3b23fp-2",
        "put/direct": "0x1.ba5efa91ff218p+3",
        "put/tests": "0x1.ba5efa91ff214p+3",
        "put/alt0": "0x1.bc57d0583d236p-2",
        "put/base0": "0x1.21643021e26ddp-1",
        "digital/direct": "0x1.9ce806da44039p-2",
        "digital/tests": "0x1.9ce806da44039p-2",
        "digital/alt0": "0x1.21d417d3e16e2p-1",
        "digital/base0": "0x1.bd379fbc3b23fp-2",
        "straddle/direct": "0x1.a6b0e6171dd8ep+4",
        "straddle/tests": "0x1.a6b0e6171dd90p+4",
        "straddle/alt0": "0x1.21d417d3e16e1p-1",
        "straddle/base0": "0x1.bd379fbc3b242p-2",
        "straddle/alt1": "0x1.bc57d0583d236p-2",
        "straddle/base1": "0x1.21643021e26dap-1",
        "mixed/direct": "0x1.9e182262f6ef3p+3",
        "mixed/tests": "0x1.9e182262f6ef1p+3",
        "mixed/alt0": "0x1.21d417d3e16e2p-1",
        "mixed/base0": "0x1.bd379fbc3b23fp-2",
        "mixed/alt1": "0x1.b19613a8e7612p-5",
        "mixed/base1": "0x1.b4ec07a18064ap-5",
        "np/price": "0x1.9302d19c3c928p+3",
        "np/risk": "0x1.bcc867257a95cp-2",
        "dynamic/call": "0x1.3522987dfde95p+3",
        "bounds/lower": "0x1.894b05604d44dp+3",
        "bounds/upper": "0x1.22b41e0b64678p+5",
    },
    12: {
        "call/direct": "0x1.43a1bab5e4c3fp+3",
        "call/tests": "0x1.43a1bab5e4c38p+3",
        "call/alt0": "0x1.2eaf8fcd6166ep-1",
        "call/base0": "0x1.efb64fc73e562p-2",
        "put/direct": "0x1.6afde3aba7523p+3",
        "put/tests": "0x1.6afde3aba7524p+3",
        "put/alt0": "0x1.a2a0e0653d326p-2",
        "put/base0": "0x1.0824d81c60d4ep-1",
        "digital/direct": "0x1.c58b41a17af2dp-2",
        "digital/tests": "0x1.c58b41a17af2dp-2",
        "digital/alt0": "0x1.2eaf8fcd6166ep-1",
        "digital/base0": "0x1.efb64fc73e562p-2",
        "straddle/direct": "0x1.574fcf30c60a4p+4",
        "straddle/tests": "0x1.574fcf30c60a4p+4",
        "straddle/alt0": "0x1.2eaf8fcd6166cp-1",
        "straddle/base0": "0x1.efb64fc73e560p-2",
        "straddle/alt1": "0x1.a2a0e0653d323p-2",
        "straddle/base1": "0x1.0824d81c60d4ap-1",
        "mixed/direct": "0x1.57a3c551fca2ap+3",
        "mixed/tests": "0x1.57a3c551fca22p+3",
        "mixed/alt0": "0x1.2eaf8fcd6166ep-1",
        "mixed/base0": "0x1.efb64fc73e562p-2",
        "mixed/alt1": "0x1.5ac41eddfbc6ap-4",
        "mixed/base1": "0x1.5f03eb687e750p-4",
        "np/price": "0x1.43a1bab5e4c38p+3",
        "np/risk": "0x1.c967e74bbca1ap-2",
        "dynamic/call": "0x1.582b650edb49fp+1",
        "bounds/lower": "0x1.eec91e25755a9p+3",
        "bounds/upper": "0x1.9104bc8ad9775p+4",
    },
    24: {
        "call/direct": "0x1.5c3f91f8cf483p+4",
        "call/tests": "0x1.5c3f91f8cf482p+4",
        "call/alt0": "0x1.3c6986d227c76p-1",
        "call/base0": "0x1.94f6e57620de0p-2",
        "put/direct": "0x1.6feda673b08f4p+4",
        "put/tests": "0x1.6feda673b08f4p+4",
        "put/alt0": "0x1.872cf25bb0713p-2",
        "put/base0": "0x1.35848d44ef90cp-1",
        "digital/direct": "0x1.8199a59d80109p-2",
        "digital/tests": "0x1.8199a59d80109p-2",
        "digital/alt0": "0x1.3c6986d227c76p-1",
        "digital/base0": "0x1.94f6e57620de0p-2",
        "straddle/direct": "0x1.66169c363fefcp+5",
        "straddle/tests": "0x1.66169c363fefcp+5",
        "straddle/alt0": "0x1.3c6986d227c86p-1",
        "straddle/base0": "0x1.94f6e57620ddcp-2",
        "straddle/alt1": "0x1.872cf25bb070ep-2",
        "straddle/base1": "0x1.35848d44ef921p-1",
        "mixed/direct": "0x1.74eeaeb8d9232p+4",
        "mixed/tests": "0x1.74eeaeb8d9232p+4",
        "mixed/alt0": "0x1.3c6986d227c76p-1",
        "mixed/base0": "0x1.94f6e57620de0p-2",
        "mixed/alt1": "0x1.d447a90b63e67p-4",
        "mixed/base1": "0x1.a96e86cb81b74p-4",
        "np/price": "0x1.5c3f91f8cf482p+4",
        "np/risk": "0x1.8e1cb5b37cfdap-2",
        "dynamic/call": "0x1.160af4783132cp+4",
        "bounds/lower": "0x1.0e9ffb619a562p+4",
        "bounds/upper": "0x1.eaba0b414b9f5p+5",
    },
    41: {
        "call/direct": "0x1.a0c779e095484p+3",
        "call/tests": "0x1.a0c779e095480p+3",
        "call/alt0": "0x1.127bc1effeccbp-1",
        "call/base0": "0x1.9a8c3adec0f5ap-2",
        "put/direct": "0x1.c823a2d657d79p+3",
        "put/tests": "0x1.c823a2d657d7cp+3",
        "put/alt0": "0x1.db087c2002659p-2",
        "put/base0": "0x1.32b9e2909f84bp-1",
        "digital/direct": "0x1.4947259a79bf4p-2",
        "digital/tests": "0x1.4947259a79bf4p-2",
        "digital/alt0": "0x1.127bc1effeccbp-1",
        "digital/base0": "0x1.9a8c3adec0f5ap-2",
        "straddle/direct": "0x1.b4758e5b768e7p+4",
        "straddle/tests": "0x1.b4758e5b768eap+4",
        "straddle/alt0": "0x1.127bc1effecc5p-1",
        "straddle/base0": "0x1.9a8c3adec0f44p-2",
        "straddle/alt1": "0x1.db087c200265ap-2",
        "straddle/base1": "0x1.32b9e2909f83fp-1",
        "mixed/direct": "0x1.8d76f22b7e261p+4",
        "mixed/tests": "0x1.8d76f22b7e25cp+4",
        "mixed/alt0": "0x1.127bc1effeccbp-1",
        "mixed/base0": "0x1.9a8c3adec0f5ap-2",
        "mixed/alt1": "0x1.13ebd7a9d320ep-1",
        "mixed/base1": "0x1.0c95bb213a215p-1",
        "np/price": "0x1.a0c779e095480p+3",
        "np/risk": "0x1.ba97e7a1c4282p-2",
        "dynamic/call": "0x1.49e6bbfd63ac7p+4",
    },
}


@pytest.mark.parametrize("n", SIZES)
def test_outputs_bitwise_equal_to_pinned(n):
    got = outputs(n, 100 + n)
    assert {key: float.hex(value) for key, value in got.items()} == PINNED[n]
    for key, value in got.items():
        assert value == pytest.approx(float.fromhex(REFERENCE[n][key]), rel=1e-12, abs=0)


def test_interleaved_cases_have_two_groups_per_class():
    m, qs = interleaved_case(9, 109)
    _, groups = as_step_measures(m, qs)
    assert [[size for _, size in per_class] for _, per_class in groups] == [[3, 2], [2, 2]]


# ---------------------------------------------------------------------------
# the first offending step is still named
# ---------------------------------------------------------------------------

class TestFirstOffendingStep:
    """An otherwise CRR market of 100000 steps, bad at step 70000 alone."""

    N, BAD = 100_000, 70_000
    STEP = ((1.001, 0.5), (0.999, 0.5))

    def measures(self, bad):
        qs = [np.array([0.5, 0.5])] * self.N
        qs[self.BAD] = np.array(bad)
        return qs

    def test_bad_probability(self):
        steps = [self.STEP] * self.N
        steps[self.BAD] = ((1.001, 0.5), (0.999, 0.6))
        with pytest.raises(InvalidParams, match="^step 70000 probabilities sum"):
            LatticeMarket(self.N, 1.0, 100.0, tuple(steps), (0.0,) * self.N)

    def test_bad_measure_vector(self):
        m = build_crr(1.001, 0.999, 1.0, 0.5, self.N, 100.0)
        with pytest.raises(InvalidParams, match="^step 70000 measure has negative mass"):
            as_step_measures(m, self.measures([1.5, -0.5]))
        with pytest.raises(InvalidParams, match="^step 70000 measure has wrong length"):
            price_direct(m, self.measures([0.5, 0.25, 0.25]), payoff_european_call(100.0))

    def test_measure_not_a_martingale_measure(self):
        m = build_crr(1.001, 0.999, 1.0, 0.5, self.N, 100.0)
        qs = self.measures([0.6, 0.4])
        with pytest.raises(InvalidParams, match="^step 70000 measure is not a martingale"):
            as_step_measures(m, qs, strict=False)
        with pytest.raises(InvalidParams, match="^step 70000 measure is not a martingale"):
            price_via_tests(m, qs, payoff_european_call(100.0))


class TestFirstOffendingSolvedStep:
    """Martingale measures are solved once per step kind: a bad kind first
    met mid-market, between good kinds that alternate, is named by its
    first step."""

    N, BAD = 100_000, 70_000
    STEPS = (((1.001, 0.5), (0.999, 0.5)), ((1.002, 0.25), (0.998, 0.75)))

    @pytest.mark.parametrize("bad, message", [
        (((1.1, 0.5), (1.2, 0.5)), r"^step 70000: returns \[1\.1, 1\.2\] all on one side of 1$"),
        (((1.0, 0.5), (1.2, 0.5)),
         r"^step 70000: no equivalent martingale measure \(coordinates \[1\] forced to zero\)$"),
    ], ids=["one-side", "forced-to-zero"])
    def test_solving_names_the_first_bad_step(self, bad, message):
        steps = [self.STEPS[j % 2] for j in range(self.N)]
        steps[self.BAD] = steps[self.BAD + 3] = steps[-1] = bad
        m = LatticeMarket(self.N, 1.0, 100.0, tuple(steps), (0.0,) * self.N)
        assert len(m.returns.kinds) == 3
        with pytest.raises(NoArbitrageViolation, match=message):
            solve_martingale_measures(m)
        with pytest.raises(NoArbitrageViolation, match=message):
            price_bounds(m, payoff_european_call(100.0))
