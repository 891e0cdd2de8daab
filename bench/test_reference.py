"""Tests of the reference checks against answers worked out by hand.

    python3 -m unittest discover -s bench -p "test_*.py"
"""
import unittest

import reference as ref


def market(firms, workers, menus):
    """A market from {(firm, worker): [(firm amount, worker amount), ...]}."""
    return ref.Market(
        {
            "agents": list(firms) + list(workers),
            "firms": list(firms),
            "workers": list(workers),
            "menus": [
                {"pair": [f, w], "contracts": [{str(f): str(x), str(w): str(y)} for x, y in cs]}
                for (f, w), cs in menus.items()
            ],
        }
    )


def outcome(m, matches, payoffs):
    return m.outcome({"matches": matches, "payoffs": {str(a): str(x) for a, x in payoffs.items()}})


# The builtin `illustration`: firms 1, 2 and workers 3, 4.
ILLUSTRATION = market(
    (1, 2),
    (3, 4),
    {
        (1, 3): [(3, 1), (1, 3)],
        (1, 4): [(4, 1), (1, 4)],
        (2, 3): [(3, 2), (2, 3)],
        (2, 4): [(4, 2), (2, 4)],
    },
)


class Illustration(unittest.TestCase):
    m = ILLUSTRATION

    def test_run_outcome_is_feasible_stable_and_wpo(self):
        # Firm 1 with worker 3 at (3, 1), firm 2 with worker 4 at (4, 2).
        pairs, v = outcome(self.m, [[1, 3], [2, 4]], {1: 3, 2: 4, 3: 1, 4: 2})
        self.assertTrue(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.blocking(self.m, v), [])
        self.assertIsNone(ref.firm_dominating_assignment(self.m, v))

    def test_five_stable_outcomes(self):
        # Of the eight full matchings, {1-3 (3,1), 2-4 (2,4)} is blocked by
        # 2-3 at (3,2), and both {1-4 (4,1), 2-3 (.,.)} by 2-4 at (4,2);
        # every partial matching leaves a pair that blocks at positive amounts.
        expected = {
            (((1, 3), (2, 4)), (3, 4, 1, 2)),
            (((1, 3), (2, 4)), (1, 4, 3, 2)),
            (((1, 3), (2, 4)), (1, 2, 3, 4)),
            (((1, 4), (2, 3)), (1, 3, 2, 4)),
            (((1, 4), (2, 3)), (1, 2, 3, 4)),
        }
        stable = ref.core(self.m)
        self.assertEqual(stable, expected)
        # The run bounds what every firm gets in any stable outcome.
        run = {1: 3, 2: 4, 3: 1, 4: 2}
        self.assertEqual(ref.firm_bound_violations(self.m, run, stable), [])
        self.assertTrue(ref.firm_bound_violations(self.m, {1: 1, 2: 4, 3: 3, 4: 2}, stable))

    def test_blocked_outcome(self):
        pairs, v = outcome(self.m, [[1, 3], [2, 4]], {1: 3, 2: 2, 3: 1, 4: 4})
        self.assertTrue(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.blocking(self.m, v), [((2, 3), (3, 2))])

    def test_stable_outcome_dominated_for_firms(self):
        # Both firms earn more at the run outcome than at (1, 2, 3, 4).
        _, v = outcome(self.m, [[1, 3], [2, 4]], {1: 1, 2: 2, 3: 3, 4: 4})
        self.assertEqual(ref.blocking(self.m, v), [])
        self.assertIsNotNone(ref.firm_dominating_assignment(self.m, v))

    def test_pairwise_efficient_but_yields_shared(self):
        self.assertTrue(ref.pairwise_efficient(self.m))
        # Firm 1 earns 1 with worker 3 and with worker 4.
        self.assertFalse(ref.disjoint_yields(self.m))

    def test_infeasible_outcomes(self):
        cases = [
            ([[1, 3], [2, 4]], {1: 3, 2: 4, 3: 2, 4: 2}),  # not a contract
            ([[1, 2]], {1: 0, 2: 0, 3: 0, 4: 0}),  # no menu for the pair
            ([], {1: 1, 2: 0, 3: 0, 4: 0}),  # a single paid more than 0
            ([[1, 3], [1, 4]], {1: 3, 2: 0, 3: 1, 4: 1}),  # agent matched twice
            ([[1, 3]], {1: 3, 3: 1}),  # agents missing
        ]
        for matches, payoffs in cases:
            pairs, v = outcome(self.m, matches, payoffs)
            self.assertFalse(ref.is_feasible(self.m, pairs, v), (matches, payoffs))


class OneContract(unittest.TestCase):
    # One firm, one worker and the single contract (3, 0).
    m = market((1,), (2,), {(1, 2): [(3, 0)]})

    def test_run_matches_the_pair(self):
        pairs, v = outcome(self.m, [[1, 2]], {1: 3, 2: 0})
        self.assertTrue(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.blocking(self.m, v), [])
        self.assertIsNone(ref.firm_dominating_assignment(self.m, v))

    def test_all_single_is_stable_but_not_wpo(self):
        # The worker gains nothing from the contract, so nothing blocks.
        pairs, v = outcome(self.m, [], {1: 0, 2: 0})
        self.assertTrue(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.blocking(self.m, v), [])
        self.assertEqual(ref.firm_dominating_assignment(self.m, v), {1: 2})

    def test_core_and_employment(self):
        stable = ref.core(self.m)
        self.assertEqual(stable, {(((1, 2),), (3, 0)), ((), (0, 0))})
        # Employment counted as a positive payoff differs between the two.
        self.assertFalse(ref.employment_invariant(self.m, stable))
        self.assertTrue(ref.pairwise_efficient(self.m))
        self.assertTrue(ref.disjoint_yields(self.m))


class FirmDominated(unittest.TestCase):
    # Matched crosswise at (1, 1), both firms could earn 2 by swapping
    # partners, yet no pair blocks because the workers would not gain.
    m = market(
        (1, 2),
        (3, 4),
        {(1, 3): [(2, 1)], (2, 4): [(2, 1)], (1, 4): [(1, 1)], (2, 3): [(1, 1)]},
    )

    def test_crosswise_outcome(self):
        pairs, v = outcome(self.m, [[1, 4], [2, 3]], {1: 1, 2: 1, 3: 1, 4: 1})
        self.assertTrue(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.blocking(self.m, v), [])
        self.assertEqual(ref.firm_dominating_assignment(self.m, v), {1: 3, 2: 4})

    def test_straight_outcome(self):
        _, v = outcome(self.m, [[1, 3], [2, 4]], {1: 2, 2: 2, 3: 1, 4: 1})
        self.assertIsNone(ref.firm_dominating_assignment(self.m, v))
        stable = ref.core(self.m)
        self.assertEqual(
            stable,
            {(((1, 3), (2, 4)), (2, 2, 1, 1)), (((1, 4), (2, 3)), (1, 1, 1, 1))},
        )
        self.assertEqual(ref.firm_bound_violations(self.m, v, stable), [])


def one_pair(*contracts):
    return market((1,), (2,), {(1, 2): list(contracts)})


class Hypotheses(unittest.TestCase):
    def test_pairwise_efficiency(self):
        self.assertTrue(ref.pairwise_efficient(one_pair((3, 1), (2, 2), (0, 5))))
        self.assertFalse(ref.pairwise_efficient(one_pair((3, 1), (3, 2))))  # firm amount equal
        self.assertFalse(ref.pairwise_efficient(one_pair((3, 1), (2, 0))))  # both lose

    def test_disjoint_yields(self):
        m = market((1,), (2, 3), {(1, 2): [(3, 0), (1, 2)], (1, 3): [(2, 0), (0, 4)]})
        self.assertTrue(ref.disjoint_yields(m))
        m = market((1,), (2, 3), {(1, 2): [(3, 0), (1, 2)], (1, 3): [(1, 0)]})
        self.assertFalse(ref.disjoint_yields(m))


class NegativeContract(unittest.TestCase):
    m = market((1,), (2,), {(1, 2): [(4, -1)]})

    def test_never_in_an_outcome(self):
        pairs, v = outcome(self.m, [[1, 2]], {1: 4, 2: -1})
        self.assertFalse(ref.is_feasible(self.m, pairs, v))
        self.assertEqual(ref.core(self.m), {((), (0, 0))})
        _, v = outcome(self.m, [], {1: 0, 2: 0})
        self.assertIsNone(ref.firm_dominating_assignment(self.m, v))


class ExactAmounts(unittest.TestCase):
    def test_fractions_are_compared_exactly(self):
        m = market((1,), (2,), {(1, 2): [("3/2", "1/3")]})
        self.assertEqual(m.scale, 6)
        pairs, v = outcome(m, [[1, 2]], {1: "3/2", 2: "1/3"})
        self.assertTrue(ref.is_feasible(m, pairs, v))
        _, v = outcome(m, [[1, 2]], {1: "3/2", 2: "1/4"})
        self.assertFalse(ref.is_feasible(m, pairs, v))
        _, v = outcome(m, [], {1: "1.4", 2: 0})
        self.assertEqual(ref.blocking(m, v), [((1, 2), (9, 2))])


if __name__ == "__main__":
    unittest.main()
