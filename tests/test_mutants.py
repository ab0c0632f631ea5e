"""Mutants the descent check must catch.

Each test plants one deliberate fault in the program with monkeypatch
and requires `verify_descent` to report it as falsified: a check that
stays "verified" on a broken program has no power to falsify.  The
unmutated run of the same instance and seed is "verified", so a
falsified verdict names the mutant and nothing else.
"""

import pytest

from dgdescent import tot
from dgdescent.cech import cech_cosimplicial, tensored_cover, verify_descent
from dgdescent.dgla import el_add
from dgdescent.instances import heisenberg, segment_cover, t_truncated

SAMPLES, SEED, D = 5, 808, 2


def _report():
    """verify_descent on segment-heisenberg/t^3, on a fresh algebra."""
    cc = cech_cosimplicial(
        tensored_cover(segment_cover(heisenberg()), t_truncated(3)), N=2)
    report = verify_descent(cc, samples=SAMPLES, seed=SEED, D=D)
    (check,) = [c for c in report["checks"]
                if c["name"] == "sampled gluing round-trips"]
    return report, check


def test_the_unmutated_check_verifies():
    report, check = _report()
    assert report["falsified"] == 0
    assert check["verdict"] == "verified"


BCH = tot.bch
MUTANTS = {
    # the composition convention reversed: act by y1, then by y2
    "swapped bch": lambda ctx, y1, y2: BCH(ctx, y2, y1),
    # composition as if the levels were abelian
    "additive bch": lambda ctx, y1, y2: el_add(y1, y2),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_broken_bch_in_the_descent_groupoid_is_falsified(monkeypatch,
                                                            name):
    monkeypatch.setattr(tot, "bch", MUTANTS[name])
    report, check = _report()
    assert report["falsified"] >= 1
    assert check["verdict"] == "falsified"
