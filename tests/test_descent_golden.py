"""Seeded descent reports, gauge verdicts and MC lifts, pinned byte for
byte.

tests/golden/descent.json holds sha256 digests of
  * `verify_descent` reports (3 samples) on segment-heisenberg/t^3,
    circle-probe2/t^3, triple-ef/t^3 and circle-ef/t^3 (N = 2), at
    seeds 0, 1 and 808 and degree bounds 1 and 2;
  * seeded `gauge_equivalent` outcomes on `random_nilpotent` draws,
    with the pairs of MC elements sampled for them, half of the pairs
    gauge-related and half drawn independently;
  * `mc_lift` results on `random_acyclic_fibration` draws;
  * `random_mc` draws on `random_nilpotent` algebras, a seed whose
    draws need a second, a third and a fourth randomized round of the
    MC correction and the deterministic round after four failed ones.
The corpus golden covers ef-based instances only, whose degree-0 gauge
group is abelian; these cover the nonabelian gauge searches, the
sampler's retry rounds and its obstructed draws.  A refactor must leave
every digest as it is; a change that alters a result on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_descent_golden.py

and says so.
"""

import hashlib
import json
import random
from pathlib import Path

from dgdescent.cech import (cech_cosimplicial, tensored_cover,
                            verify_descent)
from dgdescent.instances import (circle_cover, ef_algebra, heisenberg,
                                 probe_class2, random_acyclic_fibration,
                                 random_gauge, random_mc, random_nilpotent,
                                 segment_cover, t_truncated, triple_cover)
from dgdescent.mcgauge import (FiniteLieContext, gauge_act,
                               gauge_equivalent, mc_lift)

GOLDEN = Path(__file__).resolve().parent / "golden" / "descent.json"
INSTANCES = {
    "segment-heisenberg/t3": (segment_cover, heisenberg),
    "circle-probe2/t3": (circle_cover, probe_class2),
    "triple-ef/t3": (triple_cover, ef_algebra),
    "circle-ef/t3": (circle_cover, ef_algebra),
}
SEEDS = (0, 1, 808)
GAUGE_PAIRS = 30
LIFTS = 10
MC_DRAWS = 10


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True,
                                     default=repr).encode()).hexdigest()


def _element(x):
    return sorted([repr(k), str(v)] for k, v in (x or {}).items())


def results():
    """{name: the result it pins}, in a fixed order."""
    out = {}
    for name, (cover, algebra) in INSTANCES.items():
        cc = cech_cosimplicial(tensored_cover(cover(algebra()),
                                              t_truncated(3)), N=2)
        for seed in SEEDS:
            for D in (1, 2):
                out[f"verify_descent {name} seed={seed} D={D}"] = \
                    verify_descent(cc, samples=3, seed=seed, D=D)
    rng = random.Random(25)
    for i in range(GAUGE_PAIRS):
        nil = random_nilpotent(rng)
        ctx = FiniteLieContext(nil)
        x = random_mc(rng, nil)
        xp = gauge_act(ctx, random_gauge(rng, nil), x) if i % 2 == 0 \
            else random_mc(rng, nil)
        res = gauge_equivalent(ctx, x, xp)
        out[f"gauge_equivalent {i}"] = [
            _element(x), _element(xp), res.status, _element(res.witness),
            res.stage, res.reason]
    rng = random.Random(26)
    for i in range(LIFTS):
        f, nil_src, nil_tgt = random_acyclic_fibration(rng)
        xbar = random_mc(rng, nil_tgt)
        out[f"mc_lift {i}"] = [_element(xbar),
                               _element(mc_lift(f, nil_src, nil_tgt, xbar))]
    rng = random.Random(263)
    for i in range(MC_DRAWS):
        out[f"random_mc {i}"] = _element(random_mc(rng,
                                                   random_nilpotent(rng)))
    return out


def test_descent_results_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = {name: _digest(value) for name, value in results().items()}
    assert list(got) == list(golden)
    for name, digest in got.items():
        assert digest == golden[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: _digest(value) for name, value in results().items()},
        indent=1) + "\n")
