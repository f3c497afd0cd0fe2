"""Seeded request generators for the benchmark workloads.

Each generator yields argv lists for `python3 -m bellgamma.cli`, without
end.  Requests come in cycles whose mix of request kinds is fixed, and
sizes come from strata that rotate between cycles; the seed draws the
order and the values inside each stratum.  So every seed gives different
requests with nearly the same composition, which keeps the spread
between runs small.
"""

from __future__ import annotations

import random

# "defects" is not in BENCHMARK.json: it sends only requests that fail at
# baseline, so a benchmark run on it reports every request as failed.
WORKLOADS = ("sweep", "points", "exact", "defects")

# (a, mu) pairs of the sweep: a in {2, 3, 4} with every mu = 1..a-1.
SWEEP_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
# (a, mu) pairs of the points workload: the whole range the CLI accepts.
POINT_PAIRS = tuple((a, mu) for a in range(2, 9) for mu in range(1, a))

# Digits of the `constants` request in each `exact` cycle alternate
# between the small and the medium stratum.  Past 4300 digits Python
# refuses int->str, so such requests fail at baseline (a known defect);
# they are sent by the separate `defects` workload, not by `exact`.
_PAST_LIMIT = (4301, 4400)
_CONST_STRATA = ((10, 300), (300, 1000))

_PROFILE_KINDS = ("theorem-linear-form", "theorem-qn", "corollary")


def _log_scale(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) log-uniformly onto the integers lo..hi."""
    return min(hi, int(round(lo * (hi / lo) ** u)))


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return _log_scale(rng.random(), lo, hi)


def sweep(rng: random.Random):
    """Cold `table` requests: one per (a, mu) pair per cycle, each over an
    ascending n range up to a stop from one of six log strata of 100..240.
    Half start at 0 with eight steps, half at ceil(stop/2) with four to
    eight.  Either way the table cache regrows by doubling and ends at
    about the stop, so a request's cost follows its stop, not its step.
    Strata and starts rotate over the pairs: every twelve cycles give
    each pair each stratum with each start."""
    pairs = rng.sample(SWEEP_PAIRS, len(SWEEP_PAIRS))
    k = len(pairs)
    cycle = 0
    while True:
        for i, (a, mu) in enumerate(pairs):
            stop = _log_scale(((i + cycle) % k + rng.random()) / k, 100, 240)
            if (i + cycle // k) % 2:
                start, step = 0, stop // 8
            else:
                start = stop - stop // 2
                step = max(1, (stop - start) // rng.randint(4, 8))
            yield ["table", "--a", str(a), "--mu", str(mu),
                   "--n", "%d:%d:%d" % (start, stop, step), "--format", "json"]
        cycle += 1


def points(rng: random.Random):
    """Cold single `approx` requests: every (a, mu) with a in 2..8 and
    mu in 1..a-1 once per cycle, n from one of seven log strata of
    12..n_top.  n_top shrinks with a and mu so that the largest requests
    of every pair cost about the same.  Strata rotate over the pairs, so
    every seven cycles give each pair each stratum."""
    pairs = rng.sample(POINT_PAIRS, len(POINT_PAIRS))
    cycle = 0
    while True:
        for i, (a, mu) in enumerate(pairs):
            n_top = round((340 - 30 * a) * (1 - 0.4 * (mu - 1) / (a - 1)))
            n = _log_scale(((i + cycle) % 7 + rng.random()) / 7, 12, n_top)
            yield ["approx", "--a", str(a), "--mu", str(mu), "--n", str(n),
                   "--format", "json"]
        cycle += 1


def _stratum(rng: random.Random, lo: int, hi: int, i: int, k: int) -> int:
    """A uniform integer from the i-th of k equal strata of lo..hi."""
    return lo + int((hi - lo + 1) * (i + rng.random()) / k)


def _exact_cycle(rng: random.Random, k: int, digits: int) -> list:
    a_roots = rng.randint(2, 8)
    a_asy = rng.randint(2, 8)
    # zeta(m) costs grow with m and digits; cap m where digits are many
    zeta_max = (rng.randint(2, 12) if digits <= 300
                else 2 if digits > 1000 else rng.randint(2, 4))
    asy = ["asymptotics", "--a", str(a_asy), "--format", "json"]
    kind = rng.choice(_PROFILE_KINDS + (None,))
    if kind:
        asy += ["--kind", kind]
    if rng.random() < 0.5:
        asy += ["--n", str(_log_uniform(rng, 10, 5000))]
    reqs = [
        ["verify", "--suite", "lemma1", "--a", str(2 + k % 4),
         "--nmax", str(_stratum(rng, 8, 24, k // 4 % 2, 2))],
        ["verify", "--suite", "recurrences",
         "--nmax", str(_stratum(rng, 30, 120, (k + k // 4) % 4, 4))],
        ["verify", "--suite", "integrality", "--a", str(rng.randint(2, 8)),
         "--nmax", str(rng.randint(8, 40))],
        ["verify", "--suite", "bernoulli"],
        ["verify", "--suite", "bell"],
        ["verify", "--suite", "tail", "--digits", str(_stratum(rng, 20, 400, k % 2, 2))],
        ["verify", "--suite", "saddle"],
        ["constants", "--digits", str(digits), "--zeta-max", str(zeta_max),
         "--format", "json"],
        ["roots", "--a", str(a_roots), "--u", str(rng.randint(-a_roots, a_roots)),
         "--n", str(10 ** rng.randint(3, 9)), "--format", "json"],
        asy,
    ]
    rng.shuffle(reqs)
    return reqs


def exact(rng: random.Random):
    """Cycles of every `verify` suite plus one `constants`, `roots` and
    `asymptotics` request each.  lemma1's a and the size strata of the
    heavier suites rotate with the cycle; constants digits as described
    at _CONST_STRATA."""
    k = 0
    while True:
        yield from _exact_cycle(rng, k, _log_uniform(rng, *_CONST_STRATA[k % 2]))
        k += 1


def defects(rng: random.Random):
    """`constants` requests past Python's int->str limit, which exit 1
    after seconds of oracle work at baseline.  Run this workload to see
    whether that defect is still there; it is kept out of `exact` so that
    the benchmarked workloads have no failing request."""
    while True:
        yield ["constants", "--digits", str(rng.randint(*_PAST_LIMIT)),
               "--zeta-max", "2", "--format", "json"]


def requests(workload: str, seed: int):
    """The endless request stream of one workload for one seed."""
    gen = {"sweep": sweep, "points": points, "exact": exact,
           "defects": defects}[workload]
    return gen(random.Random("%s:%d" % (workload, seed)))
