"""Registry of quantitative claims about the six indices, and the engine
that evaluates every claim against brute-force oracles over exhaustive,
family, and seeded-random instance streams.

Each claim is pre-registered with the status its statement is expected to
earn ("holds", or "discrepancy" for statements whose stated form fails desk
checks).  A run *matches* when every final status equals its registration;
any flip is the failure signal.  Desk-corrected variants of the discrepancy
formulas ride along as shadow claims, outside the registry proper.

Each claim's registry row names its report suite, its check and the stream
it reads.  `_STREAMS` is the one table of streams (corpus, trees, products,
each family's instance set, the fixed cases), and each requested stream is
swept once for all the claims that read it; a corpus reader may cap the
orders it reads, as DEF-PWW-ALT (the corpus6 suite) reads the classes up to
order 6.  One loop, `_evaluate`, does the counting, witness selection and
error handling for every pass.  The corpus stream reads the classes: one
graph per isomorphism class, weighted by its n!/|Aut(G)| labelings, in the
labeling it was grown in.  A violating class is kept as one witness key,
its canonical mask, found by one search of its rows where it is checked,
and the report expands the kept classes into their labeled graphs.  The
product factors keep the labeling they were grown in too.

`run_claims` cuts every requested stream into jobs and runs them all in one
process pool: the corpus classes one job per part of `corpus._class_parts`,
each order below max_n - 2 whole, from one walk of the class levels in the
parent, then each class of order max_n - 2, from which its worker grows the
two largest orders (the walk goes to the larger of max_n - 2 and
FACTOR_MAX_N, the largest product factor); the random graphs, trees and
factor pairs, the family parameters and the fixed cases in blocks whose
items the parent makes in stream order; the free trees in one job.  A job
is made, its block drawn from its stream's own rng, only when the pool has
a worker free for it, so the parent never holds the jobs of a whole stream.
Each claim's parts merge in its stream's order as they come, and a part
after one whose check raised counts nothing, so the report is that of one
serial pass whatever the worker count.  No result feeds back into the
jobs: a job's claims and instances follow from the claims asked for and
the budget alone.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import combinations_with_replacement, islice, product
from math import comb
from typing import Callable, Iterable, Iterator

from . import corpus, generators, trees
from .errors import InvalidParameterError
from .graphs import Graph, build_graph, cartesian_product
from .graphio import write_graph6
from .indices import Profile

DEFAULT_SEED = 1729

# The largest `trials`, a bound on the run time.  `run_claims` draws each
# block of random graphs, trees and factor pairs only when its job is
# dispatched, so the parent's memory does not grow with it: at 100,000
# trials and the defaults otherwise, on 2 workers of a 2-vCPU guest, the
# audit takes about 57 s under `ulimit -v 100000`, and the parent's peak RSS
# before its first result is 18 MiB.
MAX_TRIALS = 100_000

EXPECT_HOLDS = "holds"
EXPECT_DISCREPANCY = "discrepancy"

STATUS_HOLDS = "holds"
STATUS_VIOLATED = "violated"
STATUS_SKIPPED = "skipped"

TREE_SUITE_MAX_N = 10
RANDOM_TREE_MAX_N = 40
FACTOR_MAX_N = 5
RANDOM_FACTOR_MAX_N = 6
FAMILY_MAX = 6
COMPLETE_MAX = 8
HYPERCUBE_MAX = 6
CATERPILLAR_SPINE_MAX = 6
CATERPILLAR_LEAF_MAX = 4
DIAM4_CHILD_MAX = 4
DIAM4_TUPLE_MAX = 4

_MAX_WITNESSES = 10

_NA = object()


@dataclass(frozen=True, slots=True)
class Budget:
    """Suite-size knobs: exhaustive-corpus ceiling, random trial count,
    seed, and worker count (0 = one worker per CPU)."""

    max_n: int = 7
    trials: int = 1000
    seed: int = DEFAULT_SEED
    threads: int = 0

    def __post_init__(self):
        if not 2 <= self.max_n <= corpus.MAX_N:
            raise InvalidParameterError(f"max_n must be in 2..{corpus.MAX_N}, got {self.max_n}")
        if not 0 <= self.trials <= MAX_TRIALS:
            raise InvalidParameterError(f"trials must be in 0..{MAX_TRIALS}, got {self.trials}")
        if self.threads < 0:
            raise InvalidParameterError(f"threads must be >= 0, got {self.threads}")


@dataclass(frozen=True, slots=True)
class Claim:
    """One registered statement: stable id, statement text, report suite,
    pre-registered expected status, its check, which takes the args of each
    instance of the stream it reads (a key of `_STREAMS`, by default the
    suite's name), and a corpus reader's cap on the orders it reads, if
    any, `max_n`: above it, the check gives _NA."""

    id: str
    description: str
    anchor: str
    suite: str
    expected: str
    check: Callable
    stream: str = ""
    shadow: bool = False
    max_n: int | None = None

    def __post_init__(self):
        if not self.stream:
            object.__setattr__(self, "stream", self.suite)
        if self.max_n is not None:
            check, cap = self.check, self.max_n
            object.__setattr__(self, "check", lambda n, *args: _NA if n > cap else check(n, *args))


@dataclass(slots=True)
class ClaimResult:
    id: str
    description: str
    anchor: str
    suite: str
    expected: str
    status: str
    instances_tested: int
    violations: int
    witnesses: list[dict]
    note: str = ""

    @property
    def matched(self) -> bool:
        if self.expected == EXPECT_HOLDS:
            return self.status == STATUS_HOLDS
        return self.status == STATUS_VIOLATED


def fig2_tree() -> Graph:
    """The 5-vertex tree with root 0, children 1,2,3 and 3's child 4."""
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


def hypercube_series_value(n: int) -> int:
    """Registered hypercube closed form: sum_{i=1..n} 3^(n-i) * 2^(n+i-2)."""
    return sum(3 ** (n - i) * 2 ** (n + i - 2) for i in range(1, n + 1))


def hypercube_pww(n: int) -> int:
    """Desk-corrected hypercube closed form: n(n+3)4^(n-2)."""
    if n < 2:
        raise InvalidParameterError(f"needs n >= 2, got {n}")
    return n * (n + 3) * 4 ** (n - 2)


# --------------------------------------------------------------------------
# suites: the checks of each suite, and the streams they read
# --------------------------------------------------------------------------


# corpus suite: args (n, adjacency masks, profile) -------------------------


def _chk_le(a: str, b: str) -> Callable:
    """Check that index a never exceeds index b (one Hasse-diagram edge)."""
    i, j = Profile._fields.index(a), Profile._fields.index(b)

    def check(n, masks, p):
        if p[i] <= p[j]:
            return None
        return (f"{a.upper()}={p[i]}", f"{a.upper()} <= {b.upper()}={p[j]}")

    return check


def _chk_p1_4(n, masks, p):
    bound = comb(p.k, 2)
    if p.pww < bound:
        return (f"PWW={p.pww}", f"PWW >= C(k,2) = {bound}")
    complete = p.m == comb(n, 2)
    if (p.pww == bound) != complete:
        return (f"PWW={p.pww}, C(k,2)={bound}, complete={complete}",
                "equality exactly on complete graphs")
    return None


def _chk_eq_complete(n, masks, p):
    complete = p.m == comb(n, 2)
    all_equal = p.w == p.pw == p.ww == p.pww
    if complete != all_equal:
        return (f"W={p.w} PW={p.pw} WW={p.ww} PWW={p.pww}, complete={complete}",
                "four-way equality iff complete")
    return None


def _chk_eq_p2(n, masks, p):
    a = p.pww == p.ww == p.tww
    b = p.pw == p.w == p.tw
    is_p2 = n == 2
    if not (a == b == is_p2):
        return (f"PWW=WW=TWW is {a}, PW=W=TW is {b}, n={n}",
                "both equality chains iff the graph is P_2")
    return None


def _chk_t_bounds(n, masks, p):
    d = p.diameter
    gap = comb(n, 2) - comb(p.k, 2)
    lo = p.ww - (d * (d - 1) // 2) * gap
    hi = p.ww - gap
    if lo <= p.pww <= hi:
        return None
    return (f"PWW={p.pww}", f"{lo} <= PWW <= {hi}")


def _chk_c_diam2(n, masks, p):
    if p.diameter != 2:
        return _NA
    want = p.ww - comb(n, 2) + comb(p.k, 2)
    if p.pww == want:
        return None
    return (f"PWW={p.pww}", f"WW - C(n,2) + C(k,2) = {want}")


def _chk_t_diam2(n, masks, p):
    if p.diameter != 2:
        return _NA
    want = 2 * comb(n, 2) + comb(p.k, 2) - 2 * p.m
    if p.pww == want:
        return None
    return (f"PWW={p.pww}", f"2*C(n,2) + C(k,2) - 2m = {want}")


def _chk_pw_d3(n, masks, p):
    d = p.diameter
    if d < 3:
        return _NA
    half_k = (p.k + 1) // 2
    gap = comb(n, 2) - comb(p.k, 2)
    lo = d * half_k - (d - 3) * gap - p.m
    hi = (d - 1) * comb(n, 2) + (d + 1) * comb(p.k, 2) - (d - 2) * p.m - (d - 1) * half_k
    if lo <= p.pw <= hi:
        return None
    return (f"PW={p.pw}", f"{lo} <= PW <= {hi}")


def _chk_pww_d3(n, masks, p):
    d = p.diameter
    if d < 3:
        return _NA
    half_k = (p.k + 1) // 2
    s = d * (d - 1) // 2
    t = d * (d + 1) // 2
    gap = comb(n, 2) - comb(p.k, 2)
    lo = t * half_k + (3 - s) * gap - 2 * p.m
    hi = (s - 1) * comb(n, 2) + (t + 1) * comb(p.k, 2) - (1 - s) * p.m - s * half_k
    if lo <= p.pww <= hi:
        return None
    return (f"PWW={p.pww}", f"{lo} <= PWW <= {hi}")


def _chk_diam_comp(n, masks, p):
    if p.diameter < 4:
        return _NA
    cp = corpus.complement_profile(n, masks)
    if cp is None:
        return ("complement disconnected", "connected complement with diam <= 2")
    if cp.diameter > 2:
        return (f"diam(complement)={cp.diameter}", "diam(complement) <= 2")
    return None


def _chk_obs_no_2_5(n, masks, p):
    if p.pww in (2, 5):
        return (f"PWW={p.pww}", "PWW never 2 or 5")
    return None


def _grown_instances(classes: list[corpus.ClassEntry], depth: int):
    for n, grown in corpus._grown_levels(classes, depth):
        for weight, p, rows, _ in grown:
            yield (n, rows), weight, (n, rows, p)


def _corpus_chunk(ids: list[str], classes: list[corpus.ClassEntry], depth: int) -> dict[str, _Acc]:
    """Pool worker: the corpus checks `ids` over one part of the sweep
    (`corpus._class_parts`), order by order (`corpus._grown_levels`).  The
    classes carry their adjacency rows but no canonical mask; a violating
    one is keyed here, by one search of its rows (`_add_witnesses`)."""
    return _stream_chunk(ids, _grown_instances, (classes, depth))


def _connected_draw(rng: random.Random, n_lo: int, n_hi: int) -> tuple[int, float, int]:
    """The (order, edge probability, seed) of one random connected graph,
    three draws of rng; `generators.random_connected_graph` takes them."""
    return rng.randrange(n_lo, n_hi + 1), rng.uniform(0.3, 0.85), rng.randrange(1 << 30)


def _graph_draws(budget: Budget) -> Iterator[tuple[int, float, int]]:
    """The draws of the 10 x trials random connected graphs, each made when
    it is asked for."""
    rng = random.Random(budget.seed * 1_000_003 + 101)
    return (_connected_draw(rng, 8, 24) for _ in range(budget.trials * 10))


def _random_graphs(draws: Iterable[tuple[int, float, int]]):
    for draw in draws:
        g = generators.random_connected_graph(*draw)
        yield g, 1, (g.n, g.masks, corpus.profile_from_masks(g.n, g.masks))


def _corpus_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Every connected graph up to max_n vertices, one check per isomorphism
    class counted for each of its labelings, one job per part of the class
    sweep (`corpus._class_parts`); then 10 x trials random connected graphs
    in blocks."""
    for part in corpus._class_parts(budget.max_n, level):
        yield _corpus_chunk, part
    yield from _blocks(_random_graphs, _graph_draws(budget))


def _chk_def_pww_alt(n, masks, p):
    balls = corpus.layered_profile(Graph(n, tuple(masks)))[1]
    peri = corpus.periphery_mask(balls)
    vertex_sum = 0
    for v, dp in enumerate(corpus.distance_sums(balls, peri)):
        if (peri >> v) & 1:
            vertex_sum += dp + dp * dp
    # compare 4 * pair form against the raw vertex sum to stay in integers
    if 4 * p.pww == vertex_sum:
        return None
    return (f"pair form = {p.pww}", f"vertex form = {vertex_sum}/4")


# tree suite: args (tree, profile, tree view) ------------------------------


def _chk_pw_tree(g, p, tv):
    got = trees.peripheral_wiener_by_edge_cuts(tv)
    if got == p.pw:
        return None
    return (f"edge-cut sum = {got}", f"PW = {p.pw}")


def _chk_pww_tree(g, p, tv):
    got = trees.peripheral_hyper_wiener_by_path_cuts(tv)
    if got == p.pww:
        return None
    return (f"path-cut sum = {got}", f"PWW = {p.pww}")


def _chk_tree_lo(g, p, tv):
    lo, _ = trees.tree_pww_bounds(p.diameter, p.k)
    if p.pww >= lo:
        return None
    return (f"PWW={p.pww}", f"PWW >= k*C(d+2k-3,2) = {lo}")


def _chk_tree_hi(g, p, tv):
    _, hi = trees.tree_pww_bounds(p.diameter, p.k)
    if p.pww <= hi:
        return None
    return (f"PWW={p.pww}", f"PWW <= 4*C(d+1,2)*C(k,2) = {hi}")


def _chk_tree_hi_tight(g, p, tv):
    hi = comb(p.diameter + 1, 2) * comb(p.k, 2)
    if p.pww <= hi:
        return None
    return (f"PWW={p.pww}", f"PWW <= C(d+1,2)*C(k,2) = {hi}")


def _chk_comp_tree(g, p, tv):
    cpww = trees.complement_tree_pww(tv)
    if cpww is None:
        return _NA
    d = p.diameter
    big = (g.n * g.n + 3 * g.n - 4) // 2
    # both directions at once: big is never 6, because n^2 + 3n - 16 = 0 has
    # no integer root, so the value alone picks the case; a connected
    # complement with diam(T) <= 2 breaks the dichotomy
    if d >= 3 and cpww == (6 if d == 3 else big):
        return None
    return (f"PWW(complement)={cpww}, diam(T)={d}",
            f"6 iff diam=3, (n^2+3n-4)/2={big} iff diam>3")


def _tree_instances(graphs: Iterable[Graph]):
    for g in graphs:
        tv = trees.as_tree(g)
        yield g, 1, (g, tv.profile, tv)


def _free_trees():
    return _tree_instances(corpus.all_free_trees(2, TREE_SUITE_MAX_N))


def _random_trees(draws: Iterable[tuple[int, int]]):
    return _tree_instances(generators.random_tree(n, seed) for n, seed in draws)


def _tree_draws(budget: Budget) -> Iterator[tuple[int, int]]:
    """The (order, seed) of each random tree, each made when it is asked for."""
    rng = random.Random(budget.seed * 7919 + 5)
    return ((rng.randrange(2, RANDOM_TREE_MAX_N + 1), rng.randrange(1 << 30))
            for _ in range(budget.trials))


def _tree_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Every free tree up to TREE_SUITE_MAX_N vertices, then `trials` random
    trees."""
    yield _stream_chunk, (_free_trees, ())
    yield from _blocks(_random_trees, _tree_draws(budget))


# product suite: args ((profile, reach layers) of G, of H and of G x H) -----


def _distance(balls, v, u):
    return next(t for t, layer in enumerate(balls) if (layer[v] >> u) & 1)


def _chk_prod_dist(lg, lh, lp):
    """Ball by ball: ball_t((a,x)) = union over i+j=t of ball_i(a) x ball_j(x)."""
    (pg, bg), (ph, bh), (_, bp) = lg, lh, lp
    nh = ph.n
    # vertex (b, y) is bit b*nh + y: a ball of G fills whole blocks of nh
    # bits, and a ball of H repeats in every block
    block = (1 << nh) - 1
    every_block = sum(1 << (b * nh) for b in range(pg.n))
    rows = [[sum(block << (b * nh) for b in range(pg.n) if (ball >> b) & 1) for ball in layer]
            for layer in bg]
    cols = [[ball * every_block for ball in layer] for layer in bh]
    # past its diameter a factor's ball is the whole factor
    rows += [rows[-1]] * (len(bp) - len(rows))
    cols += [cols[-1]] * (len(bp) - len(cols))
    for t, layer in enumerate(bp):
        for a in range(pg.n):
            for x in range(nh):
                want = 0
                for i in range(t + 1):
                    want |= rows[i][a] & cols[t - i][x]
                diff = layer[a * nh + x] ^ want
                if diff:
                    b, y = divmod((diff & -diff).bit_length() - 1, nh)
                    return (f"d(({a},{x}),({b},{y})) = {_distance(bp, a * nh + x, b * nh + y)}",
                            f"{_distance(bg, a, b)} + {_distance(bh, x, y)}")
    return None


def _chk_prod_peri(lg, lh, lp):
    nh = lh[0].n
    peri_g, peri_h = corpus.periphery_mask(lg[1]), corpus.periphery_mask(lh[1])
    want = sum(peri_h << (a * nh) for a in range(lg[0].n) if (peri_g >> a) & 1)
    got = corpus.periphery_mask(lp[1])
    if got == want:
        return None
    return (f"Peri(product) size {got.bit_count()}", f"Peri(G) x Peri(H) size {want.bit_count()}")


def _chk_pw_prod(lg, lh, lp):
    pg, ph, pp = lg[0], lh[0], lp[0]
    want = ph.k ** 2 * pg.pw + pg.k ** 2 * ph.pw
    if pp.pw == want:
        return None
    return (f"PW(product)={pp.pw}", f"k2^2*PW1 + k1^2*PW2 = {want}")


def _chk_pww_prod(lg, lh, lp):
    pg, ph, pp = lg[0], lh[0], lp[0]
    want = ph.k ** 2 * pg.pww + pg.k ** 2 * ph.pww + 2 * pg.pw * ph.pw
    if pp.pww == want:
        return None
    return (f"PWW(product)={pp.pww}", f"k2^2*PWW1 + k1^2*PWW2 + 2*PW1*PW2 = {want}")


def _product_instances(pairs: Iterable[tuple[Graph, Graph]]):
    for g, h in pairs:
        prod = cartesian_product(g, h)
        yield prod, 1, tuple(map(corpus.layered_profile, (g, h, prod)))


def _random_products(draws: Iterable[tuple[tuple, tuple]]):
    return _product_instances((generators.random_connected_graph(*a),
                               generators.random_connected_graph(*b)) for a, b in draws)


def _product_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Every unordered pair, with repetition, of the connected classes up to
    FACTOR_MAX_N vertices as grown, then `trials` random pairs; the witness
    is their labeled product."""
    factors = [Graph(n, rows) for n in range(2, FACTOR_MAX_N + 1)
               for _, _, rows, _ in level(n)]
    yield from _blocks(_product_instances, combinations_with_replacement(factors, 2))
    rng = random.Random(budget.seed * 104729 + 11)
    yield from _blocks(_random_products, ((_connected_draw(rng, 2, RANDOM_FACTOR_MAX_N),
                                           _connected_draw(rng, 2, RANDOM_FACTOR_MAX_N))
                                          for _ in range(budget.trials)))


# family and fixed streams: args (graph, profile, parameters) -------------


def _pww_equals(value: Callable, label: str) -> Callable:
    """Check that PWW of a family member equals value(*params)."""

    def check(g, p, params):
        want = value(*params)
        return None if p.pww == want else (f"PWW={p.pww}", f"{label} = {want}")

    return check


def _members(make: Callable, params: list[tuple]):
    """The family members make(*q), q in `params`, each with its profile and
    parameters."""
    for q in params:
        g = make(*q)
        yield g, 1, (g, corpus.profile_of(g), q)


def _family(make: Callable, params: list[tuple]) -> Iterator[tuple]:
    """A family's stream: the parent lists the parameters, the workers build
    the members, in blocks."""
    return _blocks(partial(_members, make), params)


def _diam4_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Depth-2 trees, two or more of whose root children have leaves."""
    return _family(generators.rooted_depth2_tree,
                   [(counts,) for size in range(2, DIAM4_TUPLE_MAX + 1)
                    for counts in combinations_with_replacement(range(DIAM4_CHILD_MAX + 1), size)
                    if sum(1 for x in counts if x >= 1) >= 2])


def _caterpillars(codes: Iterable[tuple[int, ...]]):
    """The caterpillars of `codes`, as `_members` yields them, each followed
    by that of its spine reversal if it differs: the same graph, so it takes
    the code's profile, but built and checked as its own labeled graph."""
    for code in codes:
        g = generators.caterpillar(code)
        p = corpus.profile_of(g)
        yield g, 1, (g, p, (code,))
        if code != code[::-1]:
            g = generators.caterpillar(code[::-1])
            yield g, 1, (g, p, (code[::-1],))


def _caterpillar_codes() -> Iterator[tuple[int, ...]]:
    """Every caterpillar code up to the spine and leaf ceilings."""
    leaves = range(CATERPILLAR_LEAF_MAX + 1)
    return ((c1, *mids, cs) for s in range(2, CATERPILLAR_SPINE_MAX + 1)
            for c1 in leaves[1:] for cs in leaves[1:]
            for mids in product(leaves, repeat=s - 2))


def _caterpillar_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Every caterpillar code up to its spine reversal, in blocks; the
    workers add the reversals."""
    return _blocks(_caterpillars, (code for code in _caterpillar_codes() if code <= code[::-1]))


def _lobster_jobs(budget: Budget, level: Callable) -> Iterator[tuple]:
    """Lobsters of spine length 3 to 5, every count at most 3."""
    return _family(generators.lobster,
                   [((c1, 0, *mids, cs), cc) for s in range(3, 6)
                    for c1 in range(1, 4) for cs in range(1, 4)
                    for mids in product(range(3), repeat=s - 3) for cc in range(1, 4)])


def _chk_incomp(g, p, sign, statement):
    if (p.w > p.pww) - (p.w < p.pww) == sign:
        return None
    return (f"W={p.w}, PWW={p.pww}", statement)


def _chk_fig2(g, p):
    formula = 2 * comb(g.n, 2) + comb(p.k, 2) - 2 * g.m
    if p.pww == 15 and p.diameter == 3 and formula == p.pww:
        return None
    return (f"PWW={p.pww}, diam={p.diameter}, formula value={formula}",
            "PWW = 15 = formula value while diam = 3")


def _cases(cases: list[tuple]):
    """Named graphs, each with its profile and the rest of its case."""
    for g, *rest in cases:
        yield g, 1, (g, corpus.profile_of(g), *rest)


# every stream, as an iterator of its jobs in stream order, each made when
# it is asked for: stream(budget, level) -> (fn, args), ..., where level(n)
# is the list of n-vertex classes of the one walk of corpus.class_levels; a
# job runs fn(ids, *args) for the checks `ids` of the claims that read the
# stream
_STREAMS: dict[str, Callable[[Budget, Callable], Iterator[tuple]]] = {
    "corpus": _corpus_jobs,
    "trees": _tree_jobs,
    "products": _product_jobs,
    "complete": lambda budget, level: _family(
        generators.complete, [(nn,) for nn in range(2, COMPLETE_MAX + 1)]),
    "star": lambda budget, level: _family(
        generators.star, [(nn,) for nn in range(2, COMPLETE_MAX + 1)]),
    "complete-bipartite": lambda budget, level: _family(
        generators.complete_bipartite,
        [(m, nn) for m in range(2, FAMILY_MAX + 1) for nn in range(m, FAMILY_MAX + 1)]),
    "double-star": lambda budget, level: _family(
        generators.double_star,
        [(m, nn) for m in range(1, FAMILY_MAX + 1) for nn in range(m, FAMILY_MAX + 1)]),
    "hypercube": lambda budget, level: _family(
        generators.hypercube, [(d,) for d in range(2, HYPERCUBE_MAX + 1)]),
    "diameter-4": _diam4_jobs,
    "caterpillar": _caterpillar_jobs,
    "lobster": _lobster_jobs,
    "incomp": lambda budget, level: _blocks(_cases, [
        (generators.path(3), 1, "W > PWW on P_3"),
        (generators.star(4), -1, "W < PWW on K_{1,4}"),
        (generators.path(2), 0, "W = PWW on P_2")]),
    "fig2": lambda budget, level: _blocks(_cases, [(fig2_tree(),)]),
}


# --------------------------------------------------------------------------
# claim registry: one row per claim, with its suite, check and stream
# --------------------------------------------------------------------------


def _registry() -> dict[str, Claim]:
    c = Claim
    rows = [
        c("P1-1", "Closed form for PWW of complete graphs.",
          "PWW(K_n) = C(n,2)", "family", EXPECT_HOLDS,
          _pww_equals(lambda nn: comb(nn, 2), "C(n,2)"), "complete"),
        c("P1-2", "Closed form for PWW of stars.",
          "PWW(K_{1,n}) = 3*C(n,2) for n >= 2", "family", EXPECT_HOLDS,
          _pww_equals(lambda nn: 3 * comb(nn, 2), "3*C(n,2)"), "star"),
        c("P1-3", "Closed form for PWW of complete bipartite graphs.",
          "PWW(K_{m,n}) = 3*C(n,2) + 3*C(m,2) + m*n for n >= m >= 2", "family", EXPECT_HOLDS,
          _pww_equals(lambda m, nn: 3 * comb(nn, 2) + 3 * comb(m, 2) + m * nn,
                      "3C(n,2)+3C(m,2)+mn"), "complete-bipartite"),
        c("P1-4", "Lower bound C(k,2) with equality exactly on complete graphs.",
          "PWW(G) >= C(k,2), equality iff G = K_k", "corpus", EXPECT_HOLDS, _chk_p1_4),
        c("HASSE-1", "Peripheral Wiener never exceeds Wiener.",
          "PW(G) <= W(G)", "corpus", EXPECT_HOLDS, _chk_le("pw", "w")),
        c("HASSE-2", "Peripheral Wiener never exceeds peripheral hyper-Wiener.",
          "PW(G) <= PWW(G)", "corpus", EXPECT_HOLDS, _chk_le("pw", "pww")),
        c("HASSE-3", "Peripheral hyper-Wiener never exceeds hyper-Wiener.",
          "PWW(G) <= WW(G)", "corpus", EXPECT_HOLDS, _chk_le("pww", "ww")),
        c("HASSE-4", "Wiener never exceeds hyper-Wiener.",
          "W(G) <= WW(G)", "corpus", EXPECT_HOLDS, _chk_le("w", "ww")),
        c("EQ-COMPLETE", "All four indices coincide exactly on complete graphs.",
          "W = PW = WW = PWW iff G is complete", "corpus", EXPECT_HOLDS, _chk_eq_complete),
        c("EQ-P2", "Triple equality chains characterize the single edge.",
          "PWW = WW = TWW iff PW = W = TW iff G = P_2", "corpus", EXPECT_HOLDS, _chk_eq_p2),
        c("INCOMP-W-PWW", "W and PWW are incomparable in general.",
          "W(P_3) > PWW(P_3); W(K_{1,4}) < PWW(K_{1,4}); W(P_2) = PWW(P_2)",
          "fixed", EXPECT_HOLDS, _chk_incomp, "incomp"),
        c("T-BOUNDS", "PWW sandwiched between WW-derived bounds.",
          "WW - (d(d-1)/2)(C(n,2)-C(k,2)) <= PWW <= WW - C(n,2) + C(k,2)",
          "corpus", EXPECT_HOLDS, _chk_t_bounds),
        c("C-DIAM2", "At diameter 2 the upper WW-derived bound is exact.",
          "diam = 2 implies PWW = WW - C(n,2) + C(k,2)", "corpus", EXPECT_HOLDS, _chk_c_diam2),
        c("T-DIAM2", "Diameter-2 closed form from order, size, periphery.",
          "diam = 2 implies PWW = 2*C(n,2) + C(k,2) - 2m", "corpus", EXPECT_HOLDS, _chk_t_diam2),
        c("FIG2-NONCONVERSE", "The diameter-2 formula value can occur without diameter 2.",
          "a diameter-3 tree has PWW = 15 = 2*C(5,2) + C(3,2) - 2*4", "fixed", EXPECT_HOLDS,
          _chk_fig2, "fig2"),
        c("T-PW-D3", "PW bounds for diameter >= 3 from order, size, diameter, k.",
          "d*ceil(k/2) - (d-3)(C(n,2)-C(k,2)) - m <= PW <= "
          "(d-1)C(n,2) + (d+1)C(k,2) - (d-2)m - (d-1)ceil(k/2)", "corpus", EXPECT_HOLDS,
          _chk_pw_d3),
        c("T-PWW-D3", "PWW bounds for diameter >= 3 from order, size, diameter, k.",
          "(d(d+1)/2)ceil(k/2) + ((6-d(d-1))/2)(C(n,2)-C(k,2)) - 2m <= PWW <= "
          "((d(d-1)-2)/2)C(n,2) + ((d(d+1)+2)/2)C(k,2) - ((2-d(d-1))/2)m - (d(d-1)/2)ceil(k/2)",
          "corpus", EXPECT_HOLDS, _chk_pww_d3),
        c("L-PROD-DIST", "Distances in a cartesian product add coordinatewise.",
          "d((a,x),(b,y) | GxH) = d(a,b|G) + d(x,y|H)", "products", EXPECT_HOLDS,
          _chk_prod_dist),
        c("C-PROD-PERI", "Periphery of a product is the product of peripheries.",
          "Peri(GxH) = Peri(G) x Peri(H)", "products", EXPECT_HOLDS, _chk_prod_peri),
        c("T-PW-PROD", "PW of a product from factor PW values and periphery sizes.",
          "PW(G1xG2) = k2^2*PW(G1) + k1^2*PW(G2)", "products", EXPECT_HOLDS, _chk_pw_prod),
        c("T-PWW-PROD", "PWW of a product gains a PW cross term.",
          "PWW(G1xG2) = k2^2*PWW(G1) + k1^2*PWW(G2) + 2*PW(G1)*PW(G2)",
          "products", EXPECT_HOLDS, _chk_pww_prod),
        c("C-HYPERCUBE", "Registered hypercube closed form (fails from Q_3 on).",
          "PWW(Q_n) = sum_{i=1..n} 3^(n-i) * 2^(n+i-2)", "family", EXPECT_DISCREPANCY,
          _pww_equals(hypercube_series_value, "series value"), "hypercube"),
        c("T-PW-TREE", "Edge-cut formula for the peripheral Wiener of a tree.",
          "PW(T) = sum over edges of a1(e)*a2(e)", "trees", EXPECT_HOLDS, _chk_pw_tree),
        c("T-PWW-TREE", "Path-cut formula for the peripheral hyper-Wiener of a tree.",
          "PWW(T) = sum over vertex pairs of a1(pi_uv)*a2(pi_uv)", "trees", EXPECT_HOLDS,
          _chk_pww_tree),
        c("T-TREE-BOUNDS-LO", "Registered tree lower bound (fails already on P_2).",
          "k*C(d+2k-3,2) <= PWW(T)", "trees", EXPECT_DISCREPANCY, _chk_tree_lo),
        c("T-TREE-BOUNDS-HI", "Registered tree upper bound (valid, loose by 4x).",
          "PWW(T) <= 4*C(d+1,2)*C(k,2)", "trees", EXPECT_HOLDS, _chk_tree_hi),
        c("T-STAR", "Diameter-2 trees are stars with a closed form.",
          "PWW(star on n+1 vertices) = 3*C(n,2)", "family", EXPECT_HOLDS,
          _pww_equals(trees.closed_form_star, "3*C(n,2)"), "star"),
        c("T-DSTAR", "Registered double-star closed form (wrong linear terms).",
          "PWW(S_{m,n}) = 6mn + 3m + 3n", "family", EXPECT_DISCREPANCY,
          _pww_equals(trees.closed_form_double_star, "6mn+3m+3n"), "double-star"),
        c("P-DIAM4", "Diameter-4 closed form over grandchild sets.",
          "PWW = 10*sum_{i<j}|C_i||C_j| + 3*sum_i C(|C_i|,2)", "family", EXPECT_HOLDS,
          _pww_equals(trees.closed_form_diam4, "closed form"), "diameter-4"),
        c("L-DIAM-COMP", "Large diameter forces a small-diameter connected complement.",
          "diam(G) >= 4 implies complement(G) connected with diam <= 2",
          "corpus", EXPECT_HOLDS, _chk_diam_comp),
        c("T-COMP-TREE", "Dichotomy for PWW of a tree's connected complement.",
          "PWW(comp(T)) = 6 iff diam(T) = 3; = (n^2+3n-4)/2 iff diam(T) > 3",
          "trees", EXPECT_HOLDS, _chk_comp_tree),
        c("T-CATERPILLAR", "Caterpillar closed form from the code ends and spine length.",
          "PWW(C) = 3*C(c_1,2) + 3*C(c_s,2) + (c_1*c_s/2)(s+1)(s+2)",
          "family", EXPECT_HOLDS,
          _pww_equals(trees.closed_form_caterpillar, "closed form"), "caterpillar"),
        c("T-LOBSTER", "Registered lobster closed form (final term lacks a half).",
          "PWW(T) = 3C(c_1,2) + 3C(c_s,2) + 3C(c,2) + 10*c_1*c + c_s(c_1+c)(s+1)(s+2)",
          "family", EXPECT_DISCREPANCY,
          _pww_equals(trees.closed_form_lobster, "registered form"), "lobster"),
        c("DEF-PWW-ALT", "Vertex-sum rewriting of PWW (squares a sum; wrong in general).",
          "(1/2) sum_{pairs in Peri} (d + d^2) = (1/4) sum_{v in Peri} (d_P(v) + d_P(v)^2)",
          "corpus6", EXPECT_DISCREPANCY, _chk_def_pww_alt, "corpus", max_n=6),
        c("OBS-NO-2-5", "Observed value gaps: PWW never hits 2 or 5.",
          "no connected graph attains PWW = 2 or PWW = 5", "corpus", EXPECT_HOLDS,
          _chk_obs_no_2_5),
        # shadow claims: desk-corrected companions to the discrepancy claims
        c("S-DSTAR-FIX", "Corrected double-star closed form.",
          "PWW(S_{m,n}) = 6mn + 3*C(m,2) + 3*C(n,2)", "family", EXPECT_HOLDS,
          _pww_equals(trees.double_star_pww, "6mn+3C(m,2)+3C(n,2)"), "double-star",
          shadow=True),
        c("S-LOBSTER-FIX", "Corrected lobster closed form (final term halved).",
          "PWW(T) = 3C(c_1,2) + 3C(c_s,2) + 3C(c,2) + 10*c_1*c + (c_s(c_1+c)/2)(s+1)(s+2)",
          "family", EXPECT_HOLDS,
          _pww_equals(trees.lobster_pww, "corrected form"), "lobster", shadow=True),
        c("S-HYPERCUBE-FIX", "Corrected hypercube closed form.",
          "PWW(Q_n) = n(n+3)*4^(n-2)", "family", EXPECT_HOLDS,
          _pww_equals(hypercube_pww, "n(n+3)4^(n-2)"), "hypercube", shadow=True),
        c("S-TREE-UB-TIGHT", "Tree upper bound without the factor 4 (tight on stars).",
          "PWW(T) <= C(d+1,2)*C(k,2)", "trees", EXPECT_HOLDS, _chk_tree_hi_tight, shadow=True),
    ]
    return {row.id: row for row in rows}


_CLAIMS = _registry()


def register_claims() -> list[Claim]:
    """The full registry, in fixed order."""
    return [c for c in _CLAIMS.values() if not c.shadow]


def register_shadow_claims() -> list[Claim]:
    """Desk-corrected companions to the discrepancy claims."""
    return [c for c in _CLAIMS.values() if c.shadow]


# --------------------------------------------------------------------------
# evaluation engine
# --------------------------------------------------------------------------


class _Acc:
    """Per-claim accumulator with a capped, sorted witness list."""

    __slots__ = ("tested", "violations", "witnesses", "error")

    def __init__(self):
        self.tested = 0
        self.violations = 0
        self.witnesses: list[tuple] = []  # a job's keys, or `_finalize`'s witnesses
        self.error: str | None = None

    def add_witness(self, entry: tuple) -> None:
        """Keep the _MAX_WITNESSES smallest entries, in order."""
        kept = self.witnesses
        if len(kept) < _MAX_WITNESSES or entry < kept[-1]:
            insort(kept, entry)
            del kept[_MAX_WITNESSES:]

    def admits(self, n: int, mask: int) -> bool:
        """Whether a witness of n vertices and edge mask `mask` would enter
        the list."""
        kept = self.witnesses
        return len(kept) < _MAX_WITNESSES or (n, mask) < kept[-1][:2]

    def merge(self, other: _Acc) -> None:
        """Fold in the next part of the same claim's stream.  Once a part
        carries an error, the later parts are ignored, as a single pass
        stops at the first exception."""
        if self.error is not None:
            return
        self.tested += other.tested
        self.violations += other.violations
        self.error = other.error
        for entry in other.witnesses:
            self.add_witness(entry)


def _add_witnesses(acc: _Acc, subject, r: tuple[str, str]) -> None:
    """Offer the key of one violation, (n, edge mask, observed, expected,
    whole class): a Graph's own mask, or the canonical mask of an
    isomorphism class (n, adjacency rows), the smallest among its labeled
    graphs, found here by one search of its rows (`corpus.canonical_form`).
    Keys sort as their smallest labeled witnesses do in graph6 order."""
    if isinstance(subject, Graph):
        acc.add_witness((subject.n, corpus.g6_order_key(subject)) + r + (False,))
    else:
        n, rows = subject
        acc.add_witness((n, corpus.canonical_form(n, rows)[0]) + r + (True,))


def _evaluate(instances: Iterable[tuple], checks: list[tuple[str, Callable]],
              accs: dict[str, _Acc]) -> None:
    """Apply every (claim id, check) to every instance of a stream.

    A stream yields (subject, weight, args): the subject is the graph a
    witness shows (a Graph, or an isomorphism class as (n, adjacency
    rows)), the weight is the number of labeled graphs it stands for
    (n!/|Aut(G)| for a class, else 1), and check(*args) returns None
    (holds), _NA (does not apply) or an (observed, expected) pair.  The
    first exception a check raises marks only its claim skipped, with the
    exception as the note; once no check is live, no further instance is
    drawn.
    """
    live = [(accs[cid], fn) for cid, fn in checks]
    for subject, weight, args in instances:
        for acc, fn in live:
            try:
                r = fn(*args)
            except Exception as exc:  # a faulty check skips its own claim only
                acc.error = f"{type(exc).__name__}: {exc}"
                live = [entry for entry in live if entry[0] is not acc]
                continue
            if r is None:
                acc.tested += weight
            elif r is not _NA:
                acc.tested += weight
                acc.violations += weight
                _add_witnesses(acc, subject, r)
        if not live:
            break


def _finalize(claim: Claim, acc: _Acc) -> ClaimResult:
    if acc.error is not None or acc.tested == 0:
        status, note = STATUS_SKIPPED, acc.error or "no instances in suite"
    else:
        status, note = STATUS_VIOLATED if acc.violations else STATUS_HOLDS, ""
    # A key is the smallest labeled witness of its violation, so a labeled
    # witness whose key is not among the kept ten has ten distinct labeled
    # witnesses at or below it: expanding the kept keys alone, in order, and
    # skipping a class whose smallest mask is already too large, gives the
    # ten smallest labeled witnesses of the whole stream.
    shown = _Acc()
    for n, mask, obs, exp, whole_class in acc.witnesses:
        if not whole_class:
            shown.add_witness((n, mask, obs, exp))
        elif shown.admits(n, mask):
            for labeled in corpus.labelings(n, mask):
                shown.add_witness((n, labeled, obs, exp))
    witnesses = [{"graph6": write_graph6(Graph(n, corpus.mask_adjacency(n, mask))),
                  "observed": obs, "expected": exp} for n, mask, obs, exp in shown.witnesses]
    return ClaimResult(
        id=claim.id,
        description=claim.description,
        anchor=claim.anchor,
        suite=claim.suite,
        expected=claim.expected,
        status=status,
        instances_tested=acc.tested,
        violations=acc.violations,
        witnesses=witnesses,
        note=note,
    )


_BLOCK = 250  # items per job of a blocked stream


def _blocks(source: Callable, items: Iterable) -> Iterator[tuple]:
    """Jobs over `items` in consecutive blocks, each block taken from
    `items` when its job is asked for: source(block) yields a block's
    instances."""
    items = iter(items)
    while block := list(islice(items, _BLOCK)):
        yield _stream_chunk, (source, (block,))


def _stream_chunk(ids: list[str], source: Callable, args: tuple) -> dict[str, _Acc]:
    """Pool worker: the checks `ids` over one part of a stream, the
    instances of source(*args).  The checks are found by id in the
    registry, which a forked worker shares."""
    accs = {cid: _Acc() for cid in ids}
    _evaluate(source(*args), [(cid, _CLAIMS[cid].check) for cid in ids], accs)
    return accs


def _jobs(rows: list[Claim], budget: Budget) -> Iterator[tuple]:
    """The jobs of the given claims, each made when it is asked for: each
    stream that some row reads, once for all its readers, in the order of
    its first reader and each in its own order, every job checking all its
    readers.  A stream that only capped readers read is drawn no further
    than their largest cap.  The corpus and product streams read the class
    levels of one walk, taken only as far as they ask."""
    readers: dict[str, dict[str, int | None]] = {}
    for row in rows:
        readers.setdefault(row.stream, {})[row.id] = row.max_n
    level = corpus.class_levels()
    for stream, cap_of in readers.items():
        # only capped readers: their checks give _NA above the largest cap, as
        # on every random graph (orders 8 to 24, `_graph_draws`)
        drawn = budget if None in cap_of.values() else replace(
            budget, max_n=min(budget.max_n, max(cap_of.values())), trials=0)
        ids = list(cap_of)
        for fn, args in _STREAMS[stream](drawn, level):
            yield fn, (ids, *args)


def run_claims(claims: Iterable[Claim], budget: Budget) -> list[ClaimResult]:
    """Evaluate the given claims: every requested stream as jobs made as
    they are dispatched, all run in one pool (`corpus.run_jobs`), and each
    claim's parts merged in its stream's order as they come, so the report
    does not depend on the worker count.  Rows are read from the registry
    by id, as the pool workers read them."""
    claims = list(claims)
    accs = {c.id: _Acc() for c in claims}
    jobs = _jobs([_CLAIMS[cid] for cid in accs], budget)
    with closing(corpus.run_jobs(jobs, budget.threads)) as parts:
        for part in parts:
            for cid, acc in part.items():
                accs[cid].merge(acc)
    return [_finalize(c, accs[c.id]) for c in claims]


@dataclass(slots=True)
class AuditReport:
    results: list[ClaimResult]
    shadow_results: list[ClaimResult]
    budget: Budget

    def mismatches(self) -> list[ClaimResult]:
        return [r for r in self.results + self.shadow_results if not r.matched]

    def ok(self) -> bool:
        return not self.mismatches()

    def to_dict(self) -> dict:
        def encode(r: ClaimResult) -> dict:
            row = asdict(r)
            row["expected_status"] = row.pop("expected")
            row["matched"] = r.matched
            return row

        return {
            "schema_version": 1,
            "seed": self.budget.seed,
            "budget": {
                "max_n": self.budget.max_n,
                "trials": self.budget.trials,
            },
            "claims": [encode(r) for r in self.results],
            "shadow_claims": [encode(r) for r in self.shadow_results],
            "summary": {
                "claims": len(self.results),
                "shadow_claims": len(self.shadow_results),
                "matched": sum(1 for r in self.results + self.shadow_results if r.matched),
                "mismatched": len(self.mismatches()),
                "instances_tested": sum(r.instances_tested
                                        for r in self.results + self.shadow_results),
                "violations": sum(r.violations for r in self.results + self.shadow_results),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        lines = [f"{'claim':<18} {'status':<9} {'expected':<12} {'ok':<4} "
                 f"{'tested':>9} {'violations':>10}"]
        rows = [(r, "") for r in self.results] + [(r, "(shadow) ") for r in self.shadow_results]
        for r, tag in rows:
            ok = "yes" if r.matched else "FLIP"
            lines.append(f"{r.id:<18} {r.status:<9} {r.expected:<12} {ok:<4} "
                         f"{r.instances_tested:>9} {r.violations:>10} {tag}{r.note}")
        mm = self.mismatches()
        lines.append(
            f"summary: {len(self.results)} claims + {len(self.shadow_results)} shadow, "
            f"{len(mm)} mismatched"
        )
        return "\n".join(lines)


def select_claims(claim_ids: list[str] | None = None) -> tuple[list[Claim], list[Claim]]:
    """(registry claims, shadow claims) in fixed order, only those in
    `claim_ids` when it is given; InvalidParameterError on an unknown id or
    an empty list."""
    registry = register_claims()
    shadows = register_shadow_claims()
    if claim_ids is not None:
        if not claim_ids:
            raise InvalidParameterError("no claim ids given")
        wanted = set(claim_ids)
        unknown = wanted - set(_CLAIMS)
        if unknown:
            raise InvalidParameterError(f"unknown claim ids: {sorted(unknown)}")
        registry = [c for c in registry if c.id in wanted]
        shadows = [c for c in shadows if c.id in wanted]
    return registry, shadows


def run_all(budget: Budget | None = None, claim_ids: list[str] | None = None) -> AuditReport:
    """Evaluate the registry (optionally a subset) plus shadow claims."""
    budget = budget or Budget()
    registry, shadows = select_claims(claim_ids)
    results = run_claims(registry + shadows, budget)
    split = len(registry)
    return AuditReport(results=results[:split], shadow_results=results[split:], budget=budget)
