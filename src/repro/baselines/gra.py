"""GRA — the Genetic Replication Algorithm of Loukopoulos & Ahmad [21].

A population of candidate replication matrices evolves under tournament
selection, per-object uniform crossover, bit-flip mutation, and a repair
operator that restores capacity feasibility.  The paper's analysis of
why GRA trails the pack — "GRA specifically depends on the initial
selection of gene population" and "maintains a localized network
perception" — falls straight out of this design: fitness only sees whole
schemes, so the fine-grained marginal structure that greedy/mechanism
methods exploit is invisible to it at practical population sizes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ReplicaPlacer
from repro.drp.cost import otc_of_matrix, total_otc
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.result import PlacementResult
from repro.utils.rng import SeedLike, as_generator, spawn_children
from repro.utils.timing import Timer
from repro.utils.validation import check_nonnegative_int, check_positive_int


class GRAPlacer(ReplicaPlacer):
    """Genetic-algorithm replica placement.

    Parameters
    ----------
    population_size:
        Chromosomes per generation (paper-era GAs used 10–30).
    generations:
        Evolution budget.
    crossover_rate:
        Probability a child is produced by crossover (else cloned).
    mutation_flips:
        Expected number of bit flips per child.
    elitism:
        Chromosomes copied unchanged into the next generation.
    tournament:
        Tournament size for parent selection.
    """

    name = "GRA"

    def __init__(
        self,
        *,
        population_size: int = 16,
        generations: int = 25,
        crossover_rate: float = 0.9,
        mutation_flips: float = 4.0,
        elitism: int = 2,
        tournament: int = 3,
        seed: SeedLike = None,
    ):
        population_size = check_positive_int(population_size, "population_size")
        generations = check_positive_int(generations, "generations")
        elitism = check_nonnegative_int(elitism, "elitism")
        tournament = check_positive_int(tournament, "tournament")
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not (0.0 <= crossover_rate <= 1.0):
            raise ValueError("crossover_rate must be in [0, 1]")
        if mutation_flips < 0:
            raise ValueError("mutation_flips must be >= 0")
        if elitism >= population_size:
            raise ValueError("elitism must be in [0, population_size)")
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_flips = mutation_flips
        self.elitism = elitism
        self.tournament = tournament
        self.seed = seed

    # -- GA operators -------------------------------------------------------

    def _random_chromosome(
        self, instance: DRPInstance, rng: np.random.Generator, density: float
    ) -> np.ndarray:
        """Random feasible scheme filling ~``density`` of the headroom."""
        m, n = instance.n_servers, instance.n_objects
        x = np.zeros((m, n), dtype=bool)
        x[instance.primaries, np.arange(n)] = True
        residual = instance.replica_headroom().astype(np.int64).copy()
        budget = int(density * residual.sum())
        used = 0
        for flat in rng.permutation(m * n):
            if used >= budget:
                break
            i, k = divmod(int(flat), n)
            size = int(instance.sizes[k])
            if not x[i, k] and size <= residual[i]:
                x[i, k] = True
                residual[i] -= size
                used += size
        return x

    def _repair(self, instance: DRPInstance, x: np.ndarray, rng) -> None:
        """Drop random non-primary replicas from overloaded servers."""
        used = x @ instance.sizes
        over = np.flatnonzero(used > instance.capacities)
        cols = np.arange(instance.n_objects)
        for i in over:
            removable = np.flatnonzero(x[i] & (instance.primaries != i))
            rng.shuffle(removable)
            for k in removable:
                if used[i] <= instance.capacities[i]:
                    break
                x[i, k] = False
                used[i] -= instance.sizes[k]
        # Ensure primaries survived (mutation may have cleared them).
        x[instance.primaries, cols] = True

    def _crossover(self, a: np.ndarray, b: np.ndarray, rng) -> np.ndarray:
        """Uniform per-object column crossover."""
        take_a = rng.random(a.shape[1]) < 0.5
        child = np.where(take_a[None, :], a, b)
        return child.copy()

    def _mutate(self, instance: DRPInstance, x: np.ndarray, rng) -> None:
        m, n = x.shape
        n_flips = rng.poisson(self.mutation_flips)
        if n_flips == 0:
            return
        flat = rng.integers(0, m * n, size=n_flips)
        i, k = np.divmod(flat, n)
        keep = instance.primaries[k] != i  # never flip a primary cell
        x[i[keep], k[keep]] ^= True

    # -- main loop -----------------------------------------------------------

    def _place(self, instance: DRPInstance) -> PlacementResult:
        rng_init, rng_evolve = spawn_children(as_generator(self.seed), 2)
        timer = Timer()
        cache: dict[bytes, float] = {}

        def fitness(x: np.ndarray) -> float:
            key = np.packbits(x).tobytes()
            if key not in cache:
                cache[key] = otc_of_matrix(instance, x)
            return cache[key]

        with timer:
            # Seed with the primaries-only scheme so (via elitism) the GA
            # never returns something worse than no replication at all,
            # plus random fills at mixed densities.
            empty = np.zeros((instance.n_servers, instance.n_objects), dtype=bool)
            empty[instance.primaries, np.arange(instance.n_objects)] = True
            pop = [empty] + [
                self._random_chromosome(
                    instance, rng_init, density=float(rng_init.uniform(0.1, 0.8))
                )
                for _ in range(self.population_size - 1)
            ]
            costs = np.array([fitness(x) for x in pop])

            for _gen in range(self.generations):
                order = np.argsort(costs)
                elites = [pop[int(j)].copy() for j in order[: self.elitism]]
                children = list(elites)
                while len(children) < self.population_size:
                    # Tournament selection of two parents.
                    idx_a = min(
                        rng_evolve.integers(0, self.population_size, self.tournament),
                        key=lambda j: costs[j],
                    )
                    idx_b = min(
                        rng_evolve.integers(0, self.population_size, self.tournament),
                        key=lambda j: costs[j],
                    )
                    if rng_evolve.random() < self.crossover_rate:
                        child = self._crossover(pop[int(idx_a)], pop[int(idx_b)], rng_evolve)
                    else:
                        child = pop[int(idx_a)].copy()
                    self._mutate(instance, child, rng_evolve)
                    self._repair(instance, child, rng_evolve)
                    children.append(child)
                pop = children
                costs = np.array([fitness(x) for x in pop])

            best = pop[int(np.argmin(costs))]
            state = ReplicationState.from_matrix(instance, best)

        return PlacementResult(
            algorithm=self.name,
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=self.generations,
            extra={"evaluations": len(cache)},
        )
