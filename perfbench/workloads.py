"""Workload inputs.

A run repeats whole rounds of one workload's cells, so every run attempts
the same operations in the same proportions.  A cell is a JSON list; the
seed only draws the gamma values, within ranges chosen so that no cell
fails except the two fixed ground_state fault cells.  gamma = 0 is in every
round.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

# The criterion-10 J list; one operation is one scan over all of it.
GAP_SCAN_J = (5, 10, 15, 25, 30, 100, 1000)
GAP_SCAN_GAMMAS = 50
# ground_state overflows once P_J(cosh 2g) ~ e^{2|g|J} passes the float64
# maximum e^709.78.  Seeded cells stay below 2|g|J = 650; the fault cells
# sit at 800 and are counted as failed.
ZERO_MODE_2GJ_MAX = 650.0
ZERO_MODE_FAULT_CELLS = ([200, 2.0], [200, -2.0])
OVERFLOW_2GJ = 700.0
# For half-integer J the ground energy falls like tanh|g|^(2J+1); it drops
# below float64 rounding of ||H|| at |g|(2J+1) ~ 8-10 (measured for
# 2J+1 = 4..200), where `lmg susy-check` can no longer show it positive.
# Seeded half-integer cells keep |g|(2J+1) <= 4.
SUSY_HALF_G2J1_MAX = 4.0


def gap_large(rng: random.Random) -> list:
    """spectral_gap cells [J, gamma]: J = 10^6 at gamma = 0, two negative
    and two positive gamma, and J = 10^7 at gamma = 0.

    |gamma| >= 0.5 keeps the number of bisection passes nearly fixed; the
    sign is balanced because for gamma < 0 the low eigenvector sits at the
    end of the block, where every dpttrf pass runs to the end.
    """
    neg = [[10**6, -rng.uniform(0.5, 2.0)] for _ in range(2)]
    pos = [[10**6, rng.uniform(0.5, 2.0)] for _ in range(2)]
    return [[10**6, 0.0]] + neg + pos + [[10**7, 0.0]]


def gap_scan(rng: random.Random) -> list:
    """One gap-scan cell: the sorted gamma list, 0 and 49 draws in [0, 3]."""
    return [[0.0] + sorted(rng.uniform(0.0, 3.0) for _ in range(GAP_SCAN_GAMMAS - 1))]


def zero_mode_cells(rng: random.Random) -> list:
    """ground_state cells [J, gamma] with g_max/2 <= |gamma| <= g_max,
    g_max = min(2, 650/(2J)), plus J = 100 at gamma = 0 and the two fault
    cells.

    mat_exp_scaled squares ceil(log2(|gamma| ||Jx||_1)) times, so keeping
    |gamma| within a factor 2 keeps each cell's cost nearly fixed.
    """
    def draw(j):
        g_max = min(2.0, ZERO_MODE_2GJ_MAX / (2 * j))
        return [j, rng.choice((-1, 1)) * rng.uniform(g_max / 2, g_max)]

    cells = [draw(10), draw(40), [100, 0.0], draw(81)]
    cells += [draw(120) for _ in range(3)]
    return cells + [draw(200)] + [list(c) for c in ZERO_MODE_FAULT_CELLS] + [draw(250)]


def susy_cells(rng: random.Random) -> list:
    """susy-check cells [2J, gamma]: integer J with |gamma| <= 2, J = 25 at
    gamma = 0, and half-integer J with |gamma|(2J+1) <= 4."""
    cells = [[50, 0.0]]
    for j in (2, 6, 12, 25, 50, 100):
        cells.append([2 * j, rng.uniform(-2.0, 2.0)])
    for two_j in (1, 7, 25, 101, 199):
        g_max = min(2.0, SUSY_HALF_G2J1_MAX / (two_j + 1))
        cells.append([two_j, rng.uniform(-g_max, g_max)])
    return cells


def dense(rng: random.Random) -> list:
    """The dense-operator cells: ["ground_state", J, gamma] and
    ["susy_check", 2J, gamma].  Both build the dense spin operators and
    models; ground_state then spends its time in mat_exp_scaled, susy-check
    in many small products, eigvalsh and the susy module."""
    return ([["ground_state"] + c for c in zero_mode_cells(rng)]
            + [["susy_check"] + c for c in susy_cells(rng)])


ROUNDS = {f.__name__: f for f in (gap_large, gap_scan, dense)}


def round_cells(workload: str, seed: int) -> list:
    """The cells of one round of a workload; the same seed gives the same cells."""
    return ROUNDS[workload](random.Random(seed))
