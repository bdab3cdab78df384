"""Seeded inputs of the two workloads, `cell` and `wide`.

The program's outputs are deterministic, so whether an input fails the
accuracy check is a property of the input. Every input of `wide` that can
fail (by fault F1 or F2) comes from a fixed panel drawn with ``PANEL_SEED``,
the same in every run; ``--seed`` draws only from bands where every input
passes with a wide margin. So the share of failed operations is exactly the
same whatever the seed, and both faults stay in view.

All log-uniform draws are stratified (one draw per equal slice of the
log-range), so the make-up of a point set, and with it the cost of a pass,
barely moves from seed to seed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

#: K = B(1/3, 1/3) / 3 to 30 digits, rounded to the nearest double. The
#: workloads place points relative to the true lattice, not the program's.
K = float("1.76663875028544995731368949965")
GAMMA = complex(-0.5, math.sqrt(3.0) / 2.0)
W1 = complex(3.0 * K, 0.0)
W2 = 3.0 * K * GAMMA
POLE_REPS = (complex(-K, 0.0), -K * GAMMA, -K * GAMMA.conjugate())
BRANCH_POINTS = (complex(1.0), GAMMA, GAMMA.conjugate())
#: lattice points next to the origin: the double poles of wp used by `wide`
LATTICE_NEAR = (0j, W1, -W1, W2, -W2, W1 + W2, -W1 - W2)

PANEL_SEED = 20190114

CELL_POINTS = 1000
CELL_WP_POINTS = 500
CELL_INVERSES = 100
#: cell wp points keep this far from the lattice point 0; the band inside it
#: belongs to `wide`, where F2 is exercised on purpose
CELL_WP_LATTICE_MARGIN = 0.15

WIDE_FAR_POINTS = 750
WIDE_NEAR_POINTS = 244
WIDE_WP_POINTS = 500
WIDE_INVERSES = 60

#: |z| band of the far points (all from the panel: at |z| >= 1e4 every point
#: fails by F1, below that some do, depending on rounding luck)
FAR_BAND = (1.0, 1e12)
#: pole-distance bands around the three poles of the cell. Below 1e-3 the
#: pole-framing error of F1 (2.6e-16 to 4.3e-16 absolute) can exceed the
#: relative tolerance; above, it stays 2x below it.
NEAR_PANEL_BAND = (1e-11, 1e-3)
NEAR_SEEDED_BAND = (1e-3, 0.05)
#: lattice-distance bands of wp. Below 0.15 the cancellation of F2 can
#: exceed the tolerance (below 3.1e-3 the program returns a pole); above,
#: the error stays 10x below it.
WP_PANEL_BAND = (1e-4, 0.15)
WP_SEEDED_BAND = (0.15, 0.3)
INVERSE_BAND = (1e-8, 1e-2)

CLI_POINTS = 16


@dataclass(frozen=True)
class GridSpec:
    center: complex
    width: float
    height: float
    nx: int
    ny: int
    selector: str


@dataclass
class Workload:
    name: str
    seed: int
    eval_points: list[complex]
    #: band label per eval point, for the composition report
    eval_bands: list[str]
    wp_points: list[complex]
    wp_bands: list[str]
    inverse_targets: list[complex]
    grid: GridSpec
    #: points for the cold CLI calls and the set-up runs; all pass the check
    cli_points: list[complex] = field(default_factory=list)


def _log_stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count) for i in range(count)]


def _split(total: int, bands: list[tuple[float, float]]) -> list[int]:
    """Counts per band proportional to each band's log-width; they sum to total."""
    widths = [math.log(hi / lo) for lo, hi in bands]
    counts = [int(total * w / sum(widths)) for w in widths]
    counts[-1] += total - sum(counts)
    return counts


def _cell_point(rng: random.Random) -> complex:
    return rng.uniform(-0.5, 0.5) * W1 + rng.uniform(-0.5, 0.5) * W2


def _around(rng: random.Random, centers, distances: list[float]) -> list[complex]:
    return [
        centers[i % len(centers)] + cmath.rect(d, rng.uniform(0.0, 2.0 * math.pi))
        for i, d in enumerate(distances)
    ]


def cell(seed: int) -> Workload:
    """The ordinary caller: points spread uniformly over the fundamental cell."""
    rng = random.Random(seed)
    points = [_cell_point(rng) for _ in range(CELL_POINTS)]
    wp_points = []
    while len(wp_points) < CELL_WP_POINTS:
        z = _cell_point(rng)
        if abs(z) >= CELL_WP_LATTICE_MARGIN:
            wp_points.append(z)
    targets = [cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(CELL_INVERSES)]
    return Workload(
        name="cell",
        seed=seed,
        eval_points=points,
        eval_bands=["cell"] * len(points),
        wp_points=wp_points,
        wp_bands=["cell"] * len(wp_points),
        inverse_targets=targets,
        # the `grid --preset cell` framing at 400x300
        grid=GridSpec(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, 400, 300, "sm"),
        cli_points=[_cell_point(rng) for _ in range(CLI_POINTS)],
    )


def wide(seed: int) -> Workload:
    """The stress caller: huge |z|, pole neighbourhoods, wp next to lattice points,
    inverses next to the branch points, and a grid away from the origin."""
    rng = random.Random(seed)
    panel = random.Random(PANEL_SEED)
    points: list[complex] = []
    bands: list[str] = []

    def add(zs, label):
        points.extend(zs)
        bands.extend([label] * len(zs))

    add([cmath.rect(r, panel.uniform(0.0, 2.0 * math.pi)) for r in _log_stratified(panel, WIDE_FAR_POINTS, *FAR_BAND)], "far_panel")
    n_panel, n_seeded = _split(WIDE_NEAR_POINTS, [NEAR_PANEL_BAND, NEAR_SEEDED_BAND])
    add(_around(panel, POLE_REPS, _log_stratified(panel, n_panel, *NEAR_PANEL_BAND)), "near_panel")
    add(_around(rng, POLE_REPS, _log_stratified(rng, n_seeded, *NEAR_SEEDED_BAND)), "near_seeded")
    # pole representatives near the origin and one period over, as doubles
    add([z for p in POLE_REPS for z in (p, -2.0 * p)], "pole")

    n_wpanel, n_wseeded = _split(WIDE_WP_POINTS, [WP_PANEL_BAND, WP_SEEDED_BAND])
    wp_points = _around(panel, LATTICE_NEAR, _log_stratified(panel, n_wpanel, *WP_PANEL_BAND)) + _around(
        rng, LATTICE_NEAR, _log_stratified(rng, n_wseeded, *WP_SEEDED_BAND)
    )
    wp_bands = ["wp_panel"] * n_wpanel + ["wp_seeded"] * n_wseeded

    # inside the unit disc, 1e-8..1e-2 from a branch point
    targets = [
        BRANCH_POINTS[i % 3] * (1.0 - d * cmath.exp(1j * rng.uniform(-1.0, 1.0)))
        for i, d in enumerate(_log_stratified(rng, WIDE_INVERSES, *INVERSE_BAND))
    ]
    cli = _around(rng, POLE_REPS, _log_stratified(rng, CLI_POINTS, *NEAR_SEEDED_BAND))
    return Workload(
        name="wide",
        seed=seed,
        eval_points=points,
        eval_bands=bands,
        wp_points=wp_points,
        wp_bands=wp_bands,
        inverse_targets=targets,
        # four periods wide, centred a few cells from the origin
        grid=GridSpec(complex(30.0, 20.0), 12.0 * K, 9.0 * K, 256, 192, "sm"),
        cli_points=cli,
    )


WORKLOADS = {"cell": cell, "wide": wide}
