"""Risk-sensitive safety filters.

All filters enforce the sampled risk condition

    risk_lower([h(x+_s)]_s, beta)  >=  alpha * h(x) + epsilon

where x+_s = f(x, u, omega_s; theta_s) over S uncertainty samples.  A
solve takes the step's joint nominal (and safe) actions, each one flat
(A,) row, the caller's h(x) and one ``draw_risk_samples`` draw, reused
for every candidate action (common random numbers), so feasibility
comparisons are consistent and the worst-case filter's guarantee is
exact over its grid.

Four variants, each returning ``FilterOutcome``s:

* ``centralized_filter``   - joint minimization over all agents' actions;
  returns a joint row.
* ``pessimistic_filter``   - per-agent; the condition must survive the worst
  grid combination of all other agents' actions.  One call solves for a
  step's agents, each under its own draw, and returns their outcomes in
  agent order; each holds the agent's own columns of the row.
  Infeasibility is an expected outcome, not a fault.
* ``proximity_filter``     - per-agent closed-form projection of the nominal
  action onto a ball around the safe policy's action; always feasible,
  justified by its radius, so no margin is evaluated.
* ``switching_filter``     - per agent, pessimistic when feasible, proximity
  otherwise; well-defined everywhere the barrier is nonnegative.

Continuous minimization is approximated by a grid search (both benchmark
presets have one action dimension per agent) for the nearest candidate,
with the nominal action ahead of every grid point, so whenever the
nominal action is feasible it is returned unchanged.

Every margin comes from one kernel, ``_margins``, which evaluates the
barrier only on successor states, over blocks of flat joint-action rows.
Both filters first send rows through one screen, ``_screen``, which
evaluates each at sample 0 alone, by the value model's float32
lower bound (``ValueModel.lower``), and drops it if the entropic
operator's one-sample bound rules it out; the kernel decides every row
the screen keeps.  At S = 1 sample 0 is the kernel's only sample, but the
float32 pass costs less than the kernel's, so it screens there too.  A
dropped row's later samples are never evaluated, so a non-finite value
there goes unseen.  The pessimistic search stops
trying a candidate once a combo fails it.  Each search meets the other
agents' corner combos first, then its first survivor the rest alone,
then, if that fails, the other survivors; a search whose whole block does
not fit one pass screens its candidates at the first corner (every
agent's such rows share one screen call).  Every agent's search runs in
rounds, each one kernel call on the open searches' next blocks with each
agent's draw written over its rows, in passes that may cut across blocks
(on spring, both agents' corner rows share one pass).  The centralized
filter works in grid order and sends one block per solve, of the
candidates that survive the screen; only the hits' distances to nominal
are computed.  The filters share one state and h(x) across a block;
``guarantees.certify_grid`` sends one row per sampled state, each with
its own state, draw and h(x), through the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .dynamics import MasModel
from .errors import ContractViolationError, GuaranteeDomainError
from .risk import risk_lower
from .value import Barrier


class Branch(str, Enum):
    CENTRALIZED = "centralized"
    PESSIMISTIC = "pessimistic"
    PROXIMITY = "proximity"


@dataclass(frozen=True)
class FilterConfig:
    """Parameters shared by all filters.

    (alpha, epsilon) are the enforced condition parameters; (alpha_bar,
    epsilon_bar) are the margins the safe policy is assumed to satisfy,
    used only by the margin-derived proximity radius.  ``n_samples`` is
    the risk sample count S, ``grid_size`` the per-dimension candidate
    count G, and ``tolerance`` the feasibility slack on the margin.
    """

    alpha: float = 0.1
    epsilon: float = 0.0
    alpha_bar: float = 0.2
    epsilon_bar: float = 0.0
    beta: float = 1.0
    n_samples: int = 5
    grid_size: int = 9
    radius_mode: str = "fixed"          # fixed | margin
    radius: float = 0.05
    lipschitz_h: float = 1.0
    lipschitz_fu: float = 1.0
    tolerance: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractViolationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.epsilon >= 0:
            raise ContractViolationError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.alpha_bar <= 1.0:
            raise ContractViolationError(f"alpha_bar must lie in [0, 1], got {self.alpha_bar}")
        if not self.epsilon_bar >= 0:
            raise ContractViolationError(f"epsilon_bar must be >= 0, got {self.epsilon_bar}")
        if not self.beta > 0:
            raise ContractViolationError(f"beta must be > 0, got {self.beta}")
        if self.n_samples < 1:
            raise ContractViolationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.grid_size < 2:
            raise ContractViolationError(f"grid_size must be >= 2, got {self.grid_size}")
        if self.radius_mode not in ("fixed", "margin"):
            raise ContractViolationError(f"unknown radius mode {self.radius_mode!r}")
        if not self.radius >= 0:
            raise ContractViolationError(f"radius must be >= 0, got {self.radius}")
        if not self.tolerance >= 0:
            raise ContractViolationError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.radius_mode == "margin":
            if not (self.alpha < self.alpha_bar and self.epsilon <= self.epsilon_bar):
                raise ContractViolationError(
                    "margin-derived radius requires alpha < alpha_bar and "
                    "epsilon <= epsilon_bar"
                )
            if not (self.lipschitz_h > 0 and self.lipschitz_fu > 0):
                raise ContractViolationError("Lipschitz constants must be > 0")


@dataclass(frozen=True)
class FilterOutcome:
    """Result of one filter solve.

    ``action`` is the solving agent's columns of the joint-action row for
    the per-agent filters, whose outcomes come in the order of the agents
    they were asked for, and a copy of the full joint row for the
    centralized one.  ``branch`` names the filter that chose the action;
    the controllers take ``PROXIMITY`` exactly when their own solve was
    infeasible.  ``margin`` is the achieved risk margin at the chosen
    action (the worst case over the others' grid per agent), None on
    proximity.
    """

    action: object
    branch: Branch
    margin: float | None


def draw_risk_samples(model: MasModel, n_samples: int, seed) -> tuple:
    """The S samples a filter solve shares across its candidates, as
    ``(thetas (S,), noises (S, M, d_x))``: row s of one standard-normal
    draw is sample s's theta, then its noise, the order of S successive
    (theta, noise) draws.  ``seed=None`` (OS entropy) is rejected."""
    if n_samples < 1:
        raise ContractViolationError(f"n_samples must be >= 1, got {n_samples}")
    if seed is None:
        raise ContractViolationError("draw_risk_samples needs a seed, got None")
    m, d = model.n_agents, model.state_dim
    draws = np.random.default_rng(seed).standard_normal((n_samples, 1 + m * d))
    return draws[:, 0], draws[:, 1:].reshape(n_samples, m, d) * model.noise_scale


def check_condition(
    model: MasModel,
    barrier: Barrier,
    x,
    u,
    cfg: FilterConfig,
    samples: tuple,
    h_now: float,
) -> tuple:
    """Evaluate the sampled risk condition at (x, joint row u), h(x) = h_now,
    under ``samples``.

    Returns (satisfied, margin) with

        margin = risk_lower([h(f(x, u, s))]_s, beta) - alpha * h(x) - epsilon

    and satisfied iff margin >= tolerance.
    """
    x = model.validate_state(x)
    row = model.validate_action(u)
    margin = float(_margins(model, barrier, x, cfg, samples, h_now, row[None, :])[0])
    return margin >= cfg.tolerance, margin


# (row, sample) pairs per kernel pass: bounds the activations a solve holds
# at once (a 730-row centralized block would otherwise take ~6 MB).
_PASS_PAIRS = 640


def _margin_of(risk, cfg: FilterConfig, h_now):
    """The condition's margin at risk value ``risk``: ``risk`` less the
    right-hand side alpha * h(x) + epsilon, in the one order of operations
    that ``_margins`` and ``_screen`` share."""
    return risk - cfg.alpha * h_now - cfg.epsilon


def _margins(model: MasModel, barrier: Barrier, x: np.ndarray, cfg: FilterConfig,
             samples: tuple, h_now, rows: np.ndarray) -> np.ndarray:
    """Risk margins of a (B, A) block of flat joint actions.

    The validated state x, the draw ``samples = (thetas, noises)`` and
    ``h_now`` are each shared by every row, as x (M, d_x), thetas (S,),
    noises (S, M, d_x) and a float, or given per row, as x (B, M, d_x),
    thetas (B, S), noises (B, S, M, d_x) and h_now (B,).  Per pass over up
    to _PASS_PAIRS / S rows, one ``transition_batch`` call gives the
    (b, S, M, d_x) successors, one ``barrier.value`` call their (b, S)
    values and one ``risk_lower`` call reduces the samples.  A per-row
    input is sliced next to its rows and a shared one goes in as it is,
    un-broadcast.  The arithmetic is elementwise and the stack stays 3-D,
    so a row's margin has the same bits in any block or pass, with shared
    or per-row inputs, and re-checks are exact.
    """
    thetas, noises = samples
    step = max(1, _PASS_PAIRS // thetas.shape[-1])
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        nexts = model.transition_batch(
            x[part, None] if x.ndim == 3 else x, rows[part, None, :],
            thetas[part] if thetas.ndim == 2 else thetas,
            noises[part] if noises.ndim == 4 else noises)
        values = np.asarray(barrier.value(nexts.reshape(*nexts.shape[:2], -1)), dtype=float)
        if not np.isfinite(values).all():
            raise ContractViolationError("barrier produced non-finite values")
        h = h_now[part] if np.ndim(h_now) == 1 else h_now
        out[part] = _margin_of(risk_lower(values, cfg.beta), cfg, h)
    return out


def _one_sample_bound(values: np.ndarray, n_samples: int, beta: float) -> np.ndarray:
    """An upper bound on ``risk_lower`` of any S = n_samples sample set that
    contains ``values``, elementwise:

        risk_lower(v) = min(v) - log1p(m)/beta <= min(v) + log(S)/beta
                     <= v_s + log(S)/beta        for every s,

    by construction: m, the mean of expm1(-beta (v - min(v))), is at least
    -(S - 1)/S, since the minimum's own term is 0 and no term falls below
    -1.  A row that takes the beta -> 0 limit, min(v) + mean(v - min(v)),
    sits about 2**-960 / beta or less above min(v), under log(S)/beta for
    S >= 2 (at S = 1 it is min(v)), and at beta = inf the spread is 0.
    The bound is raised by a slack of 1e-9 * (1 + |v_s| + log(S)/beta),
    which covers the rounding of the computed ``risk_lower`` (a few ulps of
    its terms).  ``_screen``'s v_s is xi - ``lower``, at or above the
    kernel's value of the successor in any stack; where ``lower`` falls
    back to ``predict`` (and for value models without ``lower``), the
    slack also covers the few-ulp difference between a successor's value
    in the screen's call and in the kernel's, where it may sit at another
    row of its slice.
    """
    spread = math.log(n_samples) / beta
    return values + spread + 1e-9 * (1.0 + np.abs(values) + spread)


# Rows per screen pass: twice a kernel pass's pairs, since ``lower`` holds
# float32 activations, half the bytes of ``predict``'s.  So collision M = 3's
# 730 candidates take one pass, not two (640 + 90): about 100 us less a
# screen on a 2-core box.
_SCREEN_ROWS = 2 * _PASS_PAIRS

# Rows per 2-D block of a screen pass's ``lower`` call.  A product of 64
# rows by a 64-wide layer is 64^3 = 262,144 multiply-adds, OpenBLAS's
# default limit for one thread (65536 * GEMM_MULTITHREAD_THRESHOLD 4), so
# every product stays on one thread; a larger one is spread over threads,
# and that doubled the step time when another process held a core.
_SCREEN_BLOCK = 64


def _screen(model: MasModel, barrier: Barrier, x: np.ndarray, cfg: FilterConfig,
            samples: tuple, h_now: float, rows: np.ndarray) -> np.ndarray:
    """Mask of the (B, A) rows that may clear the tolerance, from sample 0 alone.

    The validated state x and ``h_now`` are shared by every row; the draw
    ``samples = (thetas, noises)`` is shared, as thetas (S,) and noises
    (S, M, d_x), or given per row, as thetas (B, S) and noises (B, S, M,
    d_x), as in ``_margins``, and only its sample 0 is read.  Per pass over
    up to _SCREEN_ROWS rows, one ``transition_batch`` call at sample 0 gives
    the successors, and v_0 = xi - ``value_model.lower`` of them bounds h
    there from above: ``lower`` runs the network in float32 and never
    exceeds ``predict``'s float64 value, for a row in any stack (a value
    model without ``lower`` goes through ``predict`` in the same call).  A
    row is dropped when its ``_one_sample_bound`` less alpha * h(x) +
    epsilon, by the kernel's own ``_margin_of``, stays under the
    tolerance.  Float subtraction is monotone, so the kernel's margin of a
    dropped row would stay under it too, and the kernel never sees the
    row: like a candidate the pessimistic search drops at its first failing
    combo, a dropped row's later samples are never evaluated (a non-finite
    value there goes unseen).  The screen only drops rows; the kernel
    evaluates every survivor in float64 and decides the solve.  Non-finite
    values at sample 0 raise as in the kernel: ``lower`` sends a row that
    float32 cannot hold to ``predict``.

    The successors go to ``lower`` as a stack of 2-D blocks of at most
    _SCREEN_BLOCK rows, as even as the pass allows (730 rows go as 12 x 61),
    padded with repeated rows, so each product runs on one thread.
    """
    thetas, noises = samples
    n = thetas.shape[-1]
    thetas, noises = thetas[..., 0], noises[..., 0, :, :]
    value_model = barrier.value_model
    lower = getattr(value_model, "lower", value_model.predict)
    keep = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _SCREEN_ROWS):
        part = slice(start, start + _SCREEN_ROWS)
        block = rows[part]
        nexts = model.transition_batch(x, block, thetas[part] if thetas.ndim else thetas,
                                       noises[part] if noises.ndim == 3 else noises)
        blocks = -(-len(block) // _SCREEN_BLOCK)
        stack = np.resize(nexts.reshape(len(block), -1),
                          (blocks, -(-len(block) // blocks), nexts[0].size))
        values = barrier.xi - np.asarray(lower(stack), dtype=float).reshape(-1)[:len(block)]
        if not np.all(np.isfinite(values)):
            raise ContractViolationError("barrier produced non-finite values")
        bound = _one_sample_bound(values, n, cfg.beta)
        keep[part] = _margin_of(bound, cfg, h_now) >= cfg.tolerance
    return keep


@lru_cache(maxsize=32)
def _grid(dims: int, grid_size: int, low: float, high: float) -> np.ndarray:
    """All grid_size^dims points of the per-dimension action grid, first
    dimension slowest; built once per argument tuple and read-only."""
    axis = np.linspace(low, high, grid_size)
    grid = np.empty((1, 0))
    for _ in range(dims):
        grid = np.column_stack([np.repeat(grid, axis.size, axis=0), np.tile(axis, len(grid))])
    grid.flags.writeable = False
    return grid


def _against(cols: slice, cands: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """(C * K, A) rows pairing C own candidates, written to columns ``cols``,
    with K ``_corners_first`` rows, candidate-major."""
    rows = np.empty((len(cands),) + combos.shape)
    rows[...] = combos
    rows[:, :, cols] = cands[:, None, :]
    return rows.reshape(-1, combos.shape[1])


def _grid_block(nominal: np.ndarray, cfg: FilterConfig, low: float, high: float) -> np.ndarray:
    """The nominal row, then the ``_grid`` rows in grid order less the one at
    the nominal's axis indices (float ==: -0.0 matches 0.0), if any."""
    grid = _grid(nominal.size, cfg.grid_size, low, high)
    axis = _grid(1, cfg.grid_size, low, high)[:, 0].tolist()
    twin = 0
    for c in nominal.tolist():
        if c not in axis:
            return np.concatenate((nominal[None, :], grid))
        twin = twin * len(axis) + axis.index(c)
    return np.concatenate((nominal[None, :], grid[:twin], grid[twin + 1:]))


def _ordered_candidates(nominal: np.ndarray, cfg: FilterConfig, low: float, high: float) -> np.ndarray:
    """``_grid_block``'s rows in ascending distance to nominal, ties in grid
    order (a stable sort).

    The nominal sits first at distance exactly 0, so the stable sort keeps
    it ahead of every grid point, even one whose offset's square underflows
    to 0, and a feasible nominal action is always returned exactly.
    """
    block = _grid_block(nominal, cfg, low, high)
    return block[np.add.reduce((block - nominal) ** 2, axis=1).argsort(kind="stable")]


def centralized_filter(model: MasModel, barrier: Barrier, x, nominal, cfg: FilterConfig,
                       samples: tuple, h_now: float) -> FilterOutcome | None:
    """Joint filter: nearest feasible joint row to the joint row ``nominal``.

    ``_grid_block``'s candidates, over every actuated agent's box, go to
    ``_screen`` and its survivors to the kernel, in grid order.
    The screen keeps every hit and a margin does not depend on its block,
    so the hits are the full scan's.  Only their squared distances to
    nominal are computed, as ``_ordered_candidates`` does.  The nominal
    (distance 0, first) wins when it is a hit, else the nearest hit, ties
    in grid order: the distance order's first hit, as a copied row with
    its margin, or None when nothing hits.
    """
    x = model.validate_state(x)
    nominal = model.validate_action(nominal)
    block = _grid_block(nominal, cfg, model.action_low, model.action_high)
    block = block[_screen(model, barrier, x, cfg, samples, h_now, block)]
    margins = _margins(model, barrier, x, cfg, samples, h_now, block)
    hits = np.flatnonzero(margins >= cfg.tolerance)
    if not hits.size:
        return None
    i = hits[np.add.reduce((block[hits] - nominal) ** 2, axis=1).argmin()]
    return FilterOutcome(action=block[i].copy(), branch=Branch.CENTRALIZED,
                         margin=float(margins[i]))


def _actuated_columns(model: MasModel, agent: int) -> slice:
    """``agent``'s columns of a joint row, for an actuated agent in range."""
    if not 0 <= agent < model.n_agents:
        raise ContractViolationError(f"agent {agent} is not in range({model.n_agents})")
    if model.action_dims[agent] == 0:
        raise ContractViolationError(f"agent {agent} is unactuated")
    return model.agent_columns(agent)


@lru_cache(maxsize=32)
def _corners_first(width: int, start: int, stop: int, grid_size: int, low: float,
                   high: float) -> tuple:
    """(rows, corners): the K joint rows of one agent's worst case and the
    number of corner combos among them.  Each row holds one point of the
    grid over every column outside [start, stop), the other agents'
    actions, and zeros in the agent's own columns.  The corners come first,
    every other column at ``low`` or ``high`` (grid points 0 and G - 1),
    2^d of them for d other action dimensions, then the rest, each part in
    grid order.

    An agent with d > 1 gets all G^d points, not only the diagonal; with no
    other actuated agent K = 1 and the worst case is the plain condition.
    Built once per argument tuple and read-only.
    """
    combos = _grid(width - (stop - start), grid_size, low, high)
    corner = np.all((combos == low) | (combos == high), axis=1)
    combos = np.concatenate((combos[corner], combos[~corner]))
    rows = np.zeros((len(combos), width))
    rows[:, :start] = combos[:, :start]
    rows[:, stop:] = combos[:, start:]
    rows.flags.writeable = False
    return rows, int(corner.sum())


class _Search:
    """One agent's worst-case search: its candidates still in the running,
    nearest to its nominal action first, their running minimum margins, how
    many of the other agents' grid combos, corners first, they have met,
    and the corner survivors held back behind the first."""

    def __init__(self, model: MasModel, agent: int, nominal: np.ndarray, cfg: FilterConfig,
                 budget: int):
        cols = self.cols = _actuated_columns(model, agent)
        self.cands = _ordered_candidates(nominal[cols], cfg, model.action_low, model.action_high)
        self.combos, self.corners = _corners_first(len(nominal), cols.start, cols.stop,
                                                   cfg.grid_size, model.action_low,
                                                   model.action_high)
        self.budget, self.tolerance = budget, cfg.tolerance
        self.held = None
        self.worst = np.inf
        self.done = 0

    def block(self) -> np.ndarray:
        """The next pass's rows: the candidates × as many of the next combos
        as fit the budget, at least one, never past the last corner."""
        stop = self.done + max(1, self.budget // len(self.cands))
        if self.done < self.corners:
            stop = min(stop, self.corners)
        return _against(self.cols, self.cands, self.combos[self.done:stop])

    def screened(self, keep: np.ndarray) -> bool:
        """Keep the candidates whose first-corner rows ``_screen`` kept, in
        order.  True while any is left."""
        self.cands = self.cands[keep]
        return len(self.cands) > 0

    def meet(self, margins: np.ndarray) -> bool:
        """Fold in the margins of ``block``'s rows and drop every candidate a
        combo failed.  After the corners, the first survivor goes on alone
        and the others are held back; if it fails, the search reopens on
        them.  True while the search is still open."""
        margins = margins.reshape(len(self.cands), -1)
        worst = np.minimum(self.worst, margins.min(axis=1))
        keep = worst >= self.tolerance
        if not keep.all():
            self.cands, worst = self.cands[keep], worst[keep]
        self.worst = worst
        self.done += margins.shape[1]
        if self.done == self.corners < len(self.combos) and len(self.cands) > 1:
            self.held = self.cands[1:], worst[1:]
            self.cands, self.worst = self.cands[:1], worst[:1]
        elif not len(self.cands) and self.held is not None:
            (self.cands, self.worst), self.held = self.held, None
            self.done = self.corners
            return True
        return len(self.cands) > 0 and self.done < len(self.combos)

    def outcome(self) -> FilterOutcome | None:
        if not len(self.cands):
            return None
        return FilterOutcome(action=self.cands[0], branch=Branch.PESSIMISTIC,
                             margin=float(self.worst[0]))


def _round(blocks: list, owners: list, samples) -> tuple:
    """(rows, draw, spans) of one round: ``blocks`` in order, block i of the
    search ``owners[i]``, with each search's draw written over its rows, as
    per-row thetas (B, S) and noises (B, S, M, d_x), and each search's
    (index, start, stop) slice of the rows."""
    rows = np.concatenate(blocks)
    ends = list(accumulate(len(block) for block in blocks))
    spans = list(zip(owners, [0] + ends[:-1], ends))
    draw = tuple(np.empty((len(rows),) + a.shape) for a in samples[0])
    for k, start, stop in spans:
        for out, a in zip(draw, samples[k]):
            out[start:stop] = a
    return rows, draw, spans


def pessimistic_filter(
    model: MasModel,
    barrier: Barrier,
    agents,
    x,
    nominal,
    cfg: FilterConfig,
    samples,
    h_now: float,
) -> list:
    """Per-agent worst-case filters of ``agents`` around their columns of
    the joint row ``nominal``; agent ``agents[k]`` solves under its own
    draw ``samples[k]``.  Returns one outcome per agent, in that order.

    Each candidate u_i (nominal first, then the grid in ascending
    distance to nominal) must clear the tolerance on every grid
    combination of the other actuated agents' actions, under the agent's
    draw.  The combos go corners first (each other action dimension at
    grid point 0 or G - 1: 2 on spring, 4 at collision M = 3, all of them
    at G = 2), where almost every failing candidate fails.  Each pass pairs
    the surviving candidates with as many of the next combos as fit
    _PASS_PAIRS (row, sample) pairs, at least one and never past the last
    corner, and drops every candidate that a combo failed.  After the
    corners the first survivor meets the remaining combos alone and wins
    if it clears them; only if it fails do the other survivors meet them.
    A survivor meets every combo and each pass keeps the candidates in
    distance order, so the result is the full scan's: the nearest
    candidate whose worst-case margin clears the tolerance, with that
    margin (a minimum, exact in any order), or None: infeasibility is an
    expected outcome near the constraint boundary, not a fault.

    A search whose C candidates × K combos do not fit one pass
    first sends its C rows against the first corner, every other agent at
    grid point 0, through ``_screen``; every such search's rows go in one
    call, each under its own agent's sample 0.  A candidate the screen
    drops leaves the search, since that corner would have dropped it, and
    a search left with no candidate ends as None without a kernel row.  So
    a dropped candidate's later samples of that corner are never
    evaluated, and a non-finite value there goes unseen, as at the later
    combos of a candidate that an earlier combo drops.  On hopeless solves
    the screen settles the search in C rows.  At S = 1 the screen's float32
    pass is cheaper than the kernel's, not a repeat of it.

    The agents search in rounds.  A round is one ``_margins`` call on
    every open search's next block, in agent order, under per-row draws
    with each agent's draw written over its rows; its passes may cut
    across blocks, and each search meets its own slice of the margins, so
    a step whose blocks all fit one pass (spring) takes at most three
    calls.  A margin has the same bits in any block or pass, so each
    agent's rows and outcome are those of its search alone.
    """
    counts = {len(thetas) for thetas, _ in samples}
    if len(samples) != len(agents) or len(counts) > 1:
        raise ContractViolationError(
            "pessimistic_filter needs one draw per agent, all of one sample count")
    x = model.validate_state(x)
    nominal = model.validate_action(nominal)
    n_samples = max(counts, default=1)
    budget = _PASS_PAIRS // n_samples       # rows in one kernel pass
    searches = [_Search(model, agent, nominal, cfg, budget) for agent in agents]
    live = list(range(len(searches)))
    wide = [k for k in live if len(searches[k].cands) * len(searches[k].combos) > budget]
    if wide:
        rows, draw, spans = _round([_against(searches[k].cols, searches[k].cands,
                                             searches[k].combos[:1]) for k in wide],
                                   wide, samples)
        keep = _screen(model, barrier, x, cfg, draw, h_now, rows)
        emptied = {k for k, start, stop in spans if not searches[k].screened(keep[start:stop])}
        live = [k for k in live if k not in emptied]
    while live:
        rows, draw, spans = _round([searches[k].block() for k in live], live, samples)
        margins = _margins(model, barrier, x, cfg, draw, h_now, rows)
        live = [k for k, start, stop in spans if searches[k].meet(margins[start:stop])]
    return [search.outcome() for search in searches]


def solve_pairs(cfg: FilterConfig, dims: int, centralized: bool) -> int:
    """Most (row, sample) pairs one solve evaluates over A = ``dims``
    actuated action dimensions, one per agent, at G = ``cfg.grid_size``
    and S = ``cfg.n_samples``: (G^A + 1)·(S + 1) centralized (its screen
    takes every candidate at one sample, the kernel the survivors at all
    S), (G + 1)·(G^(A-1)·S + 1) for one agent's pessimistic search (its
    screen takes at most G + 1 rows at one sample; the corners first and
    the early exit only save work, since each row goes to the kernel at
    most once).  G >= 2, so G^64 is far over any work bound, and capping
    A at 64 keeps a comparison exact without huge powers."""
    g, s = cfg.grid_size, cfg.n_samples
    dims = min(dims, 64)
    if centralized:
        return (g ** dims + 1) * (s + 1)
    return (g + 1) * (g ** (dims - 1) * s + 1)


def proximity_radius(model: MasModel, cfg: FilterConfig, h_now: float) -> float:
    """Ball radius around the safe policy's action.

    In fixed mode the configured constant; in margin mode

        ((alpha_bar - alpha) * h(x) + epsilon_bar - epsilon)
            / (M * L_h * L_fu)

    which is negative outside the guaranteed region (h too small) and
    then raises GuaranteeDomainError.
    """
    if not math.isfinite(h_now):
        raise ContractViolationError(f"barrier value h(x) is not finite: {h_now}")
    if cfg.radius_mode == "fixed":
        return cfg.radius
    r = ((cfg.alpha_bar - cfg.alpha) * h_now + cfg.epsilon_bar - cfg.epsilon) / (
        model.n_agents * cfg.lipschitz_h * cfg.lipschitz_fu
    )
    if r < 0:
        raise GuaranteeDomainError(
            f"margin-derived proximity radius is negative (h = {h_now:.6g}); "
            "the state is outside the guaranteed region"
        )
    return float(r)


def _project_ball(v: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """v, or the point of the ball nearest to it; the distance is
    ``np.linalg.norm``'s own sqrt(diff . diff), without its per-call overhead."""
    diff = v - center
    d = math.sqrt(diff.dot(diff))
    if d <= radius:
        return v
    return center + radius * diff / d


def proximity_filter(
    model: MasModel,
    agent: int,
    nominal,
    safe,
    cfg: FilterConfig,
    h_now: float,
) -> FilterOutcome:
    """Closed-form projection of ``agent``'s nominal action onto the safety ball.

    ``nominal`` and ``safe`` are joint rows.  Always feasible: the action
    is the nominal one if it already lies within the radius of the safe
    action, otherwise the boundary point of the ball nearest to nominal.
    It is justified by its radius, not by a margin check, so the outcome
    carries ``margin=None``.  ``h_now`` = h(x) must be finite in either
    radius mode; only the margin-derived radius uses its value.
    """
    cols = _actuated_columns(model, agent)
    r = proximity_radius(model, cfg, h_now)
    action = _project_ball(model.validate_action(nominal)[cols],
                           model.validate_action(safe)[cols], r)
    return FilterOutcome(action=action, branch=Branch.PROXIMITY, margin=None)


def switching_filter(
    model: MasModel,
    barrier: Barrier,
    agents,
    x,
    nominal,
    safe,
    cfg: FilterConfig,
    samples,
    h_now: float,
) -> list:
    """Per agent of ``agents``, the pessimistic action when feasible, the
    proximity action otherwise; one outcome per agent, in that order.

    Well-defined for every state with a nonnegative barrier value; the
    branch records which path produced the action.  One
    ``pessimistic_filter`` call searches for every agent, each under its
    own draw ``samples[k]``; a ``proximity_filter`` fallback adds no rows
    to the search's.
    """
    outs = pessimistic_filter(model, barrier, agents, x, nominal, cfg, samples, h_now)
    return [out if out is not None else proximity_filter(model, agent, nominal, safe, cfg, h_now)
            for agent, out in zip(agents, outs)]
