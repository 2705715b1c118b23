import numpy as np
import pytest

from bendsim.dynamics import DynamicsParams, build_chain
from bendsim.errors import InvalidInputError
from bendsim.identification import identify, objective
from bendsim.integrator import PressureTrace, SimConfig, simulate
from bendsim.synthetic import node_frames_from_trajectory

# A small 3-link problem keeps every search iteration cheap; the
# full-scale 5-link recovery runs in the acceptance suite.
TRUE_PARAMS = DynamicsParams.uniform(1.6067, 0.008, 3)
TRACE = PressureTrace.rectangular(0.05, 0.6, 119e3)
CONFIG = SimConfig(t_end=0.8, output_rate=250)
BOUNDS = [(0.1, 20.0), (1e-4, 0.5)]


@pytest.fixture(scope="module")
def problem(bench_geometry):
    chain = build_chain(bench_geometry, 3)
    traj = simulate(chain, TRUE_PARAMS, bench_geometry, TRACE, CONFIG)
    frames = node_frames_from_trajectory(traj, np.linspace(0.1, 0.75, 9))
    return chain, frames


class TestObjective:
    def test_self_consistency(self, problem, bench_geometry):
        chain, frames = problem
        result = objective(TRUE_PARAMS, chain, bench_geometry, frames, TRACE,
                           CONFIG)
        assert not result.diverged
        assert result.value < 1e-9

    def test_perturbed_stiffness_scores_worse(self, problem, bench_geometry):
        chain, frames = problem
        base = objective(TRUE_PARAMS, chain, bench_geometry, frames, TRACE,
                         CONFIG).value
        perturbed = DynamicsParams.uniform(TRUE_PARAMS.k_b * 1.5, 0.008, 3)
        worse = objective(perturbed, chain, bench_geometry, frames, TRACE,
                          CONFIG).value
        assert worse > base

    def test_divergence_penalty(self, problem, bench_geometry):
        chain, frames = problem
        # A 1e300 Pa edge overflows the state; the objective must flag
        # it, not raise.
        overflow = PressureTrace(((0.0, 0.0), (0.5, 1e300)))
        result = objective(TRUE_PARAMS, chain, bench_geometry, frames,
                           overflow, CONFIG)
        assert result.diverged
        assert result.value == 1e6

    def test_frames_outside_span_rejected(self, problem, bench_geometry):
        chain, frames = problem
        short = SimConfig(t_end=0.5, output_rate=250)
        with pytest.raises(InvalidInputError):
            objective(TRUE_PARAMS, chain, bench_geometry, frames, TRACE,
                      short)

    def test_empty_frames_rejected(self, problem, bench_geometry):
        chain, _ = problem
        with pytest.raises(InvalidInputError):
            objective(TRUE_PARAMS, chain, bench_geometry, [], TRACE, CONFIG)


class TestIdentify:
    def test_budget_one_returns_init_evaluation(self, problem,
                                                bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(2.0, 0.01, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=1, config=CONFIG)
        assert result.n_evaluations == 1
        assert result.params == init
        assert result.best_history == (result.objective_value,)

    def test_optimal_init_returned_unchanged(self, problem, bench_geometry):
        chain, frames = problem
        result = identify(chain, bench_geometry, frames, TRACE, TRUE_PARAMS,
                          BOUNDS, budget=40, config=CONFIG)
        assert result.params.k_b == pytest.approx(TRUE_PARAMS.k_b, abs=1e-12)
        assert result.params.damping[0] == pytest.approx(0.008, abs=1e-12)
        assert result.objective_value < 1e-9

    def test_monotone_history_and_bound_respect(self, problem,
                                                bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(3.0, 0.02, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=40, config=CONFIG)
        history = np.array(result.best_history)
        assert np.all(np.diff(history) <= 0.0)
        assert len(result.evaluations) == result.n_evaluations <= 40
        for x, value in result.evaluations:
            assert BOUNDS[0][0] <= x[0] <= BOUNDS[0][1]
            assert BOUNDS[1][0] <= x[1] <= BOUNDS[1][1]
            assert np.isfinite(value)

    def test_deterministic(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(2.5, 0.004, 3)
        a = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                     budget=20, config=CONFIG)
        b = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                     budget=20, config=CONFIG)
        assert a.params == b.params
        assert a.best_history == b.best_history
        assert a.evaluations == b.evaluations

    def test_improves_from_offset_init(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(TRUE_PARAMS.k_b * 1.5,
                                      0.008 * 0.5, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=80, config=CONFIG)
        start = result.best_history[0]
        assert result.objective_value < start / 10.0
        assert abs(result.params.k_b - TRUE_PARAMS.k_b) / TRUE_PARAMS.k_b \
            < 0.05

    def test_per_joint_damping_search(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams(k_b=2.0, damping=(0.01, 0.006, 0.008))
        bounds = [(0.1, 20.0), (1e-4, 0.5), (1e-4, 0.5),
                  (1e-4, 0.5)]
        result = identify(chain, bench_geometry, frames, TRACE, init, bounds,
                          budget=10, config=CONFIG, per_joint=True)
        assert len(result.params.damping) == 3
        assert result.n_evaluations == 10

    def test_empty_frames_rejected(self, problem, bench_geometry):
        chain, _ = problem
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, [], TRACE, TRUE_PARAMS, BOUNDS,
                     budget=5, config=CONFIG)

    def test_bounds_must_contain_init(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(25.0, 0.008, 3)
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                     budget=5, config=CONFIG)

    def test_nonpositive_budget_rejected(self, problem, bench_geometry):
        chain, frames = problem
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, frames, TRACE, TRUE_PARAMS,
                     BOUNDS, budget=0, config=CONFIG)
