import numpy as np
import pytest

from bendsim.dynamics import DynamicsParams, build_chain
from bendsim.errors import InvalidInputError
from bendsim.identification import identify, objective
from bendsim.integrator import PressureTrace, SimConfig, simulate
from bendsim.kinematics import joint_positions
from bendsim.reconstruction import SensorFrame
from bendsim.synthetic import node_frames_from_trajectory

# A small 3-link problem keeps every search iteration cheap; the
# full-scale 5-link recovery runs in the acceptance suite.
TRUE_PARAMS = DynamicsParams.uniform(1.6067, 0.008, 3)
TRACE = PressureTrace.rectangular(0.05, 0.6, 119e3)
BOUNDS = [(0.1, 20.0), (1e-4, 0.5)]


@pytest.fixture(scope="module")
def problem(bench_geometry):
    chain = build_chain(bench_geometry, 3)
    # Every frame time 0.1 + 0.08125 k lies on the 1600 Hz grid, so each
    # frame is an exact simulated state, not an interpolation.
    truth = SimConfig(t_end=0.8, output_rate=1600)
    traj = simulate(chain, TRUE_PARAMS, bench_geometry, TRACE, truth)
    frames = node_frames_from_trajectory(traj, np.linspace(0.1, 0.75, 9))
    return chain, frames


def rest_frames(chain, offset_m):
    """Two frames at t = 0: the rest shape shifted by offset_m along x."""
    points = joint_positions(chain, np.zeros(len(chain))) + [offset_m, 0.0]
    return [SensorFrame(0.0, points), SensorFrame(0.0, points)]


class TestObjective:
    def test_self_consistency(self, problem, bench_geometry):
        chain, frames = problem
        result = objective(TRUE_PARAMS, chain, bench_geometry, frames, TRACE)
        assert not result.diverged
        assert result.value < 1e-9

    def test_exact_at_off_grid_frame_times(self, bench_geometry):
        # Frames at 0.013 + 0.0475 k s lie on a 2 kHz truth grid but off
        # the 200 Hz to 1 kHz grids an output rate would use. The truth
        # ends at the last frame, as the objective's simulation does, so
        # both take the same steps and must agree to rounding.
        chain = build_chain(bench_geometry, 3)
        times = 0.013 + 0.0475 * np.arange(16)
        truth = SimConfig(t_end=times[-1], output_rate=2000)
        traj = simulate(chain, TRUE_PARAMS, bench_geometry, TRACE, truth)
        frames = node_frames_from_trajectory(traj, times)
        result = objective(TRUE_PARAMS, chain, bench_geometry, frames, TRACE)
        assert not result.diverged
        assert result.value < 1e-12

    def test_zero_length_window_scores_rest_shape(self, bench_geometry):
        chain = build_chain(bench_geometry, 3)
        result = objective(TRUE_PARAMS, chain, bench_geometry,
                           rest_frames(chain, 1e-3), TRACE)
        assert not result.diverged
        assert result.value == pytest.approx(1e-3, rel=1e-9)

    def test_perturbed_stiffness_scores_worse(self, problem, bench_geometry):
        chain, frames = problem
        base = objective(TRUE_PARAMS, chain, bench_geometry, frames,
                         TRACE).value
        perturbed = DynamicsParams.uniform(TRUE_PARAMS.k_b * 1.5, 0.008, 3)
        worse = objective(perturbed, chain, bench_geometry, frames,
                          TRACE).value
        assert worse > base

    def test_divergence_penalty(self, problem, bench_geometry):
        chain, frames = problem
        # A 1e300 Pa edge overflows the state; the objective must flag
        # it, not raise.
        overflow = PressureTrace(((0.0, 0.0), (0.5, 1e300)))
        result = objective(TRUE_PARAMS, chain, bench_geometry, frames,
                           overflow)
        assert result.diverged
        assert result.value == 1e6

    def test_empty_frames_rejected(self, problem, bench_geometry):
        chain, _ = problem
        with pytest.raises(InvalidInputError):
            objective(TRUE_PARAMS, chain, bench_geometry, [], TRACE)


class TestIdentify:
    def test_budget_one_returns_init_evaluation(self, problem,
                                                bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(2.0, 0.01, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=1)
        assert result.n_evaluations == 1
        assert result.params == init
        assert result.best_history == (result.objective_value,)

    def test_optimal_init_returned_unchanged(self, problem, bench_geometry):
        chain, frames = problem
        result = identify(chain, bench_geometry, frames, TRACE, TRUE_PARAMS,
                          BOUNDS, budget=40)
        assert result.params.k_b == pytest.approx(TRUE_PARAMS.k_b, abs=1e-12)
        assert result.params.damping[0] == pytest.approx(0.008, abs=1e-12)
        assert result.objective_value < 1e-9

    def test_monotone_history_and_bound_respect(self, problem,
                                                bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(3.0, 0.02, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=40)
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
                     budget=20)
        b = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                     budget=20)
        assert a.params == b.params
        assert a.best_history == b.best_history
        assert a.evaluations == b.evaluations

    def test_improves_from_offset_init(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(TRUE_PARAMS.k_b * 1.5,
                                      0.008 * 0.5, 3)
        result = identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                          budget=80)
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
                          budget=10, per_joint=True)
        assert len(result.params.damping) == 3
        assert result.n_evaluations == 10

    def test_zero_length_window(self, bench_geometry):
        chain = build_chain(bench_geometry, 3)
        result = identify(chain, bench_geometry, rest_frames(chain, 1e-3),
                          TRACE, TRUE_PARAMS, BOUNDS, budget=5)
        assert result.n_evaluations == 5
        assert result.objective_value == pytest.approx(1e-3, rel=1e-9)

    def test_empty_frames_rejected(self, problem, bench_geometry):
        chain, _ = problem
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, [], TRACE, TRUE_PARAMS, BOUNDS,
                     budget=5)

    def test_bounds_must_contain_init(self, problem, bench_geometry):
        chain, frames = problem
        init = DynamicsParams.uniform(25.0, 0.008, 3)
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, frames, TRACE, init, BOUNDS,
                     budget=5)

    def test_nonpositive_budget_rejected(self, problem, bench_geometry):
        chain, frames = problem
        with pytest.raises(InvalidInputError):
            identify(chain, bench_geometry, frames, TRACE, TRUE_PARAMS,
                     BOUNDS, budget=0)
