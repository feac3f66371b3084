"""Online filter protocol: warm-up, emission, gain modes, verdicts."""

import dataclasses
import warnings

import numpy as np
import pytest

import delayfilter as df
from delayfilter import filtering
from delayfilter.gain import _innovation_terms
from conftest import make_feasible_system, make_square_system, random_noise

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])


def _config(r=1, mode=df.FIXED_SQUARE, n=2, x0=None, gain=None):
    return df.FilterConfig(
        r=r, gain_mode=mode,
        initial_estimate=np.zeros(n) if x0 is None else x0,
        initial_covariance=np.eye(n),
        gain=gain,
    )


def test_warm_up_protocol():
    state = df.init_filter(E1, None, _config())
    assert state.k == 0
    state, out = df.step(state, E1, None, [0.0])
    assert out is None
    state, out = df.step(state, E1, None, [0.0])
    assert out is None  # k=1 <= r
    state, out = df.step(state, E1, None, [0.0])
    assert out is not None and out.k == 2  # first emission at r+1


def test_output_shapes():
    state = df.init_filter(E1, None, _config())
    for y in ([0.0], [0.1], [0.3]):
        state, out = df.step(state, E1, None, y)
    assert out.state_estimate.shape == (2,)
    assert out.input_estimate.shape == (1,)
    assert out.innovation.shape == (1,)


def test_deadbeat_reconstruction_with_wrong_start():
    # nilpotent error dynamics: exact after the transient dies in n steps
    rng = np.random.default_rng(8)
    x = rng.standard_normal(2)
    e_seq = rng.standard_normal(30)
    xs, ys = [x.copy()], []
    for k in range(30):
        ys.append(float((E1.C @ x)[0]))
        x = E1.A @ x + E1.H @ [e_seq[k]]
        xs.append(x.copy())
    state = df.init_filter(E1, None, _config(x0=np.array([5.0, -3.0])))
    worst_x = worst_e = 0.0
    for k in range(30):
        state, out = df.step(state, E1, None, [ys[k]])
        if out is None or out.k < 6:
            continue
        worst_x = max(worst_x, float(np.max(np.abs(out.state_estimate - xs[out.k - 1]))))
        worst_e = max(worst_e, abs(out.input_estimate[0] - e_seq[out.k - 2]))
    assert worst_x <= 1e-10
    assert worst_e <= 1e-10


@pytest.mark.parametrize("change, error, message", [
    (dict(initial_covariance=np.eye(3)), df.DimensionMismatch, "initial_covariance must be"),
    (dict(initial_covariance=[[1.0, 0.1], [0.0, 1.0]]), df.NotSymmetric, "not symmetric"),
    # a NaN seed would poison every estimate; a NaN covariance is not an asymmetric one
    (dict(initial_estimate=[np.nan, 0.0]), df.DimensionMismatch,
     "initial_estimate must be finite"),
    (dict(initial_estimate=[np.inf, 0.0]), df.DimensionMismatch,
     "initial_estimate must be finite"),
    (dict(initial_covariance=[[np.nan, 0.0], [0.0, 1.0]]), df.DimensionMismatch,
     "initial_covariance must be finite"),
    (dict(initial_covariance=[[np.inf, 0.0], [0.0, 1.0]]), df.DimensionMismatch,
     "initial_covariance must be finite"),
    (dict(gain_mode=df.TIME_VARYING_MINVAR), df.PreconditionViolated, "needs a noise"),
    (dict(gain_mode=df.FIXED_USER_SUPPLIED), df.PreconditionViolated, "needs config.gain"),
    (dict(gain_mode=df.FIXED_USER_SUPPLIED, gain=np.zeros((2, 2))), df.DimensionMismatch,
     "gain must be"),
    (dict(gain_mode="Bogus"), df.PreconditionViolated, "unknown gain mode"),
], ids=["p0-shape", "p0-asymmetric", "x0-nan", "x0-inf", "p0-nan", "p0-inf", "no-noise",
        "no-gain", "gain-shape", "unknown-mode"])
def test_init_filter_rejects_a_bad_config(change, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            df.init_filter(E1, None, dataclasses.replace(_config(), **change))


@pytest.mark.parametrize("mode", [df.FIXED_SQUARE, df.TIME_VARYING_MINVAR])
def test_init_filter_rejects_a_gain_its_mode_would_ignore(mode):
    noise = df.NoiseSpec(Q=1e-3 * np.eye(2), R=1e-3 * np.eye(1))
    L = df.square_gain(E1, 1).L
    with pytest.raises(df.PreconditionViolated, match="config.gain must be None"):
        df.init_filter(E1, noise, _config(mode=mode, gain=L))
    df.init_filter(E1, noise, _config(mode=mode))


def test_infeasible_delay_rejected_at_init():
    with pytest.raises(df.InfeasibleDelay):
        df.init_filter(E1, None, _config(r=0))


def test_non_integer_delay_rejected():
    # a malformed delay, not a verdict on a well-formed one
    with pytest.raises(df.DelayOutOfRange, match="integer"):
        df.init_filter(E1, None, _config(r=1.5))


def _outputs(state, model, noise, ys, us=None):
    """The final state and the outputs of a step loop from state over ys (and us)."""
    outs = []
    for k, y_k in enumerate(ys):
        state, out = df.step(state, model, noise, y_k, None if us is None else us[k])
        outs.append(out)
    return state, outs


def _same_outputs(a, b):
    (state_a, outs_a), (state_b, outs_b) = a, b
    return state_a.k == state_b.k and np.array_equal(
        state_a.xhat_delayed, state_b.xhat_delayed) and all(
        x is y is None or (x.k == y.k and all(
            np.array_equal(getattr(x, f), getattr(y, f))
            for f in ("state_estimate", "input_estimate", "innovation")))
        for x, y in zip(outs_a, outs_b, strict=True))


def test_missing_known_input_rejected():
    model = df.validate_model(E1.A, E1.H, E1.C, B=[[0.3], [0.1]])
    state = df.init_filter(model, None, _config())
    with pytest.raises(df.DimensionMismatch):
        df.step(state, model, None, [0.0])
    # known inputs convert as measurements do: an int array, a (1, m) array
    # and a strided view give bitwise the outputs of a float (m,) array
    ys = np.linspace(-1.0, 1.0, 6)[:, None]
    us = np.arange(-3, 3)[:, None]
    wide = np.zeros((6, 3))
    wide[:, ::2] = us
    want = _outputs(state, model, None, ys, wide[:, :1])
    for rows in (us, wide[:, None, :1], wide[:, ::2][:, :1]):
        assert _same_outputs(_outputs(state, model, None, ys, rows), want)
    with pytest.raises(df.DimensionMismatch):
        df.step(state, model, None, [0.0], wide[0, ::2])


def test_wrong_measurement_size_rejected():
    state = df.init_filter(E1, None, _config())
    with pytest.raises(df.DimensionMismatch):
        df.step(state, E1, None, [0.0, 1.0])
    # an int array, a (1, l) array and a strided row view give bitwise the
    # outputs of a float (l,) array; a wrong length still raises
    model, noise, _ = df.reference_example("nonsquare3")
    state = df.init_filter(model, noise, _tv_config(model))
    ys = np.arange(-8, 8).reshape(8, 2)
    wide = np.zeros((8, 5))
    wide[:, ::3] = ys
    want = _outputs(state, model, noise, ys.astype(float))
    assert wide[0, ::3].strides == (24,)
    for rows in (ys, ys[:, None, :].astype(float), wide[:, ::3]):
        assert _same_outputs(_outputs(state, model, noise, rows), want)
    for bad in (wide[0, ::2], np.zeros((1, 3)), np.zeros(1, dtype=int)):
        with pytest.raises(df.DimensionMismatch):
            df.step(state, model, noise, bad)


def test_step_outputs_are_read_only():
    state = df.init_filter(E1, None, _config())
    for y in ([0.0], [0.1], [0.3]):
        state, out = df.step(state, E1, None, y)
    before = out.state_estimate.copy()
    for name in ("state_estimate", "input_estimate", "innovation"):
        with pytest.raises(ValueError):
            getattr(out, name)[0] = 1.0
    with pytest.raises(ValueError):
        state.xhat_delayed[:] = 0.0
    # the next step starts from the estimate it emitted
    _, nxt = df.step(state, E1, None, [0.2])
    assert np.array_equal(out.state_estimate, before)
    expected = df.step(state._replace(xhat_delayed=before), E1, None, [0.2])[1]
    assert np.array_equal(nxt.state_estimate, expected.state_estimate)
    with pytest.raises(AttributeError):
        state.k = 5
    with pytest.raises(AttributeError):
        state.extra = 1


def test_known_input_buffer_rolls():
    model = df.validate_model(E1.A, E1.H, E1.C, B=[[0.3], [0.1]])
    state = df.init_filter(model, None, _config())
    for k in range(4):
        state, _ = df.step(state, model, None, [0.0], [float(k)])
    # after consuming u_0..u_3 the buffer holds the last r+1 = 2 inputs
    assert len(state.u_buffer) == 2
    assert state.u_buffer[0][0] == 2.0
    assert state.u_buffer[1][0] == 3.0
    # the buffer keeps the values, not the caller's array: one array
    # refilled before every call gives the outputs of fresh arrays
    us = np.arange(6.0)[:, None]
    fresh = _outputs(df.init_filter(model, None, _config()), model, None, np.zeros((6, 1)), us)
    refilled = np.empty(1)
    state = df.init_filter(model, None, _config())
    for k in range(6):
        refilled[:] = us[k]
        state, out = df.step(state, model, None, [0.0], refilled)
    assert np.array_equal(state.xhat_delayed, fresh[0].xhat_delayed)
    assert np.array_equal(out.input_estimate, fresh[1][-1].input_estimate)


def test_user_supplied_gain_mode():
    L = df.square_gain(E1, 1).L
    config = _config(mode=df.FIXED_USER_SUPPLIED, gain=L)
    state = df.init_filter(E1, None, config)
    assert np.allclose(state.L, L)
    config_bad = _config(mode=df.FIXED_USER_SUPPLIED, gain=L + 0.2)
    with pytest.raises(df.ConstraintViolated):
        df.init_filter(E1, None, config_bad)


def test_time_varying_gain_freezes():
    model, noise, _ = df.reference_example("nonsquare3")
    config = df.FilterConfig(r=1, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    traj = df.simulate(model, noise, df.example_signals(model), 400, seed=2)
    state = df.init_filter(model, noise, config)
    frozen_at = None
    gains = []
    for k in range(traj.T + 1):
        state, out = df.step(state, model, noise, traj.y[k])
        if state.gain_frozen and frozen_at is None:
            frozen_at = k
            L_frozen = state.L.copy()
        if out is not None:
            gains.append(state.L.copy())
    assert frozen_at is not None
    assert np.array_equal(state.L, L_frozen)
    # frozen gain matches the steady-state fixed point
    res, _, converged = df.steady_state_gain(model, noise, 1)
    assert converged
    assert np.max(np.abs(state.L - res.L)) <= 1e-6


def test_error_dynamics_matrix_formula():
    L = df.square_gain(E1, 1).L
    M = df.error_dynamics_matrix(E1, 1, L)
    expected = E1.A - L @ E1.C @ E1.A @ E1.A
    assert np.allclose(M, expected)
    assert df.gain_spectral_radius(E1, 1, L) == pytest.approx(0.0, abs=1e-8)


def test_predicted_error_sequence_closed_form():
    L = df.square_gain(E1, 1).L
    M = df.error_dynamics_matrix(E1, 1, L)
    eps0 = np.array([1.0, -2.0])
    seq = df.predicted_error_sequence(E1, 1, L, eps0, 5)
    assert seq.shape == (6, 2)
    acc = eps0.copy()
    for j in range(6):
        assert np.allclose(seq[j], acc)
        acc = M @ acc


@pytest.mark.parametrize("T", [-1, 2.5, "3", True])
def test_predicted_error_sequence_rejects_a_bad_T(T):
    L = df.square_gain(E1, 1).L
    with pytest.raises(df.DimensionMismatch, match="T must be an integer"):
        df.predicted_error_sequence(E1, 1, L, [1.0, -2.0], T)
    assert df.predicted_error_sequence(E1, 1, L, [1.0, -2.0], 0).shape == (1, 2)
    for five in (5, 5.0, np.int64(5)):      # model._integer's rule, as simulate reads T
        assert df.predicted_error_sequence(E1, 1, L, [1.0, -2.0], five).shape == (6, 2)


def test_the_initial_covariance_is_sealed():
    # the first refresh of a TimeVaryingMinVar session reads it, and the plan's schedule,
    # shared by every session of (model, r, Q, R, P0), keeps the gain it gives
    model = df.reference_example("nonsquare3")[0]
    noise = df.default_noise(model)
    config = df.FilterConfig(r=1, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n), initial_covariance=np.eye(model.n))
    state = df.init_filter(model, noise, config)
    with pytest.raises(ValueError, match="read-only"):
        state.P.P[0, 0] = 100.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_predicted_error_sequence_rejects_a_nonfinite_eps0(bad):
    # eps0 is read as initial_estimate and x0 are: n finite values
    L = df.square_gain(E1, 1).L
    with pytest.raises(df.DimensionMismatch, match="eps0 must be finite"):
        df.predicted_error_sequence(E1, 1, L, [1.0, bad], 5)


def test_classify_convergence_verdicts():
    # deadbeat: the unique square gain of the chain system
    L = df.square_gain(E1, 1).L
    assert df.classify_convergence(E1, 1, L) == df.DEADBEAT

    model, _, _ = df.reference_example("minphase3")
    L3 = df.square_gain(model, 1).L
    assert df.classify_convergence(model, 1, L3) == df.ASYMPTOTIC

    model, _, _ = df.reference_example("nonminphase3")
    L3 = df.square_gain(model, 1).L
    assert df.classify_convergence(model, 1, L3) == df.DIVERGENT


def test_square_deadbeat_verdict_by_the_integer_test():
    # n = (r+1)p makes [C; CA; ...; CA^r] invertible, so F is nilpotent even
    # where its computed eigenvalues scatter past DEADBEAT_TOL
    model, _, _ = df.reference_example("compartmental-34")
    F = df.error_dynamics_matrix(model, 2, df.square_gain(model, 2).L)
    assert np.max(np.abs(np.linalg.eigvals(F))) > filtering.DEADBEAT_TOL
    assert df.classify_convergence(model, 2, df.square_gain(model, 2).L) == df.DEADBEAT
    rng = np.random.default_rng(34)
    for n, p, r in ((6, 2, 2), (4, 1, 3), (6, 3, 1), (5, 1, 4)):
        drawn = make_square_system(rng, n=n, p=p, delay=r)
        assert drawn is not None
        model, _ = drawn
        assert df.classify_convergence(model, r, df.square_gain(model, r).L) == df.DEADBEAT


def test_classify_convergence_persistent():
    # companion system with an invariant zero exactly at z = 1: the unique
    # no-delay gain leaves a unit-circle eigenvalue in the error dynamics
    model = df.validate_model([[0.0, 1.0], [0.1, 0.2]], [[0.0], [1.0]],
                              [[-1.0, 1.0]])
    report = df.invariant_zeros(model)
    assert report.zeros[0] == pytest.approx(1.0, abs=1e-9)
    L = df.square_gain(model, 0).L
    assert df.classify_convergence(model, 0, L) == df.PERSISTENT


def test_a_nilpotent_map_of_a_non_square_model_is_deadbeat_by_its_eigenvalues():
    # C = I at r = 0: the gain L = I meets L CH = H and makes F = A - A
    # exactly 0; l = n > p, so the verdict comes from the eigenvalues
    A = [[0.5, 0.1, 0.0], [0.2, 0.3, 0.1], [0.0, 0.4, 0.6]]
    model = df.validate_model(A, [[1.0], [0.0], [0.0]], np.eye(3))
    L = np.eye(3)
    assert not df.error_dynamics_matrix(model, 0, L).any()
    assert df.classify_convergence(model, 0, L) == df.DEADBEAT
    assert df.gain_spectral_radius(model, 0, L) == 0.0
    traj = df.simulate(model, None, df.example_signals(model), 60)
    run = df.run_filter(model, None, _config(r=0, mode=df.FIXED_USER_SUPPLIED, n=3, gain=L),
                        traj.y)
    # xhat[k] = y[k] = x[k] exactly; ehat[k] = H^+ (x[k] - A x[k-1]) rounds once
    # per term, and ||H^+|| = 1
    assert np.array_equal(run.state_estimates[1:], traj.x[1:])
    tol = 4 * np.finfo(float).eps * (1.0 + np.linalg.norm(A, 2)) * np.max(np.abs(traj.x))
    np.testing.assert_allclose(run.input_estimates[1:], traj.e[:-1], rtol=0, atol=tol)


def test_classify_convergence_rejects_biased_gain():
    L = df.square_gain(E1, 1).L
    with pytest.raises(df.ConstraintViolated):
        df.classify_convergence(E1, 1, L + 1.0)


@pytest.mark.parametrize("z, zero_class, verdict", [
    (0.5, df.ALL_INSIDE, df.ASYMPTOTIC),
    (1.0 - 2e-9, df.ALL_INSIDE, df.ASYMPTOTIC),
    (1.0 - 5e-10, df.ON_CIRCLE, df.PERSISTENT),
    (1.0 + 5e-10, df.ON_CIRCLE, df.PERSISTENT),
    (1.0 + 2e-9, df.OUTSIDE, df.DIVERGENT),
    (1.5, df.OUTSIDE, df.DIVERGENT),
])
def test_the_zero_class_and_the_verdict_read_one_band_at_the_unit_circle(z, zero_class, verdict):
    # the companion model of the persistent case with C = [-z, 1]: its one invariant
    # zero is z and its error map at r = 0 has spectrum {0, z}, so both classifiers
    # place z against the same band of half-width 1e-9 about the unit circle
    model = df.validate_model([[0.0, 1.0], [0.1, 0.2]], [[0.0], [1.0]], [[-z, 1.0]])
    L, report = df.square_gain(model, 0).L, df.invariant_zeros(model)
    assert report.zeros == (pytest.approx(z, abs=1e-14),)
    assert df.gain_spectral_radius(model, 0, L) == pytest.approx(z, abs=1e-14)
    assert (report.classification, df.classify_convergence(model, 0, L)) == (zero_class, verdict)


@pytest.mark.parametrize("call", [
    df.error_dynamics_matrix, df.gain_spectral_radius, df.unbiasedness_residual,
    lambda model, r, L: df.predicted_error_sequence(model, r, L, np.ones(model.n), 3),
], ids=["error_dynamics_matrix", "gain_spectral_radius", "unbiasedness_residual",
        "predicted_error_sequence"])
def test_every_function_that_takes_a_gain_checks_it_as_the_gate_does(call):
    # nonsquare3 has n = 3 and l = 2: a 1 x 2 gain would broadcast to a different
    # gain and a 3 x 3 gain would end in numpy's error; both are the wrong shape
    model, noise, _ = df.reference_example("nonsquare3")
    L = np.array(df.minvar_gain(model, noise, 1).L)
    bad_entry = L.copy()
    bad_entry[1, 0] = np.nan
    cases = [(L[:1], df.DimensionMismatch), (np.eye(3), df.DimensionMismatch),
             (bad_entry, df.ConstraintViolated), (np.full((3, 2), np.inf), df.ConstraintViolated)]
    for gain, error in cases:
        with pytest.raises(error, match="gain must be|gain is not finite"):
            call(model, 1, gain)
        with pytest.raises(error, match="gain must be|gain is not finite"):
            df.classify_convergence(model, 1, gain)
    call(model, 1, L)


# -- run_filter: the whole record at once ------------------------------------

def _known_input_case(trials, T=30):
    base, noise, _ = df.reference_example("nonsquare3")
    model = df.validate_model(base.A, base.H, base.C, B=[[0.3], [-0.2], [0.1]],
                              D=[[0.5], [0.0]])
    rng = np.random.default_rng(21)
    y = rng.standard_normal((trials, T + 1, model.l))
    u = rng.standard_normal((trials, T + 1, model.m))
    config = df.FilterConfig(r=2, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    return model, noise, config, y, u


@pytest.mark.parametrize("trials", [1, 3])
def test_run_filter_batch_equals_step_loop(trials):
    model, noise, config, y, u = _known_input_case(trials)
    run = df.run_filter(model, noise, config, y, u)
    assert run.state_estimates.shape == y.shape[:2] + (model.n,)
    assert run.input_estimates.shape == y.shape[:2] + (model.p,)
    assert run.innovations.shape == y.shape
    assert np.all(np.isnan(run.state_estimates[:, :config.r + 1]))
    for t in range(trials):
        state = df.init_filter(model, noise, config)
        for k in range(y.shape[1]):
            state, out = df.step(state, model, noise, y[t, k], u[t, k])
            if out is None:
                continue
            for got, want in ((run.state_estimates[t, k], out.state_estimate),
                              (run.input_estimates[t, k], out.input_estimate),
                              (run.innovations[t, k], out.innovation)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    single = df.run_filter(model, noise, config, y[0], u[0])
    np.testing.assert_allclose(single.state_estimates, run.state_estimates[0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("r", [1, 2])
def test_run_filter_reports_freeze_step(r):
    model, noise, _ = df.reference_example("nonsquare3")
    config = df.FilterConfig(r=r, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    traj = df.simulate(model, noise, df.example_signals(model), 200, seed=3)
    state = df.init_filter(model, noise, config)
    flipped_at = None
    for k in range(traj.T + 1):
        state, _ = df.step(state, model, noise, traj.y[k])
        if state.gain_frozen and flipped_at is None:
            flipped_at = k
    run = df.run_filter(model, noise, config, traj.y)
    assert flipped_at is not None
    assert run.frozen_at == flipped_at
    assert np.array_equal(run.L, state.L)
    # a record that ends before the freeze step reports no freeze
    short = df.run_filter(model, noise, config, traj.y[:flipped_at])
    assert short.frozen_at is None
    fixed = df.run_filter(model, noise, _config(r=r, mode=df.FIXED_USER_SUPPLIED,
                                                n=model.n, gain=run.L), traj.y)
    assert fixed.frozen_at is None and np.array_equal(fixed.L, run.L)


def test_run_filter_rejects_bad_shapes():
    model, noise, config, y, u = _known_input_case(2)
    with pytest.raises(df.DimensionMismatch):
        df.run_filter(model, noise, config, y)              # u missing
    with pytest.raises(df.DimensionMismatch):
        df.run_filter(model, noise, config, y, u[0])        # u without trial axis
    with pytest.raises(df.DimensionMismatch):
        df.run_filter(model, noise, config, y[..., :1], u)  # l = 2 outputs
    with pytest.raises(df.InfeasibleDelay):
        df.run_filter(model, noise, _config(r=0, n=model.n), y, u)


def test_run_filter_freezes_a_gain_it_cannot_refresh():
    # nonsquare12's unique gain has spectral radius 7.46; by k = 4 the
    # covariance is so large that the innovation covariance is singular,
    # so the gain freezes at the last one computed instead of raising
    model, noise, _ = df.reference_example("nonsquare12")
    config = _config(r=1, mode=df.TIME_VARYING_MINVAR, n=model.n)
    traj = df.simulate(model, None, df.example_signals(model), 200, seed=7)
    run = df.run_filter(model, noise, config, traj.y)
    assert run.frozen_at == 4
    assert np.all(np.isfinite(run.state_estimates[2:]))
    assert df.classify_convergence(model, 1, run.L) == df.DIVERGENT
    # a step loop freezes at the same k with the same gain; its estimates
    # agree up to the freeze, after which the unstable error dynamics
    # amplify the two paths' different rounding by 7.46 per step
    state = df.init_filter(model, noise, config)
    for k in range(traj.T + 1):
        state, out = df.step(state, model, noise, traj.y[k])
        assert state.gain_frozen == (k >= 4)
        if out is not None and k <= 4:
            np.testing.assert_allclose(run.state_estimates[k], out.state_estimate,
                                       rtol=0, atol=1e-12)
    assert np.array_equal(run.L, state.L)


def test_run_filter_reports_where_estimates_overflow():
    # on a 600-step record the divergent mode (7.46^k) overflows the
    # estimates; run_filter reports the first such row instead of warning
    model, noise, _ = df.reference_example("nonsquare12")
    config = _config(r=1, mode=df.TIME_VARYING_MINVAR, n=model.n)
    traj = df.simulate(model, None, df.example_signals(model), 600, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = df.run_filter(model, noise, config, traj.y)
        # a batch reports the first such row of any trial
        batch = df.run_filter(model, noise, config, np.stack([0.0 * traj.y, traj.y]))
    N = run.nonfinite_at
    assert N is not None
    rows = np.hstack([run.state_estimates, run.input_estimates, run.innovations])
    assert np.all(np.isfinite(rows[2:N])) and not np.all(np.isfinite(rows[N]))
    batch_rows = np.concatenate([batch.state_estimates, batch.input_estimates,
                                 batch.innovations], axis=-1)
    finite = np.isfinite(batch_rows[:, 2:]).all(axis=(0, 2))
    assert batch.nonfinite_at == 2 + int(np.argmin(finite)) and not finite.all()
    assert np.all(np.isfinite(batch_rows[0, 2:]))
    assert df.run_filter(model, noise, config, traj.y[:N]).nonfinite_at is None
    assert df.run_filter(model, noise, config, traj.y[:2]).nonfinite_at is None

    # The noiseless error is rounding grown by the gain's unstable mode, so
    # N records where rounding happened to seed it, not a property of the
    # filter: any change in summation order moves it by a step or two.
    # What is fixed is the growth rate and the window the seed implies.
    # With the error at row k on the line s rho^k, row N is the first whose
    # update [xhat | z] G overflows: s rho^(N-1) g >= f, with f the largest
    # float and g the largest column sum of |G|, while xhat at N-1 is finite:
    # s rho^(N-1) <= f. Seeds s from eps to the residual tolerance tol give
    #     1 + ln(f / (g tol)) / ln rho  <=  N  <=  1 + ln(f / eps) / ln rho,
    # here (709.8 + 20.3 - 11.1) / 2.010 + 1 = 358.7 and (709.8 + 36.0) / 2.010
    # + 1 = 372.1 with rho = 7.4633, tol = 1.6e-9 and g = 6.6e4; README's
    # "about 360 steps".
    k = np.arange(100, 301)
    log_err = np.log(np.max(np.abs(run.state_estimates[k] - traj.x[k - 1]), axis=1))
    slope, log_seed = np.polyfit(k, log_err, 1)
    log_rho = np.log(df.gain_spectral_radius(model, 1, run.L))
    assert slope == pytest.approx(log_rho, rel=1e-8)
    eps, f = np.finfo(float).eps, np.finfo(float).max
    tol = 1e-9 * (1.0 + np.linalg.norm(model.H))
    assert eps <= np.exp(log_seed) <= tol
    ops = df.init_filter(model, noise, config).ops
    g = np.abs(filtering._update_map(model, ops.d, run.L)).sum(axis=0).max()
    lo, hi = (1.0 + (np.log(f) - np.log(seed)) / log_rho for seed in (g * tol, eps))
    assert lo <= N <= hi


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_filter_rejects_a_nonfinite_sample_it_reads(bad):
    # run_filter reads y from k = r+1 on and u from k = 0 on; a non-finite sample
    # there is named by (trial, k, column), so nonfinite_at means overflow only
    base, noise, _ = df.reference_example("nonsquare3")
    model = df.validate_model(base.A, base.H, base.C, B=[[0.3], [-0.2], [0.1]],
                              D=[[0.2], [0.0]])
    config = _config(r=1, mode=df.TIME_VARYING_MINVAR, n=model.n)
    traj = df.simulate(model, noise, df.example_signals(model), 30, seed=3,
                       u_signals=[df.parse_signal_spec("sine:1:9")])
    ys, us = np.stack([traj.y] * 3), np.stack([traj.u] * 3)

    for name, where, message in [
            # a single record
            ("y", [(12, 1)], "^y is not finite at k=12, column 1;"),
            ("y", [(2, 0)], "^y is not finite at k=2, column 0;"),         # k = r+1
            ("u", [(0, 0)], "^u is not finite at k=0, column 0;"),
            ("u", [(30, 0)], "^u is not finite at k=30, column 0;"),
            # a batch names the first by (trial, k, column)
            ("y", [(2, 7, 0), (1, 20, 1), (1, 20, 0)], "^y is not finite at trial 1, k=20, column 0;"),
            ("u", [(1, 5, 0)], "^u is not finite at trial 1, k=5, column 0;")]:
        y, u = (ys.copy(), us.copy()) if len(where[0]) == 3 else (ys[0].copy(), us[0].copy())
        for at in where:
            (y if name == "y" else u)[at] = bad
        with pytest.raises(df.NonFiniteSample, match=message):
            df.run_filter(model, noise, config, y, u)

    # the warm-up rows of y, k <= r, are never read: they may hold anything, and the
    # estimates are those of the record with finite warm-up rows
    for y, u in ((ys, us), (ys[1], us[1])):
        poisoned = y.copy()
        poisoned[..., :config.r + 1, :] = bad
        want, got = (df.run_filter(model, noise, config, a, u) for a in (y, poisoned))
        assert got.nonfinite_at is None
        for field in ("state_estimates", "input_estimates", "innovations"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


# -- the block scan of a frozen, stable tail ----------------------------------

# tail lengths: none, the shortest ones, and a perfect square with one below and one above
_TAILS = [0, 1, 2, 3, 99, 100, 101]


def _stepped(model, noise, config, y, u):
    """[xhat | ehat | innovation] per k of a step loop over one trajectory; warm-up rows NaN."""
    state = df.init_filter(model, noise, config)
    rows = np.full((len(y), model.n + model.p + model.l), np.nan)
    for k in range(len(y)):
        state, out = df.step(state, model, noise, y[k], None if u is None else u[k])
        if out is not None:
            rows[k] = np.concatenate([out.state_estimate, out.input_estimate, out.innovation])
    return rows


def _spy_on_scan(monkeypatch):
    """The tail lengths run_filter hands to its block scan, one per call."""
    tails, scan = [], filtering._scan

    def spy(W, Gx):
        tails.append(len(W) - 1)
        scan(W, Gx)

    monkeypatch.setattr(filtering, "_scan", spy)
    return tails


def _assert_run_matches_steps(model, noise, config, y, u=None):
    """run_filter over y, one trajectory or a batch, against a step loop per trial:
    state estimates, input estimates and innovations each within 1e-12 of their largest value."""
    run = df.run_filter(model, noise, config, y, u)
    got = np.concatenate([run.state_estimates, run.input_estimates, run.innovations], axis=-1)
    trials = y if y.ndim == 3 else y[None]
    inputs = [None] * len(trials) if u is None else (u if u.ndim == 3 else u[None])
    want = np.stack([_stepped(model, noise, config, yt, ut) for yt, ut in zip(trials, inputs)])
    got = got.reshape(want.shape)
    n, p = model.n, model.p
    for cols in (slice(0, n), slice(n, n + p), slice(n + p, None)):
        scale = np.max(np.abs(want[..., cols]), initial=0.0, where=~np.isnan(want[..., cols]))
        np.testing.assert_allclose(got[..., cols], want[..., cols], rtol=0, atol=1e-12 * scale)
    return run


def _with_known_inputs(rng, model):
    return df.validate_model(model.A, model.H, model.C, B=rng.standard_normal((model.n, 2)),
                             D=rng.standard_normal((model.l, 2)))


def _fixed_stable_cases(rng):
    """Three square models under FixedSquare and three non-square ones under their
    minimum-variance gain, each drawn until the gain's error map is stable."""
    cases = []
    while len(cases) < 6:
        square = len(cases) < 3
        drawn = make_square_system(rng) if square else make_feasible_system(rng)
        if drawn is None or (not square and drawn[0].l == drawn[0].p):
            continue
        model, r = drawn
        if square:
            config = _config(r=r, n=model.n)
            L = df.square_gain(model, r).L
        else:
            L = df.minvar_gain(model, random_noise(rng, model), r).L
            config = _config(r=r, mode=df.FIXED_USER_SUPPLIED, n=model.n, gain=L)
        if df.gain_spectral_radius(model, r, L) < 1.0:
            cases.append((model, config))
    return cases


@pytest.mark.parametrize("known_inputs", [False, True])
@pytest.mark.parametrize("tail", _TAILS)
def test_the_scanned_tail_of_a_fixed_gain_matches_stepping(tail, known_inputs, monkeypatch):
    rng = np.random.default_rng(41)
    tails = _spy_on_scan(monkeypatch)
    for model, config in _fixed_stable_cases(rng):
        if known_inputs:
            model = _with_known_inputs(rng, model)
        for shape in ((), (3,)):
            y = rng.standard_normal(shape + (tail + config.r + 1, model.l))
            u = rng.standard_normal(y.shape[:-1] + (model.m,)) if known_inputs else None
            _assert_run_matches_steps(model, None, config, y, u)
    assert tails == ([tail] * 12 if tail else [])


@pytest.mark.parametrize("known_inputs", [False, True])
def test_the_scanned_tail_of_a_time_varying_gain_matches_stepping(known_inputs, monkeypatch):
    # the gain is refreshed row by row until it freezes mid-record; the rest is scanned
    rng = np.random.default_rng(43)
    tails = _spy_on_scan(monkeypatch)
    cases = 0
    while cases < 3:
        drawn = make_feasible_system(rng)
        if drawn is None or drawn[0].l == drawn[0].p:
            continue
        model, r = drawn
        if known_inputs:
            model = _with_known_inputs(rng, model)
        noise = random_noise(rng, model)
        config = _tv_config(model, r)
        probe = df.run_filter(model, noise, config, rng.standard_normal((400, model.l)),
                              np.zeros((400, model.m)))
        if probe.frozen_at is None or df.gain_spectral_radius(model, r, probe.L) >= 1.0:
            continue
        cases += 1
        del tails[:]
        for tail in _TAILS:
            for shape in ((), (3,)):
                y = rng.standard_normal(shape + (probe.frozen_at + tail, model.l))
                u = rng.standard_normal(y.shape[:-1] + (model.m,)) if known_inputs else None
                run = _assert_run_matches_steps(model, noise, config, y, u)
                assert run.frozen_at == (probe.frozen_at if tail else None)
        assert tails == [tail for tail in _TAILS if tail for _ in range(2)]


def test_the_scanned_tail_of_a_non_normal_map_matches_stepping(monkeypatch):
    # compartmental-34's square gain at r = 2 has a nilpotent error map with
    # ||F|| near 80; the scan's rounding grows with the square of that
    # transient, stepping's with the transient. A long noisy record with
    # known inputs, the shape of a CLI filter run, still agrees within 1e-12.
    base, noise, _ = df.reference_example("compartmental-34")
    rng = np.random.default_rng(47)
    model = _with_known_inputs(rng, base)
    config = _config(r=2, n=model.n)
    L = df.square_gain(model, 2).L
    assert np.linalg.norm(df.error_dynamics_matrix(model, 2, L), 2) > 50
    assert df.gain_spectral_radius(model, 2, L) < 1e-3      # nilpotent, up to rounding
    T = 20000
    traj = df.simulate(model, noise, df.example_signals(model), T, seed=5)
    tails = _spy_on_scan(monkeypatch)
    _assert_run_matches_steps(model, None, config, traj.y, traj.u)
    assert tails == [T - 2]


def _stepwise_nonfinite_at(model, noise, config, y):
    """nonfinite_at of run_filter's recursion one product per row, for one trajectory
    with no known inputs: the k of the first row whose estimates are not finite."""
    state = df.init_filter(model, noise, config)
    ops, r, n = state.ops, config.r, model.n
    W = np.zeros((len(y) - r, n + model.l))
    W[0, :n], W[:-1, n:] = state.xhat_delayed, y[r + 1:]
    gain = state.gain
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(W) - 1):
            if not gain.frozen:
                gain = filtering._gain_at(ops, i, gain)
            W[i + 1, :n] = W[i] @ np.ascontiguousarray(gain.G[:, :n])
        decoded = W[:-1] @ ops.d.Gd
    finite = np.isfinite(W[1:, :n]).all(axis=1) & np.isfinite(decoded).all(axis=1)
    return None if finite.all() else r + 1 + int(np.argmin(finite))


def test_an_unstable_frozen_map_is_stepped(monkeypatch):
    # a block of powers of nonsquare12's divergent map overflows before the
    # estimates do, so a scan would report the overflow rows early
    model, noise, _ = df.reference_example("nonsquare12")
    config = _config(r=1, mode=df.TIME_VARYING_MINVAR, n=model.n)
    traj = df.simulate(model, None, df.example_signals(model), 600, seed=7)
    tails = _spy_on_scan(monkeypatch)
    N = df.run_filter(model, noise, config, traj.y).nonfinite_at
    assert N is not None
    # scanned, the record cut at N or N + 1 rows would report k = 362
    for rows in (len(traj.y), N + 1, N, 300):
        got = df.run_filter(model, noise, config, traj.y[:rows]).nonfinite_at
        assert got == _stepwise_nonfinite_at(model, noise, config, traj.y[:rows])
    assert tails == []


# -- filter plans: one gain schedule per (model, noise, r, P0) ---------------

def _tv_config(model, r=1, P0=None):
    return df.FilterConfig(r=r, gain_mode=df.TIME_VARYING_MINVAR,
                           initial_estimate=np.zeros(model.n),
                           initial_covariance=np.eye(model.n) if P0 is None else P0)


@pytest.mark.parametrize("P0, error", [
    (np.diag([1.0, -1.0]), df.NotPositiveSemidefinite),
    (-np.eye(2), df.NotPositiveSemidefinite),
    ([[1.0, 0.5], [0.0, 1.0]], df.NotSymmetric),
], ids=["indefinite", "negative", "asymmetric"])
def test_an_initial_covariance_that_is_no_covariance_raises_in_every_mode(P0, error):
    noise = df.NoiseSpec(Q=1e-3 * np.eye(2), R=1e-3 * np.eye(1))
    L = df.square_gain(E1, 1).L
    for mode, gain in ((df.FIXED_SQUARE, None), (df.TIME_VARYING_MINVAR, None),
                       (df.FIXED_USER_SUPPLIED, L)):
        config = dataclasses.replace(_config(mode=mode, gain=gain), initial_covariance=P0)
        with pytest.raises(error):
            df.init_filter(E1, noise, config)
        with pytest.raises(error):
            df.run_filter(E1, noise, config, np.zeros((10, 1)))
    model, noise3, _ = df.reference_example("nonsquare3")
    with pytest.raises(error):
        df.steady_state_gain(model, noise3, 1, P0=np.pad(P0, ((0, 1), (0, 1))) + np.diag([0, 0, 1]))


def test_a_noise_spec_changed_in_place_to_no_covariance_is_rejected_by_the_next_session():
    model, noise, _ = df.reference_example("nonsquare3")
    Q = np.array(noise.Q)
    hand = df.NoiseSpec(Q=Q, R=np.array(noise.R))
    config = _tv_config(model)
    df.init_filter(model, hand, config)
    Q[...] = -1e-4 * np.eye(model.n)
    with pytest.raises(df.QIndefinite):
        df.init_filter(model, hand, config)
    with pytest.raises(df.QIndefinite):
        df.run_filter(model, hand, config, np.zeros((10, model.l)))


def test_the_covariance_rule_runs_once_where_a_covariance_enters(monkeypatch):
    # eigvalsh is the rule's eigenvalue test: none per step, per schedule refresh
    # or per steady_state_gain round; one for init_filter's P0 and one for a given P0
    model, noise, _ = df.reference_example("nonsquare3")
    config = _tv_config(model)
    df.init_filter(model, noise, config)                   # the plan is cached from here
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))

    def count(call):
        del calls[:]
        call()
        return len(calls)

    filtering._plan.cache_clear()
    assert count(lambda: df.init_filter(model, noise, config)) == 3   # P0, and Q, R rebuilt
    state = df.init_filter(model, noise, config)
    assert len(state.ops.schedule) == 0
    assert count(lambda: df.init_filter(model, noise, config)) == 1
    y = np.zeros(model.l)
    for _ in range(80):                    # refreshes until the gain freezes, then frozen steps
        assert count(lambda: df.step(state, model, noise, y)) == 0
        state, _ = df.step(state, model, noise, y)
    assert state.gain_frozen and len(state.ops.schedule) > 0
    assert count(lambda: filtering._refresh_gain(state.ops, state.gain)) == 0
    assert count(lambda: df.steady_state_gain(model, noise, 1)) == 0
    assert count(lambda: df.steady_state_gain(model, noise, 1, P0=np.eye(model.n))) == 1
    # Q and R by the rule, then R's strict definiteness on the R the rule checked
    assert count(lambda: df.validate_noise(noise.Q, noise.R, model)) == 3


def test_the_gain_schedule_freezes_once_the_covariance_overflows():
    # x2 is unstable and unobserved: the covariance grows fourfold a step
    # while the gain, which does not see x2, stops changing. The schedule
    # freezes at the first covariance past the cap steady_state_gain stops
    # at, long before the covariance itself overflows (k = 256) and
    # warns inside the next refresh.
    model = df.validate_model([[0.5, 0.0], [0.0, 2.0]], [[1.0], [1.0]], [[1.0, 0.0], [1.0, 0.0]])
    noise = df.NoiseSpec(Q=1e-2 * np.eye(2), R=1e-2 * np.eye(2))
    config = _tv_config(model, r=0)
    state, over, frozen = df.init_filter(model, noise, config), None, None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(300):
            state, _ = df.step(state, model, noise, np.zeros(model.l))
            if over is None and state.P.trace > 1e30:
                over = k
            if frozen is None and state.gain_frozen:
                frozen = k
        run = df.run_filter(model, noise, config, np.zeros((300, model.l)))
    assert over is not None and over == frozen == run.frozen_at


def _step_loop(model, noise, config, y):
    """(estimates, innovations, k at which the gain froze) of a step loop over y."""
    state = df.init_filter(model, noise, config)
    rows, innovations, frozen_at = [], [], None
    for k in range(len(y)):
        state, out = df.step(state, model, noise, y[k])
        if state.gain_frozen and frozen_at is None:
            frozen_at = k
        if out is not None:
            rows.append(np.concatenate([out.state_estimate, out.input_estimate]))
            innovations.append(out.innovation)
    return np.array(rows), np.array(innovations), frozen_at


def _same_run(a, b):
    return a.frozen_at == b.frozen_at and np.array_equal(a.L, b.L) and all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in ("state_estimates", "input_estimates", "innovations"))


def _cold_run(model, noise, config, y, u=None):
    """run_filter with no plan in the memo."""
    filtering._plan.cache_clear()
    return df.run_filter(model, noise, config, y, u)


@pytest.mark.parametrize("r", [1, 2])
def test_the_schedule_steps_the_covariance_as_covariance_update_does(r):
    # a refresh steps the covariance exactly as covariance_update does for
    # the gain it built; a refresh that gates its gain once must keep this
    model, noise, _ = df.reference_example("nonsquare3")
    config = _tv_config(model, r)
    y = df.simulate(model, noise, df.example_signals(model), 200, seed=3).y
    assert _cold_run(model, noise, config, y).frozen_at is not None
    state = df.init_filter(model, noise, config)
    P = state.P
    for entry in state.ops.schedule:
        want = df.covariance_update(model, noise, r, entry.L, P)
        assert np.array_equal(entry.P.P, want.P) and entry.P.trace == want.trace
        P = entry.P


def test_a_second_session_reads_the_first_sessions_schedule():
    model, noise, _ = df.reference_example("nonsquare3")
    config = _tv_config(model)
    y = df.simulate(model, noise, df.example_signals(model), 120, seed=4).y
    filtering._plan.cache_clear()
    cold = _step_loop(model, noise, config, y)
    plan = df.init_filter(model, noise, config).ops
    # one entry per emitted step up to and including the freeze
    assert cold[2] is not None and len(plan.schedule) == cold[2] - config.r
    warm = _step_loop(model, noise, config, y)
    assert warm[2] == cold[2]
    assert all(np.array_equal(a, b) for a, b in zip(cold[:2], warm[:2]))
    # equal values in another NoiseSpec give the same plan
    twin = df.NoiseSpec(Q=np.array(noise.Q), R=np.array(noise.R))
    assert df.init_filter(model, twin, config).ops is plan

    cold_run = _cold_run(model, noise, config, y)
    assert cold_run.frozen_at == cold[2]
    assert _same_run(df.run_filter(model, noise, config, y), cold_run)


def test_each_model_noise_and_p0_gets_its_own_schedule():
    model, noise, _ = df.reference_example("nonsquare3")
    config = _tv_config(model)
    y = df.simulate(model, noise, df.example_signals(model), 120, seed=4).y
    other_model = df.validate_model(model.A, model.H, 2.0 * model.C)
    variants = [
        (model, noise, _tv_config(model, P0=2.0 * np.eye(model.n))),
        (model, df.validate_noise(50.0 * noise.Q, noise.R, model), config),
        (model, df.validate_noise(noise.Q, 50.0 * noise.R, model), config),
        (other_model, noise, config),
    ]
    colds = [_cold_run(*case, y) for case in variants]
    base = df.run_filter(model, noise, config, y)
    for case, cold in zip(variants, colds):
        got = df.run_filter(*case, y)
        assert _same_run(got, cold)
        assert not np.array_equal(got.state_estimates, base.state_estimates, equal_nan=True)

    # a NoiseSpec built by hand keeps writable arrays; changing one in
    # place between sessions must change the schedule the next one reads
    Q = np.array(noise.Q)
    hand = df.NoiseSpec(Q=Q, R=np.array(noise.R))
    first = df.run_filter(model, hand, config, y)
    Q *= 50.0
    second = df.run_filter(model, hand, config, y)
    assert not np.array_equal(first.state_estimates, second.state_estimates, equal_nan=True)
    assert _same_run(second, colds[1])


def test_plans_belong_to_their_model():
    # more models than the memo keeps plans for, visited in turn so that
    # each session follows sessions on other models
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 20:
        drawn = make_feasible_system(rng)
        if drawn is not None:
            model, r = drawn
            cases.append((model, random_noise(rng, model), _tv_config(model, r),
                          rng.standard_normal((30, model.l))))
    colds = [_cold_run(*case) for case in cases]
    cold_loops = []
    for case in cases:
        filtering._plan.cache_clear()
        cold_loops.append(_step_loop(*case))
    for _ in range(2):
        for case, cold, cold_loop in zip(cases, colds, cold_loops):
            assert _same_run(df.run_filter(*case), cold)
            loop = _step_loop(*case)
            assert loop[2] == cold_loop[2]
            assert all(np.array_equal(a, b) for a, b in zip(loop[:2], cold_loop[:2]))
    assert filtering._plan.cache_info().currsize == filtering._plan.cache_info().maxsize == 16


def test_fixed_gains_build_their_plans_outside_the_memo():
    # only the time-varying schedule is shared between sessions
    model = df.reference_example("compartmental-34")[0]
    L = df.square_gain(model, 2).L
    for cfg in (_config(r=2, n=model.n),
                _config(r=2, mode=df.FIXED_USER_SUPPLIED, n=model.n, gain=L)):
        before = filtering._plan.cache_info()
        first = df.init_filter(model, None, cfg).ops
        assert filtering._plan.cache_info() == before
        assert df.init_filter(model, None, cfg).ops is not first
        assert np.array_equal(first.L0, L)


@pytest.mark.parametrize("r", [1, 2])
def test_every_update_map_is_the_error_map_over_the_gain(r):
    # the rows of u[k] ... u[k-r] carry u's share of z through the gain, Zu L^T,
    # and the rows of u[k-r-1] add the drive B^T; without known inputs G is
    # [F^T; L^T | Gd] exactly
    base, noise, _ = df.reference_example("nonsquare3")
    rng = np.random.default_rng(28)
    for m in (0, 2):
        model = df.validate_model(base.A, base.H, base.C, rng.standard_normal((base.n, m)),
                                  rng.standard_normal((base.l, m))) if m else base
        config, n, l = _tv_config(model, r), model.n, model.l
        traj = df.simulate(model, noise, df.example_signals(model), 200, seed=3)
        assert _cold_run(model, noise, config, traj.y, traj.u).frozen_at is not None
        ops = df.init_filter(model, noise, config).ops
        maps = [(ops.L0, ops.G0)] + [(entry.L, entry.G) for entry in ops.schedule]
        assert len(maps) > 2
        lagged = (r + 1) * m                            # the rows of u[k] ... u[k-r]
        for L, G in maps:
            F = df.error_dynamics_matrix(model, r, L)
            assert G.shape == (n + l + (r + 2) * m, n + l + model.p)
            assert np.array_equal(G[:n + l, :n], np.vstack([F.T, L.T]))
            ZL = ops.d.Zu @ L.T
            assert np.array_equal(G[n + l:n + l + lagged, :n], ZL[:lagged])
            assert np.array_equal(G[n + l + lagged:, :n], ZL[lagged:] + model.B.T)
            assert np.array_equal(G[:, n:], ops.d.Gd)
            if not m:
                assert np.array_equal(G, np.hstack([np.vstack([F.T, L.T]), ops.d.Gd]))


def _scaled_schedule(model, noise, r, c):
    """(frozen_at, frozen gain, largest cond V over the refreshes) of a time-varying
    run with Q, R and P0 scaled by c."""
    noise = df.NoiseSpec(Q=c * noise.Q, R=c * noise.R)
    config = _tv_config(model, r, P0=c * np.eye(model.n))
    run = df.run_filter(model, noise, config, np.zeros((200, model.l)))
    ops = df.init_filter(model, noise, config).ops
    Ps = [config.initial_covariance] + [entry.P for entry in ops.schedule[:-1]]
    kappa = max(np.linalg.cond(_innovation_terms(model, noise, ops.d, P)[0]) for P in Ps)
    return run.frozen_at, run.L, kappa


def _scale_cases():
    model, noise, _ = df.reference_example("nonsquare3")
    yield from ((model, noise, r) for r in (1, 2))
    rng, drawn_models = np.random.default_rng(23), 0
    while drawn_models < 12:
        drawn = make_feasible_system(rng)
        if drawn is None or drawn[0].l == drawn[0].p:
            continue
        model, noise, drawn_models = drawn[0], random_noise(rng, drawn[0]), drawn_models + 1
        yield from ((model, noise, r) for r in df.analyze_delays(model).feasible_delays)


def test_the_freeze_step_does_not_depend_on_the_noise_scale():
    # Scaling Q, R and P0 by c scales every covariance by c and leaves every
    # gain as it is, so the relative settling rule freezes at the same step.
    # Tolerance on the gains: each refresh solves with the innovation
    # covariance V, which moves the gain by at most about l kappa(V) eps ||L||
    # (l the order of V); near its fixed point the recursion contracts, so k
    # refreshes add at most k times that, and two runs differ by twice the sum.
    eps, cases = np.finfo(float).eps, 0
    for model, noise, r in _scale_cases():
        k, L, kappa = _scaled_schedule(model, noise, r, 1.0)
        assert k is not None
        for c in (1e-4, 1e4):
            k_c, L_c, kappa_c = _scaled_schedule(model, noise, r, c)
            assert k_c == k
            tol = 2 * (k - r) * model.l * max(kappa, kappa_c) * eps * np.linalg.norm(L)
            assert np.linalg.norm(L_c - L) <= tol
        cases += 1
    assert cases >= 20


def test_schedule_stops_at_the_cap():
    # nonminphase3's time-varying gain never freezes
    model, noise, _ = df.reference_example("nonminphase3")
    config = _tv_config(model)
    y = df.simulate(model, noise, df.example_signals(model), filtering.SCHEDULE_CAP + 60, seed=6).y
    cold = _cold_run(model, noise, config, y)
    plan = df.init_filter(model, noise, config).ops
    assert cold.frozen_at is None
    assert len(plan.schedule) == filtering.SCHEDULE_CAP
    assert _same_run(df.run_filter(model, noise, config, y), cold)
    filtering._plan.cache_clear()
    cold_loop = _step_loop(model, noise, config, y)
    warm_loop = _step_loop(model, noise, config, y)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(cold_loop[:2], warm_loop[:2]))
    assert len(df.init_filter(model, noise, config).ops.schedule) == filtering.SCHEDULE_CAP


def test_step_rejects_a_model_other_than_its_own():
    twin = df.validate_model(E1.A, E1.H, E1.C)
    state = df.init_filter(E1, None, _config())
    with pytest.raises(df.PreconditionViolated):
        df.step(state, twin, None, [0.0])
    model, noise, _ = df.reference_example("nonsquare3")
    state = df.init_filter(model, noise, _tv_config(model))
    with pytest.raises(df.PreconditionViolated):
        df.step(state, df.validate_model(model.A, model.H, model.C), noise, [0.0, 0.0])


def test_step_rejects_a_noise_other_than_its_own():
    model, noise, _ = df.reference_example("nonsquare3")
    state = df.init_filter(model, noise, _tv_config(model))
    for other in (None, df.NoiseSpec(Q=noise.Q, R=noise.R)):
        with pytest.raises(df.PreconditionViolated):
            df.step(state, model, other, [0.0, 0.0])
    state, _ = df.step(state, model, noise, [0.0, 0.0])
    # the fixed modes read no noise
    state = df.init_filter(E1, None, _config())
    state, _ = df.step(state, E1, df.NoiseSpec(Q=np.eye(2), R=np.eye(1)), [0.0])
    assert state.k == 1


# -- step: one product of the raw row, and its two tuples ---------------------

def _step_cases():
    """(model, noise, config) in every mode at r = 0, 1, 2 with m = 0, 1, 2 known
    inputs: drawn square and non-square models, and nonsquare3 at r = 1, 2."""
    rng = np.random.default_rng(30)
    base, base_noise, _ = df.reference_example("nonsquare3")

    def with_inputs(model, m):
        if m == 0:
            return model
        return df.validate_model(model.A, model.H, model.C, B=rng.standard_normal((model.n, m)),
                                 D=rng.standard_normal((model.l, m)))

    cases = []
    for r in (0, 1, 2):
        for m in (0, 1, 2):
            square = with_inputs(make_square_system(rng, n=4, p=1, delay=r)[0], m)
            wide = with_inputs(make_feasible_system(rng, n=5, p=1, l=2, delay=r)[0], m)
            noise = random_noise(rng, wide)
            L = df.minvar_gain(wide, noise, r).L
            cases += [(square, None, _config(r=r, n=square.n)),
                      (wide, None, _config(r=r, mode=df.FIXED_USER_SUPPLIED, n=wide.n, gain=L)),
                      (wide, noise, _tv_config(wide, r))]
            if r > 0:
                cases.append((with_inputs(base, m), base_noise, _tv_config(base, r)))
    return cases


def test_step_is_one_product_of_the_raw_row_bit_for_bit():
    # each emission is [xhat | y | u[k] ... u[k-r-1]] @ G in bytes, G that of
    # the gain the step used (its next state's); the next state and the output
    # are the NamedTuple types, and the three arrays are read-only views of one
    rng = np.random.default_rng(31)
    phases = set()
    for model, noise, config in _step_cases():
        n, l = model.n, model.l
        state = df.init_filter(model, noise, config)
        for k in range(90):
            y = rng.standard_normal(l) * 10.0 ** rng.uniform(-3, 3)
            u = rng.standard_normal(model.m) if model.m else None
            nxt, out = df.step(state, model, noise, y, u)
            assert type(nxt) is df.FilterState and nxt._fields == (
                "k", "xhat_delayed", "u_buffer", "gain", "ops", "noise")
            assert nxt.k == k + 1 and nxt.ops is state.ops and nxt.noise is state.noise
            if out is None:
                assert k <= config.r and nxt.xhat_delayed is state.xhat_delayed
                phases.add("warm-up")
            else:
                phases.add((config.gain_mode, state.gain_frozen))
                row = (state.xhat_delayed, y) + (() if u is None else (u,)) + state.u_buffer[::-1]
                want = np.concatenate(row) @ nxt.gain.G
                assert type(out) is df.StepOutput and out._fields == (
                    "k", "state_estimate", "input_estimate", "innovation")
                assert out.k == k
                for got, part in ((out.state_estimate, want[:n]), (nxt.xhat_delayed, want[:n]),
                                  (out.innovation, want[n:n + l]),
                                  (out.input_estimate, want[n + l:])):
                    assert got.shape == part.shape and got.tobytes() == part.tobytes()
                views = (out.state_estimate, out.input_estimate, out.innovation)
                base = views[0].base
                assert not base.flags.writeable and nxt.xhat_delayed.base is base
                assert all(a.base is base and not a.flags.writeable for a in views)
                moved = out._replace(k=-1)
                assert type(moved) is df.StepOutput and moved.k == -1
                assert moved.state_estimate is out.state_estimate
                with pytest.raises(AttributeError):
                    out.k = 0
            assert nxt.L is nxt.gain.L and nxt.P is nxt.gain.P
            assert nxt.gain_frozen is nxt.gain.frozen
            back = nxt._replace(k=k)
            assert type(back) is type(nxt) and all(a is b for a, b in zip(back[1:], nxt[1:]))
            state = nxt
    assert phases == {"warm-up", (df.FIXED_SQUARE, True), (df.FIXED_USER_SUPPLIED, True),
                      (df.TIME_VARYING_MINVAR, False), (df.TIME_VARYING_MINVAR, True)}
