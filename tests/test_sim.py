"""Signal generation, simulation, and experiment scoring."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import delayfilter as df
from delayfilter import csvio, filtering, sim
from delayfilter.linalg import psd_factor
from conftest import count_linalg_calls

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])
E1U = df.validate_model(E1.A, E1.H, E1.C, B=[[0.3], [0.1]], D=[[0.2]])


# -- signal grammar ----------------------------------------------------------

def test_parse_signal_spec_forms():
    spec = df.parse_signal_spec("sine:2:40")
    assert (spec.kind, spec.amplitude, spec.period, spec.phase) == ("sine", 2.0, 40.0, 0.0)
    spec = df.parse_signal_spec("sawtooth:1:50:0.25")
    assert spec.phase == 0.25
    spec = df.parse_signal_spec("constant:3")
    assert spec.kind == "constant" and spec.amplitude == 3.0


def test_parse_signal_spec_rejects_garbage():
    for bad in ("ramp:1:10", "sine", "sine:a:10", "sine:1:0", "sine:1:10:2:9"):
        with pytest.raises(ValueError):
            df.parse_signal_spec(bad)


def test_sine_values():
    spec = df.parse_signal_spec("sine:2:40")
    v = df.signal_values(spec, 80)
    assert v.shape == (81,)
    assert v[0] == pytest.approx(0.0)
    assert v[10] == pytest.approx(2.0)   # quarter period at amplitude 2
    assert v[40] == pytest.approx(0.0, abs=1e-12)


def test_sawtooth_values():
    v = df.signal_values(df.parse_signal_spec("sawtooth:1:50"), 100)
    assert v[0] == pytest.approx(-1.0)
    assert v[25] == pytest.approx(0.0)
    assert v[49] == pytest.approx(1.0 - 2.0 / 50)
    assert v[50] == pytest.approx(-1.0)  # wraps each period


def test_step_and_constant_values():
    v = df.signal_values(df.parse_signal_spec("step:3:10"), 20)
    assert np.all(v[:10] == 0.0) and np.all(v[10:] == 3.0)
    v = df.signal_values(df.parse_signal_spec("constant:0.5"), 5)
    assert np.all(v == 0.5)


def test_prbs_values():
    rng = np.random.default_rng(0)
    v = df.signal_values(df.parse_signal_spec("prbs:2:5"), 49, rng=rng)
    assert set(np.unique(v)) <= {-2.0, 2.0}
    # constant within each hold block
    for start in range(0, 45, 5):
        assert len(set(v[start:start + 5])) == 1


def test_gaussian_needs_rng_and_scales():
    spec = df.parse_signal_spec("gaussian:0.1")
    v = df.signal_values(spec, 2000, rng=np.random.default_rng(1))
    assert abs(float(np.std(v)) - 0.1) < 0.01


@pytest.mark.parametrize("text", ["prbs:1:5", "gaussian:0.1"])
def test_random_signals_need_an_rng(text):
    with pytest.raises(df.PreconditionViolated, match="needs an rng"):
        df.signal_values(df.parse_signal_spec(text), 10)


# -- simulate ----------------------------------------------------------------

def test_simulate_shapes_and_noiseless():
    traj = df.simulate(E1, None, [df.parse_signal_spec("sine:1:40")], 50, seed=0)
    assert traj.T == 50
    assert traj.x.shape == (51, 2)
    assert traj.y.shape == (51, 1)
    assert traj.e.shape == (51, 1)
    assert np.all(traj.w == 0.0) and np.all(traj.v == 0.0)
    # dynamics honored: x_{k+1} = A x_k + H e_k
    for k in range(50):
        assert np.allclose(traj.x[k + 1], E1.A @ traj.x[k] + E1.H @ traj.e[k])
        assert np.allclose(traj.y[k], E1.C @ traj.x[k])


def test_simulate_deterministic_per_seed():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    sigs = [df.parse_signal_spec("prbs:1:7")]
    a = df.simulate(E1, noise, sigs, 40, seed=5)
    b = df.simulate(E1, noise, sigs, 40, seed=5)
    c = df.simulate(E1, noise, sigs, 40, seed=6)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.e, b.e)
    assert not np.array_equal(a.y, c.y)


def test_simulate_draw_order():
    # the seed spawns one substream each for w, v, the e channels and the
    # u channels, in that order; every recorded seed depends on it
    model = E1U
    noise = df.NoiseSpec(Q=np.array([[2e-2, 5e-3], [5e-3, 1e-2]]), R=1e-2 * np.eye(1))
    e_spec, u_spec = df.parse_signal_spec("gaussian:0.5"), df.parse_signal_spec("prbs:2:3")
    traj = df.simulate(model, noise, [e_spec], 30, seed=5, u_signals=[u_spec])
    w_ss, v_ss, e_ss, u_ss = np.random.SeedSequence(5).spawn(4)
    rng = np.random.default_rng
    w = rng(w_ss).standard_normal((31, 2)) @ psd_factor(noise.Q).T
    v = rng(v_ss).standard_normal((31, 1)) @ psd_factor(noise.R).T
    assert np.array_equal(traj.w, w) and np.array_equal(traj.v, v)
    assert np.array_equal(traj.e[:, 0], df.signal_values(e_spec, 30, rng=rng(e_ss)))
    assert np.array_equal(traj.u[:, 0], df.signal_values(u_spec, 30, rng=rng(u_ss)))
    x = np.zeros(2)
    for k in range(31):
        assert np.allclose(traj.x[k], x, rtol=0, atol=1e-12)
        assert np.allclose(traj.y[k], model.C @ x + model.D @ traj.u[k] + v[k],
                           rtol=0, atol=1e-12)
        x = model.A @ x + model.B @ traj.u[k] + model.H @ traj.e[k] + w[k]

    # a batch cuts one stream per child of the seed into trials in order: the
    # noise is one (trials, T+1, .) draw and a random channel draws trial after
    # trial; a deterministic channel takes no child, and no seed is advanced
    sine = df.parse_signal_spec("sine:1:7")
    ss = np.random.SeedSequence(9)
    for root, entropy in ((5, 5), ([3, 4], [3, 4]), (ss, 9)):
        w_ss, v_ss, _, u_ss = np.random.SeedSequence(entropy).spawn(4)
        for factors in (sim._noise_factors(noise), None):
            w, v, e, u = sim._draw(model, factors, (sine,), (u_spec,), 30, root, 3)
            assert w.shape == (3, 31, 2) and v.shape == (3, 31, 1)
            assert e.shape == u.shape == (3, 31, 1)
            if factors is None:
                assert not w.any() and not v.any()
            else:
                assert np.array_equal(w, rng(w_ss).standard_normal((3, 31, 2)) @ factors[0].T)
                assert np.array_equal(v, rng(v_ss).standard_normal((3, 31, 1)) @ factors[1].T)
            u_rng = rng(u_ss)
            for t in range(3):
                assert np.array_equal(e[t, :, 0], df.signal_values(sine, 30))
                assert np.array_equal(u[t, :, 0], df.signal_values(u_spec, 30, rng=u_rng))
    assert ss.n_children_spawned == 0


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noiseless"])
@pytest.mark.parametrize("text", ["prbs:1:5", "prbs:1:4", "prbs:2:3", "gaussian:0.5", "sine:1:7"])
def test_a_batch_begins_with_simulate_and_grows_by_appending_trials(text, noisy):
    # at T = 30 the three prbs specs draw 8, 9 and 12 signs a trial: odd and even counts
    noise = df.NoiseSpec(Q=np.array([[2e-2, 5e-3], [5e-3, 1e-2]]), R=1e-2 * np.eye(1))
    spec = df.parse_signal_spec(text)
    factors = sim._noise_factors(noise if noisy else None)
    ss = np.random.SeedSequence(11)
    ss.spawn(2)
    for seed in (5, [3, 4], ss):
        traj = df.simulate(E1U, noise if noisy else None, [spec], 30, seed=seed, u_signals=[spec])
        batches = {N: sim._draw(E1U, factors, (spec,), (spec,), 30, seed, N) for N in (1, 4, 9)}
        for N, draws in batches.items():
            for name, a, b in zip("wveu", draws, batches[9]):
                assert np.array_equal(a[0], getattr(traj, name))    # trial 0 is simulate's
                assert np.array_equal(a, b[:N])                     # a larger batch appends
        # a batch steps its states by one matrix product over all trials, simulate
        # by a vector product; BLAS may round the two differently in the last bits
        x, y = sim._propagate(E1U, np.zeros(2), *batches[9])
        for name, a in (("x", x), ("y", y)):
            want = getattr(traj, name)
            assert np.max(np.abs(a[0] - want)) <= 1e-13 * np.max(np.abs(want))
    assert ss.n_children_spawned == 2


def _propagate_in_steps(model, x0, w, v, e, u):
    """(x, y) with the drive summed into one record before the recursion steps."""
    drive = np.ascontiguousarray(np.moveaxis(u @ model.B.T + e @ model.H.T + w, -2, 0))
    xt = np.empty_like(drive)
    xt[0] = x0
    for prev, nxt, d in zip(xt[:-1], xt[1:], drive):
        np.dot(prev, model.A.T, out=nxt)
        nxt += d
    x = np.moveaxis(xt, 0, -2)
    return x, x @ model.C.T + u @ model.D.T + v


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_propagate_forms_the_drive_in_the_state_array_bit_for_bit(m):
    # the drive formed time-major in the states' array, and A x added to it,
    # give the bytes (tobytes: -0.0 counts) of the drive summed trial-major:
    # for one trajectory, as simulate runs it, and for batches of 2 or more
    # trials, as monte_carlo_bias runs them. Where a time-major product has
    # one row (T = 1, or a batch of one trial) numpy calls gemv, not gemm, and
    # the two agree to rounding only
    rng = np.random.default_rng(40 + m)
    for i in range(24):
        p = 1 + i % 3
        l, n = p + i % 2, p + 2 + i % 4
        scale = 10.0 ** rng.uniform(-6, 6, size=4)
        model = df.validate_model(rng.standard_normal((n, n)) / n, rng.standard_normal((n, p)),
                                  rng.standard_normal((l, n)) * scale[0],
                                  *((rng.standard_normal((n, m)) * scale[1],
                                     rng.standard_normal((l, m))) if m else ()))
        steps = (2, 7, 40)[i % 3]
        for lead, T, exact in (((), steps, True), ((2 + i,), steps, True), ((), 1, False),
                               ((1,), steps, False)):
            w, v, e, u = (rng.standard_normal(lead + (T + 1, c)) * s
                          for c, s in ((n, scale[2]), (l, 1.0), (p, scale[3]), (m, 1.0)))
            x0 = rng.standard_normal(lead + (n,)) if lead else np.zeros(n)
            got = sim._propagate(model, x0, w, v, e, u)
            for a, b in zip(got, _propagate_in_steps(model, x0, w, v, e, u)):
                assert a.shape == b.shape
                if exact:
                    assert a.tobytes() == b.tobytes()
                else:
                    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_propagate_holds_the_states_and_one_product():
    # beyond its inputs, _propagate holds the states and, at the most, one
    # more record-sized product: H e before the drive is summed, or the two
    # of y's products
    model, noise, _ = df.reference_example("compartmental-25")
    trials, T = 200, 200
    signals = df.example_signals(model)
    T, signals, u_signals = sim._check_signals(model, signals, None, T)
    draws = sim._draw(model, sim._noise_factors(noise), signals, u_signals, T, 0, trials)
    sim._propagate(model, np.zeros(model.n), *draws)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sim._propagate(model, np.zeros(model.n), *draws)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    column = 8 * trials * (T + 1)
    slack = 256 * 1024          # ufunc buffers and Python objects; a column is 316 KB
    assert peak <= column * (model.n + max(model.n, 2 * model.l)) + slack, peak


def test_simulate_leaves_a_seed_sequence_as_it_was():
    # a SeedSequence seed hands out the children it would spawn next, without spawning them
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    sigs = [df.parse_signal_spec("prbs:1:7")]
    ss = np.random.SeedSequence(3)
    ss.spawn(2)
    a = df.simulate(E1, noise, sigs, 40, seed=ss)
    b = df.simulate(E1, noise, sigs, 40, seed=ss)
    assert ss.n_children_spawned == 2
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    w_ss = np.random.SeedSequence(3, spawn_key=(2,))
    w = np.random.default_rng(w_ss).standard_normal((41, 2)) @ psd_factor(noise.Q).T
    assert np.array_equal(a.w, w)


def test_simulate_without_a_noise_spec_draws_no_noise():
    # noise=None is the noiseless run: w = v = 0, and the signals draw as with a spec
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    sigs = [df.parse_signal_spec("prbs:1:7")]
    quiet, noisy = (df.simulate(E1, spec, sigs, 40, seed=5) for spec in (None, noise))
    assert quiet.w.shape == (41, 2) and quiet.v.shape == (41, 1)
    assert not quiet.w.any() and not quiet.v.any()
    assert noisy.w.any() and noisy.v.any()
    assert np.array_equal(quiet.e, noisy.e)
    assert np.array_equal(quiet.y, quiet.x @ E1.C.T)
    drive = quiet.x[:-1] @ E1.A.T + quiet.e[:-1] @ E1.H.T
    assert np.max(np.abs(quiet.x[1:] - drive)) <= 1e-14


def test_simulate_channel_count_checked():
    sigs = [df.parse_signal_spec("sine:1:40")] * 2
    with pytest.raises(df.DimensionMismatch):
        df.simulate(E1, None, sigs, 10)
    for x0 in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(df.DimensionMismatch, match="x0"):
            df.simulate(E1, None, sigs[:1], 10, x0=x0)
    traj = df.simulate(E1, None, sigs[:1], 10, x0=[[1.0], [2.0]])
    assert np.array_equal(traj.x[0], [1.0, 2.0])
    for T in (10.5, "10", None, True):
        with pytest.raises(df.DimensionMismatch, match="T must be an integer"):
            df.simulate(E1, None, sigs[:1], T)
    for T in (10.0, np.int64(10)):
        assert df.simulate(E1, None, sigs[:1], T).y.shape == (11, 1)


def test_simulate_known_input_channel_count_checked():
    sine = df.parse_signal_spec("sine:1:40")
    for u_signals in ([], [sine, sine]):
        with pytest.raises(df.DimensionMismatch,
                           match=f"need 1 known-input signals, got {len(u_signals)}"):
            df.simulate(E1U, None, [sine], 10, u_signals=u_signals)
    with pytest.raises(df.DimensionMismatch, match="need 0 known-input signals, got 1"):
        df.simulate(E1, None, [sine], 10, u_signals=[sine])


def test_simulate_rejects_a_nonfinite_x0():
    sigs = [df.parse_signal_spec("sine:1:40")]
    for x0 in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(df.DimensionMismatch, match="x0 must be finite"):
            df.simulate(E1, None, sigs, 10, x0=x0)


# -- compartmental builder ---------------------------------------------------

def test_compartmental_structure():
    model = df.compartmental_model(6, 0.1, 0.1, [1, 6], [2, 5])
    assert model.A.shape == (6, 6)
    assert model.A[0, 0] == pytest.approx(0.8)
    assert model.A[0, 1] == pytest.approx(0.1)
    assert model.A[2, 4] == 0.0
    assert np.allclose(model.H, np.eye(6)[:, [0, 5]])
    assert np.allclose(model.C, np.eye(6)[[1, 4], :])


def test_compartmental_validation():
    with pytest.raises(df.BadCoefficient):
        df.compartmental_model(6, -0.1, 0.1, [1], [2])
    with pytest.raises(df.BadCoefficient):
        df.compartmental_model(6, 0.0, 0.1, [1], [2])   # open interval
    with pytest.raises(df.BadCoefficient):
        df.compartmental_model(6, 0.1, 1.0, [1], [2])
    with pytest.raises(df.BadIndices):
        df.compartmental_model(6, 0.1, 0.1, [0], [2])   # 1-based
    with pytest.raises(df.BadIndices):
        df.compartmental_model(6, 0.1, 0.1, [7], [2])
    with pytest.raises(df.BadIndices):
        df.compartmental_model(6, 0.1, 0.1, [1, 1], [2])
    with pytest.raises(df.BadIndices):
        df.compartmental_model(6, 0.1, 0.1, [1, 2], [2, 5])  # overlap


def test_compartmental_rejects_one_compartment_and_an_empty_list():
    with pytest.raises(df.BadIndices, match="need at least two compartments, got n=1"):
        df.compartmental_model(1, 0.1, 0.1, [1], [1])
    for inputs, outputs, name in (([], [2], "input"), ([1], [], "output")):
        with pytest.raises(df.BadIndices, match=f"^{name} compartment list is empty$"):
            df.compartmental_model(6, 0.1, 0.1, inputs, outputs)



def test_compartmental_model_reads_its_numbers_by_the_integer_rule():
    # model._integer: an integral float or numpy integer is the integer, anything else raises
    want = df.compartmental_model(6, 0.1, 0.1, [1, 6], [2, 5])
    got = df.compartmental_model(6.0, 0.1, 0.1, [1.0, np.int64(6)], (2.0, 5))
    assert all(np.array_equal(getattr(got, key), getattr(want, key)) for key in "AHCBD")
    for n, inputs, outputs in ((6.5, [1], [2]), (6, [1.5], [2]), (6, [1], [True]), (6, [1], ["2"])):
        with pytest.raises(df.DelayFilterError, match="must be an integer"):
            df.compartmental_model(n, 0.1, 0.1, inputs, outputs)

# -- experiment scoring ------------------------------------------------------

def test_run_experiment_alignment():
    traj = df.simulate(E1, None, [df.parse_signal_spec("sawtooth:1:20")], 60, seed=4)
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    stats, run = df.run_experiment(E1, None, config, traj)
    assert stats.ks[0] == 2  # first emission for r=1
    assert stats.ks[-1] == 60
    assert stats.state_rms <= 1e-10
    assert stats.input_rms <= 1e-10
    assert stats.state_max_abs <= 1e-9
    assert run.state_estimates.shape == (61, 2)
    assert np.isnan(run.state_estimates[:2]).all()
    assert np.isfinite(run.state_estimates[2:]).all()
    assert np.max(np.abs(stats.state_bias)) <= 1e-10


def test_run_experiment_scores_a_divergent_run_without_a_warning():
    # nonsquare12's unique gain at r = 1 is unstable: its estimation errors
    # reach about 1e163, whose squares overflow
    model, noise, _ = df.reference_example("nonsquare12")
    traj = df.simulate(model, None, df.example_signals(model), 200, seed=7)
    config = df.FilterConfig(r=1, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=traj.x[0], initial_covariance=np.eye(model.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, _ = df.run_experiment(model, noise, config, traj)
    for score in (stats.state_rms, stats.input_rms):
        assert not np.isfinite(score) or score > 1e100


_C25 = df.reference_example("compartmental-25")[0]
_C25_TRAJECTORY = df.simulate(_C25, None, df.example_signals(_C25), 20, seed=1)
# field changes a caller can make with dataclasses.replace
_TRAJECTORY_CHANGES = {
    "complex-x": dict(x=_C25_TRAJECTORY.x + 0.5j),
    "one-column-e": dict(e=_C25_TRAJECTORY.e[:, :1]),
    "short-x": dict(x=_C25_TRAJECTORY.x[:5]),
    "T-past-the-record": dict(T=50),
    "one-d-y": dict(y=_C25_TRAJECTORY.y[:, 0]),
}
# the message each reader raises; write_trajectory knows no model and no T, only the row count
_TRAJECTORY_MESSAGES = {
    "run_experiment": {
        "complex-x": "x: not a real numeric array",
        "one-column-e": r"e must be \(21, 2\), got \(21, 1\)",
        "short-x": r"x must be \(21, 6\), got \(5, 6\)",
        "T-past-the-record": r"y must be \(51, 2\), got \(21, 2\)",
        "one-d-y": r"y must be \(21, 2\), got \(21,\)",
    },
    "write_trajectory": {
        "complex-x": "x: not a real numeric array",
        "short-x": r"x must be 2-d, with as many rows as y, got \(5, 6\)",
        "one-d-y": r"y must be 2-d, with as many rows as y, got \(21,\)",
    },
}
_TRAJECTORY_READERS = {
    "run_experiment": lambda traj, tmp_path: df.run_experiment(
        _C25, None, df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(6),
                                    initial_covariance=np.eye(6)), traj),
    "write_trajectory": lambda traj, tmp_path: csvio.write_trajectory(tmp_path / "t.csv", traj),
}


@pytest.mark.parametrize("reader, case", [(reader, case) for reader, cases in
                                          _TRAJECTORY_MESSAGES.items() for case in cases])
def test_a_callers_trajectory_is_read_by_the_one_reader(tmp_path, reader, case):
    bad = dataclasses.replace(_C25_TRAJECTORY, **_TRAJECTORY_CHANGES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(df.DimensionMismatch, match=_TRAJECTORY_MESSAGES[reader][case]):
            _TRAJECTORY_READERS[reader](bad, tmp_path)


_NOISE_E1 = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
_CONFIG_E1 = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
_SEED_READERS = {
    "simulate-noiseless": lambda seed: df.simulate(
        E1, None, [df.parse_signal_spec("sine:1:20")], 10, seed=seed),
    "simulate-noise": lambda seed: df.simulate(
        E1, _NOISE_E1, [df.parse_signal_spec("sine:1:20")], 10, seed=seed),
    "monte_carlo_bias": lambda seed: df.monte_carlo_bias(
        E1, _NOISE_E1, _CONFIG_E1, [df.parse_signal_spec("sine:1:20")], trials=3, T=10, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, "a", None],
                         ids=["negative", "fractional", "string", "none"])
@pytest.mark.parametrize("entry", list(_SEED_READERS))
def test_a_seed_is_read_once_before_any_draw(monkeypatch, entry, seed):
    def drawn(*args):
        raise AssertionError("a batch was drawn before the seed was read")

    monkeypatch.setattr(sim, "_draw", drawn)
    with pytest.raises(df.DimensionMismatch, match=f"seed must be .*, got {seed!r}"):
        _SEED_READERS[entry](seed)


_SINE = df.parse_signal_spec("sine:1:40")
_SIGNAL_READERS = {
    "simulate-e": (lambda: df.simulate(E1, None, ["sine:1:4"], 10), "e1"),
    "simulate-u": (lambda: df.simulate(E1U, None, [_SINE], 10, u_signals=["sine:1:4"]), "u1"),
    "monte_carlo_bias-e": (lambda: df.monte_carlo_bias(E1, _NOISE_E1, _CONFIG_E1, ["sine:1:4"],
                                                       trials=3, T=10), "e1"),
}


@pytest.mark.parametrize("entry", list(_SIGNAL_READERS))
def test_a_signal_that_is_not_a_signal_spec_is_rejected(entry):
    call, channel = _SIGNAL_READERS[entry]
    with pytest.raises(df.DimensionMismatch,
                       match=f"{channel} must be a SignalSpec, got 'sine:1:4'$"):
        call()


def test_monte_carlo_bias_shapes():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    report = df.monte_carlo_bias(E1, noise, config,
                                 [df.parse_signal_spec("sine:1:20")],
                                 trials=40, T=60, seed=1, ks=(30, 60))
    assert report.trials == 40
    assert report.ks == (30, 60)
    assert report.mean.shape == (2, 2)
    assert report.stderr.shape == (2, 2)
    assert not report.flagged.any()


# -- batched Monte Carlo against the per-trial loop --------------------------


def _streams(model, noise, signals, trials, T, seed):
    """The seed rule by hand: (w, v, e, u) of trials 0..trials-1, with zero known input.

    Children 0 and 1 of the seed are one noise stream each, cut into trials in
    order; child 2+c draws random signal channel c for one trial after another.
    """
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(2 + model.p)]
    w = rngs[0].standard_normal((trials, T + 1, model.n)) @ psd_factor(noise.Q).T
    v = rngs[1].standard_normal((trials, T + 1, model.l)) @ psd_factor(noise.R).T
    e = np.empty((trials, T + 1, model.p))
    for t in range(trials):
        for c, spec in enumerate(signals):
            e[t, :, c] = df.signal_values(spec, T, rng=rngs[2 + c])
    return w, v, e, np.zeros((trials, T + 1, model.m))


def _per_trial_bias(model, noise, config, signals, trials, T, seed, ks):
    """Reference: trial t is slice t of the seed's streams, propagated and then filtered by step()."""
    r = config.r
    errs = np.zeros((trials, len(ks), model.n))
    for t, (w, v, e, u) in enumerate(zip(*_streams(model, noise, signals, trials, T, seed))):
        x = np.zeros((T + 1, model.n))
        for k in range(T):
            x[k + 1] = model.A @ x[k] + model.B @ u[k] + model.H @ e[k] + w[k]
        y = x @ model.C.T + u @ model.D.T + v
        state = df.init_filter(model, noise, config)
        for k in range(T + 1):
            state, out = df.step(state, model, noise, y[k], u[k] if model.m > 0 else None)
            if k in ks:
                errs[t, ks.index(k)] = x[k - r] - out.state_estimate
    mean = errs.mean(axis=0)
    stderr = errs.std(axis=0, ddof=1) / np.sqrt(trials)
    return mean, stderr, np.abs(mean) > 4.0 * stderr


def _bias_case(name):
    if name == "square":
        model, _, _ = df.reference_example("compartmental-25")
        noise = df.default_noise(model)
        return model, noise, df.FIXED_SQUARE, 1, None, df.example_signals(model)
    if name == "known-input":
        noise = df.NoiseSpec(Q=1e-2 * np.eye(2), R=1e-2 * np.eye(1))
        return E1U, noise, df.FIXED_SQUARE, 1, None, [df.parse_signal_spec("gaussian:0.5")]
    if name == "divergent-square":
        model, noise, _ = df.reference_example("nonminphase3")
        return model, noise, df.FIXED_SQUARE, 1, None, df.example_signals(model)
    model, noise, _ = df.reference_example("nonsquare3")
    signals = [df.parse_signal_spec("prbs:1:5")]
    if name == "minvar":
        return model, noise, df.TIME_VARYING_MINVAR, 2, None, signals
    gain = df.minvar_gain(model, noise, 2).L
    return model, noise, df.FIXED_USER_SUPPLIED, 2, gain, signals


@pytest.mark.parametrize("case", ["square", "known-input", "minvar", "user-gain"])
def test_monte_carlo_bias_matches_per_trial_loop(case):
    model, noise, mode, r, gain, signals = _bias_case(case)
    config = df.FilterConfig(r=r, gain_mode=mode, initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n), gain=gain)
    ks = (10, 25, 40)
    report = df.monte_carlo_bias(model, noise, config, signals, trials=30, T=40,
                                 seed=[7, 1], ks=ks)
    mean, stderr, flagged = _per_trial_bias(model, noise, config, signals, 30, 40,
                                            [7, 1], ks)
    assert np.max(np.abs(report.mean - mean)) <= 1e-12
    assert np.max(np.abs(report.stderr - stderr) / stderr) <= 1e-9
    assert np.array_equal(report.flagged, flagged)


@pytest.mark.parametrize("case", ["square", "known-input", "minvar", "user-gain",
                                  "divergent-square"])
def test_monte_carlo_bias_reads_run_filters_state_estimates_exactly(case):
    # monte_carlo_bias runs the filter's recursion without its outputs; its
    # statistics are bitwise those of run_filter's state estimates on one batch
    model, noise, mode, r, gain, signals = _bias_case(case)
    config = df.FilterConfig(r=r, gain_mode=mode, initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n), gain=gain)
    if case == "divergent-square":      # an unstable error map: the tail is stepped, not scanned
        assert df.gain_spectral_radius(model, r, df.square_gain(model, r).L) > 1.0
    trials, T, ks = 12, 40, (10, 25, 40)
    T, signals, u_signals = sim._check_signals(model, signals, None, T)
    root = np.random.SeedSequence([7, 1])
    w, v, e, u = sim._draw(model, sim._noise_factors(noise), signals, u_signals, T,
                           root, trials)
    x, y = sim._propagate(model, np.zeros(model.n), w, v, e, u)
    idx = np.asarray(ks)
    errs = x[:, idx - r] - df.run_filter(model, noise, config, y, u).state_estimates[:, idx]
    mean = errs.mean(axis=0)
    stderr = errs.std(axis=0, ddof=1) / np.sqrt(trials)
    report = df.monte_carlo_bias(model, noise, config, signals, trials=trials, T=T,
                                 seed=[7, 1], ks=ks)
    assert np.array_equal(report.mean, mean)
    assert np.array_equal(report.stderr, stderr)
    assert np.array_equal(report.flagged, np.abs(mean) > 4.0 * stderr)
    # the draws are the seed's streams cut into trials, and trial 0 is simulate's
    traj = df.simulate(model, noise, signals, T, seed=root)
    for name, a, b in zip("wveu", (w, v, e, u), _streams(model, noise, signals, trials, T, [7, 1])):
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], getattr(traj, name))


def test_monte_carlo_bias_frees_its_draws_before_it_filters(monkeypatch):
    # w, v, e and the true states are read once, by _propagate; while the filter's
    # recursion runs, the batch holds only y, u and the true states at ks
    model, _, _ = df.reference_example("compartmental-25")
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    signals, trials, T, ks = df.example_signals(model), 300, 200, (50, 100, 200)
    df.monte_carlo_bias(model, noise, config, signals, trials=2, T=T, ks=ks)    # fills the caches
    held, recurse = [], sim._recurse

    def traced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return recurse(*args)

    monkeypatch.setattr(sim, "_recurse", traced)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        df.monte_carlo_bias(model, noise, config, signals, trials=trials, T=T, ks=ks)
    finally:
        tracemalloc.stop()
    rows = trials * (T + 1)
    kept = 8 * (rows * (model.l + model.m) + trials * len(ks) * model.n)    # y, u, truth at ks
    slack = 64 * 1024           # the filter's state and Python objects
    # holding any one of w (n columns), v (l), e (p) or x (n) would break the bound
    assert 8 * rows * min(model.n, model.l, model.p) > 10 * slack
    assert held[0] - before <= kept + slack, (held[0] - before, kept)


def test_a_warm_batch_rebuilds_nothing(monkeypatch):
    # criterion 8's batch: a second one reads the square gain's plan, its scan verdict and
    # the noise factors from their memos; of numpy.linalg it calls only the covariance
    # rule's eigvalsh on P0, and its report is the bits of a batch run with both memos clear
    model, _, _ = df.reference_example("compartmental-25")
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))

    def batch():
        return df.monte_carlo_bias(model, noise, config, df.example_signals(model), trials=1000,
                                   T=200, seed=0, ks=(50, 100, 200))

    batch()
    calls = count_linalg_calls(monkeypatch)
    warm = batch()
    assert calls == {"eigvalsh": 1}
    filtering._plan.cache_clear()
    sim._factors.cache_clear()
    calls.clear()
    cold = batch()
    # the solve of the square gain, the eigvals of its verdict and the eigh of Q and R
    assert calls == {"eigvalsh": 1, "solve": 1, "eigvals": 1, "eigh": 2}
    for name in ("mean", "stderr", "flagged"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()


def test_the_noise_factors_follow_a_specs_values_not_the_spec():
    # a NoiseSpec keeps a float64 array as it is, so a change to it in place reaches the
    # spec; the factor memo is keyed on the values, and the next draw uses the new ones
    Q, R = 1e-2 * np.eye(2), 1e-2 * np.eye(1)
    noise = df.NoiseSpec(Q=Q, R=R)
    signals = [df.parse_signal_spec("sine:1:8")]
    first = df.simulate(E1, noise, signals, 30, seed=4)
    Q *= 4.0
    assert noise.Q is Q
    second = df.simulate(E1, noise, signals, 30, seed=4)
    fresh = df.simulate(E1, df.NoiseSpec(Q=Q.copy(), R=R.copy()), signals, 30, seed=4)
    for name in "xywv":
        assert getattr(second, name).tobytes() == getattr(fresh, name).tobytes()
    assert not np.array_equal(second.w, first.w) and np.array_equal(second.v, first.v)
    Gw, Gv = sim._noise_factors(noise)
    assert not Gw.flags.writeable and not Gv.flags.writeable


def test_monte_carlo_bias_takes_a_seed_sequence():
    # the batch draws from the children of the SeedSequence, which is left as it was
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    signals = [df.parse_signal_spec("prbs:1:5")]
    ss = np.random.SeedSequence(3)
    runs = [df.monte_carlo_bias(E1, noise, config, signals, trials=10, T=30, seed=seed)
            for seed in (3, ss, ss)]
    assert ss.n_children_spawned == 0
    for report in runs[1:]:
        assert np.array_equal(report.mean, runs[0].mean)
        assert np.array_equal(report.stderr, runs[0].stderr)


def test_monte_carlo_bias_sample_times_checked():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    signals = [df.parse_signal_spec("sine:1:20")]
    for ks in ((1, 10), (10, 61)):
        with pytest.raises(df.DimensionMismatch):
            df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=60, ks=ks)
    for trials in (0, 1):     # a standard error needs two trials
        with pytest.raises(df.DimensionMismatch, match="trials"):
            df.monte_carlo_bias(E1, noise, config, signals, trials=trials, T=60)
    for trials in (2.5, "3", True):
        with pytest.raises(df.DimensionMismatch, match="trials must be an integer"):
            df.monte_carlo_bias(E1, noise, config, signals, trials=trials, T=60)
    for T in (60.5, "60", True):
        with pytest.raises(df.DimensionMismatch, match="T must be an integer"):
            df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=T)
    for T in (0, -3):         # the default sample times are built from T
        with pytest.raises(df.DimensionMismatch, match="T must be >= 1"):
            df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=T)


def test_monte_carlo_bias_needs_a_sample_time():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    signals = [df.parse_signal_spec("sine:1:20")]
    for ks in ((), []):
        with pytest.raises(df.DimensionMismatch, match="at least one bias sample time"):
            df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=60, ks=ks)


@pytest.mark.parametrize("r, error", [(None, df.DelayOutOfRange), (1.5, df.DelayOutOfRange),
                                      (0, df.InfeasibleDelay)], ids=["none", "fractional", "infeasible"])
def test_monte_carlo_bias_decides_its_delay_before_it_draws(monkeypatch, r, error):
    # E1 has CH = 0: r = 0 has no unbiased gain. ks = (1, 10) would fail r + 1 = 2 at r = 1
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=r, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    signals = [df.parse_signal_spec("sine:1:20")]

    def drawn(*args):
        raise AssertionError("monte_carlo_bias drew a batch before deciding its delay")

    monkeypatch.setattr(sim, "_draw", drawn)
    with pytest.raises(error):
        df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=60, ks=(1, 10))


def test_monte_carlo_bias_fractional_sample_time_rejected():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    signals = [df.parse_signal_spec("sine:1:20")]
    with pytest.raises(df.DimensionMismatch, match="10.7"):
        df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=60, ks=(10.7, 20))
    # integral values of any numeric type pass, as k = 2.0 does in a CSV
    report = df.monte_carlo_bias(E1, noise, config, signals, trials=3, T=60,
                                 ks=(10.0, np.int64(20)))
    assert report.ks == (10, 20) and all(type(k) is int for k in report.ks)
