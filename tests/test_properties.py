"""Property-based checks: grammar round-trips, determinism, exact recovery.

Each property is kept cheap (small systems, short horizons) so hypothesis
can afford a reasonable number of examples without slowing the suite.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import delayfilter as df
from conftest import make_feasible_system, random_noise, random_stable_a

# two-state chain: the square gain at delay 1 is deadbeat, so on clean
# data every estimate is exact once the nilpotent transient dies
CHAIN = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
amplitudes = st.floats(min_value=-100, max_value=100,
                       allow_nan=False, allow_infinity=False)
periods = st.floats(min_value=0.5, max_value=50,
                    allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-2, max_value=2,
                   allow_nan=False, allow_infinity=False)
kinds = st.sampled_from(df.KINDS)


@st.composite
def signal_specs(draw):
    kind = draw(kinds)
    return df.SignalSpec(kind=kind, amplitude=draw(amplitudes),
                         period=draw(periods), phase=draw(phases))


@given(spec=signal_specs(), seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_deadbeat_filter_recovers_any_input_shape(spec, seed):
    # the recovery guarantee is shape-agnostic: whatever waveform drives
    # the unknown input, clean measurements pin it down exactly
    traj = df.simulate(CHAIN, None, [spec], T=30, seed=seed)
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.array([7.0, -4.0]),
                             initial_covariance=np.eye(2))
    state = df.init_filter(CHAIN, None, config)
    scale = 1.0 + abs(spec.amplitude)
    checked = 0
    for k in range(31):
        state, out = df.step(state, CHAIN, None, traj.y[k])
        if out is None or out.k < 6:
            continue
        assert np.max(np.abs(out.state_estimate - traj.x[out.k - 1])) <= 1e-9 * scale
        assert abs(out.input_estimate[0] - traj.e[out.k - 2, 0]) <= 1e-9 * scale
        checked += 1
    assert checked > 0


def _stable_gains(rng, model):
    """{r: gain} over every feasible delay, or None if some gain is unusable.

    Square systems take the unique gain; non-square ones the min-variance
    gain for a random noise pair. Recovery is exact in exact arithmetic
    at any feasible delay, but unstable error dynamics or a huge gain
    amplify rounding, so draws whose gain leaves a spectral radius above
    0.9 or has a norm above 100 are rejected.
    """
    noise = random_noise(rng, model, scale=1.0)
    gains = {}
    for r in df.analyze_delays(model).feasible_delays:
        try:
            if model.l == model.p:
                L = df.square_gain(model, r).L
            else:
                L = df.minvar_gain(model, noise, r).L
        except df.DelayFilterError:
            return None
        if df.gain_spectral_radius(model, r, L) > 0.9 or np.linalg.norm(L) > 100:
            return None
        gains[r] = L
    return gains or None


def _system_with_gains(seed):
    """A random system and a stable unbiased gain at each feasible delay.

    Even seeds draw C freely, so every delay above the minimal one sees
    nonzero lower Markov blocks; odd seeds zero the blocks below a drawn
    delay, as the conftest generator does.
    """
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, 7))
        if seed % 2:
            drawn = make_feasible_system(rng, n=n, radius=0.9)
            if drawn is None:
                continue
            model = drawn[0]
        else:
            p = int(rng.integers(1, n))
            l = int(rng.integers(p, n + 1))
            try:
                model = df.validate_model(random_stable_a(rng, n, 0.9),
                                          rng.standard_normal((n, p)),
                                          rng.standard_normal((l, n)))
            except df.DelayFilterError:
                continue
        gains = _stable_gains(rng, model)
        if gains is not None:
            return model, gains, rng


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_noiseless_recovery_at_every_feasible_delay(seed):
    # the unbiasedness constraint L S_r = [H 0 ... 0] makes the state exact
    # on clean data at every feasible delay, whether or not the Markov
    # blocks below r vanish; the input decoding (CA^rH)^+ innovation is
    # exact only where they do. One more case adds known inputs: B, D and u
    # drawn from the seed with m in {0, 1, 2}, which no gain depends on
    model, gains, rng = _system_with_gains(seed)
    T = 40
    e = rng.standard_normal((T + 1, model.p))
    drawn = np.random.default_rng([seed, 1])
    m = int(drawn.integers(0, 3))
    known = df.validate_model(model.A, model.H, model.C, drawn.standard_normal((model.n, m)),
                              drawn.standard_normal((model.l, m)))
    for model, u in ((model, np.zeros((T + 1, 0))), (known, drawn.standard_normal((T + 1, m)))):
        x = np.zeros((T + 1, model.n))
        for k in range(T):
            x[k + 1] = model.A @ x[k] + model.B @ u[k] + model.H @ e[k]
        y = x @ model.C.T + u @ model.D.T
        for r, L in gains.items():
            config = df.FilterConfig(r=r, gain_mode=df.FIXED_USER_SUPPLIED,
                                     initial_estimate=np.zeros(model.n),
                                     initial_covariance=np.eye(model.n), gain=L)
            ks = np.arange(r + 1, T + 1)
            lower_zero = all(np.max(np.abs(df.markov_parameter(model, j))) < 1e-12
                             for j in range(r))
            run = df.run_filter(model, None, config, y, u)
            state = df.init_filter(model, None, config)
            stepped = []
            for k in range(T + 1):
                state, out = df.step(state, model, None, y[k], u[k])
                if out is not None:
                    stepped.append((out.state_estimate, out.input_estimate))
            for xhat, ehat in ((run.state_estimates[ks], run.input_estimates[ks]),
                               tuple(np.array(a) for a in zip(*stepped))):
                assert np.max(np.abs(xhat - x[ks - r])) <= 1e-9, (model.m, r, gains.keys())
                if lower_zero:
                    assert np.max(np.abs(ehat - e[ks - r - 1])) <= 1e-9, (model.m, r, gains.keys())


@given(spec=signal_specs(), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_simulate_is_deterministic_per_seed(spec, seed):
    a = df.simulate(CHAIN, None, [spec], T=20, seed=seed)
    b = df.simulate(CHAIN, None, [spec], T=20, seed=seed)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.e, b.e)


@given(kind=kinds, amplitude=amplitudes, period=periods, phase=phases)
@settings(max_examples=50, deadline=None)
def test_signal_grammar_round_trip(kind, amplitude, period, phase):
    text = f"{kind}:{amplitude!r}:{period!r}:{phase!r}"
    spec = df.parse_signal_spec(text)
    assert spec.kind == kind
    assert spec.amplitude == amplitude
    assert spec.period == period
    assert spec.phase == phase


@given(amplitude=amplitudes, period=periods, phase=phases,
       seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_signal_values_respect_amplitude(amplitude, period, phase, seed):
    rng = np.random.default_rng(seed)
    bound = abs(amplitude) + 1e-12 * abs(amplitude)
    for kind in (df.SINE, df.SAWTOOTH, df.STEP, df.CONSTANT, df.PRBS):
        spec = df.SignalSpec(kind=kind, amplitude=amplitude,
                             period=period, phase=phase)
        values = df.signal_values(spec, 64, rng)
        assert values.shape == (65,)
        assert np.all(np.abs(values) <= bound)
    # prbs only ever emits the two levels
    levels = df.signal_values(df.SignalSpec(df.PRBS, amplitude, period), 64, rng)
    assert set(np.abs(levels)) <= {abs(amplitude)}


@given(data=st.lists(st.tuples(finite, finite, finite, finite),
                     min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_trajectory_csv_round_trip_is_exact(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    arr = np.array(data, dtype=float)
    T = len(data) - 1
    traj = df.Trajectory(T=T, x=arr[:, 1:3], y=arr[:, :1], e=arr[:, 3:],
                         u=np.zeros((T + 1, 0)), w=np.zeros((T + 1, 2)),
                         v=np.zeros((T + 1, 1)), seed=0)
    df.write_trajectory(path, traj)
    ks, y2, _ = df.read_measurements(path, 1, 0)
    assert ks == list(range(len(data)))
    assert np.array_equal(np.asarray(y2), arr[:, :1])


@given(text=st.text(max_size=25))
@settings(max_examples=100, deadline=None)
def test_signal_parser_never_crashes_unexpectedly(text):
    # arbitrary junk must either parse or raise the documented ValueError
    try:
        spec = df.parse_signal_spec(text)
    except ValueError:
        return
    assert spec.kind in df.KINDS
