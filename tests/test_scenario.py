"""Scenario parsing, canonical echoes and digests, and initial-state modes."""
import dataclasses

import numpy as np
import pytest

import layersafe as ls

MINIMAL = """\
start = -1.0, 0.25
goal = 2.0, 0.0
obstacle.1.center = 0.5, 0.1
obstacle.1.radius = 0.4
gains.kp = 1.8
gains.kd = 8.0
gains.alpha = 0.5
"""

# regression stamps for the shipped scenario files; any edit to them is loud
TWO_DISKS_DIGEST = "59edab5dc3ecba04021f6e1c2e0e6adc4ae5563fc30c26ca1f189db074f1c73e"
OPEN_FIELD_DIGEST = "5128ab6a8b9aca9a2129bb932223a56342ce55434dd802da25eb7cbf71d5baf6"


def test_minimal_scenario_defaults():
    scn = ls.parse_scenario(MINIMAL)
    assert np.array_equal(scn.start, [-1.0, 0.25])
    assert np.array_equal(scn.goal, [2.0, 0.0])
    assert scn.field.count == 1
    rc = scn.rtf
    assert (rc.a1, rc.a2, rc.beta, rc.tau, rc.m_overshoot) == (1.0, 1.0, 2.45, 1.0, 3.24)
    assert scn.integrator.dt == 1e-3
    assert scn.integrator.horizon == 10.0
    assert scn.velocity_mode == "safe"
    assert scn.disturbance.kind == "none"
    assert scn.expectations == ()
    # default certify box hulls start, goal, and padded obstacles
    assert np.allclose(scn.certify_lower, [-1.0, -0.8], atol=1e-12)
    assert np.allclose(scn.certify_upper, [2.0, 1.0], atol=1e-12)
    assert scn.rcbf_hypothesis_ok
    with pytest.raises(AttributeError):
        scn.velocity_mode = "zero"
    with pytest.raises(ValueError):
        scn.start[0] = 9.9


def test_digest_ignores_formatting_but_not_values():
    scn = ls.parse_scenario(MINIMAL)
    noisy = "# a comment\n\n" + MINIMAL.replace(" = ", "   =  ") + "\n# trailing\n"
    assert ls.parse_scenario(noisy).digest() == scn.digest()
    changed = ls.parse_scenario(MINIMAL.replace("0.4", "0.41"))
    assert changed.digest() != scn.digest()
    # expectations are part of the stamped configuration
    with_exp = ls.parse_scenario(MINIMAL + "expect.min_h >= 0.0\n")
    assert with_exp.digest() != scn.digest()


def test_resolved_lines_round_trip():
    # each kind echoes the fields it uses; a zero amplitude keeps its kind
    for disturbance in (
        "kind = sine\namplitude = 0.05",
        "kind = none",
        "kind = constant\namplitude = 0.05",
        "kind = random\namplitude = 0.05\nseed = 7\nsegment = 0.25",
        "kind = sine\namplitude = 0.0",
    ):
        text = MINIMAL + "".join(f"disturbance.{ln}\n" for ln in disturbance.splitlines())
        scn = ls.parse_scenario(text)
        echoed = "\n".join(scn.resolved_lines()) + "\n"
        again = ls.parse_scenario(echoed)
        assert again.digest() == scn.digest()
        assert again.resolved_lines() == scn.resolved_lines()
        assert again.disturbance == scn.disturbance


def test_expectation_checks_itself(open_field):
    # built in code, an expectation refuses what parse_scenario refuses,
    # naming its key, so check() never meets an unknown comparison
    for args, match in (
        (("bogus", ">=", 1.0), r"^expect\.bogus: unknown expectation metric 'bogus'; known: min_h,"),
        (("min_h", "~", 1.0), r"^expect\.min_h: unknown comparison '~'; known: >=,"),
        (("min_h", ">=", float("inf")), r"^expect\.min_h: value must be finite, got inf$"),
        (("max_edot", "<", float("nan")), r"^expect\.max_edot: value must be finite, got nan$"),
    ):
        with pytest.raises(ls.ConfigurationError, match=match):
            ls.Expectation(*args)
    # so a scenario built in code either was refused at construction ...
    with pytest.raises(ls.ConfigurationError, match="expect.min_h"):
        dataclasses.replace(open_field, expectations=(
            ls.Expectation("min_h", ">=", float("inf")), ls.Expectation("bogus", "~", 1.0),
        ))
    # ... or its echo re-parses to the same scenario
    held = dataclasses.replace(open_field, expectations=(
        ls.Expectation("min_h", ">", np.float64(-1e300)), ls.Expectation("rtf_margin", "==", 0.0),
    ))
    again = ls.parse_scenario("\n".join(held.resolved_lines()) + "\n")
    assert again.digest() == held.digest()
    assert again.expectations == held.expectations


def test_numpy_scalars_echo_as_plain_numbers(open_field):
    # a value built in code as a numpy scalar echoes, digests and re-parses
    # as the plain number it holds, for every number-valued key
    random = ls.DisturbanceSpec(kind="random", amplitude=0.1, seed=7, segment=0.25)
    numeric = {ls.scenario._FLOAT: np.float64, ls.scenario._INT: np.int64}
    checked = []
    for key, (record, attr, vtype) in ls.scenario._KEYS.items():
        if vtype not in numeric:
            continue
        scn = open_field  # its sine disturbance echoes amplitude and frequency
        if record == "disturbance" and attr in ("seed", "segment"):
            scn = scn.with_disturbance(random)
        owner = getattr(scn, record)
        value = numeric[vtype](getattr(owner, attr))
        held = dataclasses.replace(scn, **{record: dataclasses.replace(owner, **{attr: value})})
        assert held.digest() == scn.digest(), key
        again = ls.parse_scenario("\n".join(held.resolved_lines()) + "\n")
        assert again.digest() == scn.digest(), key
        checked.append(key)
    assert len(checked) == 14
    # an expectation's threshold too
    held = dataclasses.replace(open_field, expectations=tuple(
        dataclasses.replace(e, value=np.float64(e.value)) for e in open_field.expectations
    ))
    assert held.digest() == open_field.digest()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ls.Rtf(beta="2"), "rtf.beta must be a number, got '2'"),
        (lambda: ls.Expectation("min_h", ">=", "1"), "expect.min_h: value must be a number, got '1'"),
        (
            lambda: ls.DisturbanceSpec(kind="sine", amplitude="0.1"),
            "disturbance.amplitude must be a number, got '0.1'",
        ),
        (lambda: ls.Gains(k_p="1", k_d=8.0, alpha=0.5), "gains.kp must be a number, got '1'"),
        (lambda: ls.IntegratorConfig(dt="0.001"), "sim.dt must be a number, got '0.001'"),
    ],
    ids=["rtf", "expectation", "disturbance", "gains", "integrator"],
)
def test_string_values_built_in_code_are_refused_by_key(build, message):
    # the file parser never passes a string, but a record built in code can:
    # it is refused by name, not by a TypeError from a numeric check
    with pytest.raises(ls.ConfigurationError) as err:
        build()
    assert str(err.value) == message


def test_certificate_constants_must_be_finite():
    # a non-finite constant would echo a line that parse_scenario refuses
    for attr, key in (
        ("a1", "rtf.a1"), ("a2", "rtf.a2"), ("beta", "rtf.beta"), ("tau", "rtf.tau"),
        ("m_overshoot", "rtf.M"),
    ):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ls.ConfigurationError, match=f"^{key} must be finite, got"):
                ls.Rtf(**{attr: bad})


def test_bundled_scenarios_are_pinned(two_disks, open_field):
    assert two_disks.digest() == TWO_DISKS_DIGEST
    assert open_field.digest() == OPEN_FIELD_DIGEST
    assert two_disks.field.count == 2
    assert open_field.disturbance.kind == "sine"
    # both ship with at least one declared expectation
    assert two_disks.expectations and open_field.expectations


def test_round_trip_preserves_bundled_digests(two_disks, open_field):
    for scn in (two_disks, open_field):
        echoed = "\n".join(scn.resolved_lines()) + "\n"
        assert ls.parse_scenario(echoed).digest() == scn.digest()


def test_parse_error_line_numbers():
    with pytest.raises(ls.ScenarioError, match="line 3.*unknown key") as ei:
        ls.parse_scenario("start = 0, 0\ngoal = 1, 0\nbogus.key = 3\n")
    assert ei.value.line == 3
    with pytest.raises(ls.ScenarioError, match="duplicate key") as ei:
        ls.parse_scenario("start = 0, 0\nstart = 1, 1\n")
    assert ei.value.line == 2
    with pytest.raises(ls.ScenarioError, match="expected a number") as ei:
        ls.parse_scenario("gains.kp = brisk\n")
    assert ei.value.line == 1
    with pytest.raises(ls.ScenarioError, match="expected two comma-separated"):
        ls.parse_scenario("start = 1.0\n")
    with pytest.raises(ls.ScenarioError, match="must be finite"):
        ls.parse_scenario("gains.kp = inf\n")
    with pytest.raises(ls.ScenarioError, match="empty value") as ei:
        ls.parse_scenario("goal =\n")
    assert ei.value.line == 1
    with pytest.raises(ls.ScenarioError, match="expected 'key = value'"):
        ls.parse_scenario("just some words\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        (MINIMAL + "sim.dt = -0.001\n", 8, "sim.dt must be positive, got -0.001"),
        (
            MINIMAL + "sim.horizon = 0.0001\n",
            8,
            "sim.horizon = 0.0001 must cover at least one sim.dt = 0.001 step",
        ),
        (MINIMAL.replace("kp = 1.8", "kp = -1"), 5, "gains.kp must be strictly positive, got -1.0"),
        (MINIMAL.replace("kd = 8.0", "kd = 0"), 6, "gains.kd must be strictly positive, got 0.0"),
        (MINIMAL + "rtf.tau = -1\n", 8, "rtf.tau must be positive, got -1.0"),
        (
            MINIMAL + "rtf.a1 = 2.0\nrtf.a2 = 2.0\n",
            8,
            "rtf.a1 is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= 1 <= a2, got a1=2.0, a2=2.0",
        ),
        (
            MINIMAL + "rtf.a1 = 0.5\nrtf.a2 = 0.25\n",
            9,
            "rtf.a2 is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= a2, got a1=0.5, a2=0.25",
        ),
        (
            MINIMAL + "rtf.a2 = 0.5\n",
            8,
            "rtf.a2 is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= a2, got a1=1.0, a2=0.5",
        ),
        (
            MINIMAL + "rtf.a1 = 2.0\n",
            8,
            "rtf.a1 is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= a2, got a1=2.0, a2=1.0",
        ),
        (
            MINIMAL + "rtf.a1 = 0.5\nrtf.a2 = 0.8\n",
            9,
            "rtf.a2 is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= 1 <= a2, got a1=0.5, a2=0.8",
        ),
    ],
    ids=[
        "dt", "horizon", "kp", "kd", "tau", "sandwich", "a1_above_a2", "a2_only", "a1_only",
        "a2_below_one",
    ],
)
def test_record_refusals_carry_the_line(text, line, message):
    # a record's refusal names the key as the file writes it, so the parser
    # finds the line that set it; an a1/a2 refusal names the key whose bound
    # fails (a file that wrote only rtf.a2 got no line when it named rtf.a1)
    with pytest.raises(ls.ScenarioError) as ei:
        ls.parse_scenario(text)
    assert str(ei.value) == f"line {line}: {message}"


def test_expectation_parse_errors():
    with pytest.raises(ls.ScenarioError, match="unknown expectation metric") as ei:
        ls.parse_scenario(MINIMAL + "expect.bogus >= 1\n")
    assert ei.value.line == 8
    with pytest.raises(ls.ScenarioError, match="unknown comparison") as ei:
        ls.parse_scenario(MINIMAL + "expect.min_h ~ 1\n")
    assert ei.value.line == 8
    with pytest.raises(ls.ScenarioError, match="expect.min_h: value must be finite") as ei:
        ls.parse_scenario(MINIMAL + "expect.min_h >= 0\nexpect.min_h >= inf\n")
    assert ei.value.line == 9
    with pytest.raises(ls.ScenarioError, match="expect.<metric> <op> <value>"):
        ls.parse_scenario(MINIMAL + "expect.min_h >=\n")
    scn = ls.parse_scenario(MINIMAL + "expect.min_h >= 0.25\nexpect.max_edot < 2\n")
    assert [e.metric for e in scn.expectations] == ["min_h", "max_edot"]
    e = scn.expectations[0]
    assert e.check(0.25) and e.check(1.0)
    assert not e.check(0.2)
    assert not e.check(float("nan"))


def test_missing_pieces():
    with pytest.raises(ls.ScenarioError, match="missing required key 'goal'") as ei:
        ls.parse_scenario("start = 0, 0\n")
    assert ei.value.line is None
    with pytest.raises(ls.ScenarioError, match="at least one obstacle"):
        ls.parse_scenario(
            "start = 0, 0\ngoal = 1, 0\ngains.kp = 1\ngains.kd = 4\ngains.alpha = 1\n"
        )
    with pytest.raises(ls.ScenarioError, match="obstacle.2.radius is missing"):
        ls.parse_scenario(MINIMAL + "obstacle.2.center = 3, 3\n")
    with pytest.raises(ls.ScenarioError, match="sim.initial_velocity must be one of"):
        ls.parse_scenario(MINIMAL + "sim.initial_velocity = sideways\n")
    with pytest.raises(ls.ScenarioError, match="disturbance.kind must be"):
        ls.parse_scenario(MINIMAL + "disturbance.kind = gusts\n")


def test_sandwich_constants_must_bracket_one():
    # V = ||e_dot|| satisfies a1 ||e_dot|| <= V <= a2 ||e_dot|| only for a1 <= 1 <= a2
    for a1, a2 in (("2.0", "2.0"), ("0.5", "0.8")):
        with pytest.raises(ls.ScenarioError, match=f"0 < a1 <= 1 <= a2, got a1={a1}, a2={a2}"):
            ls.parse_scenario(MINIMAL + f"rtf.a1 = {a1}\nrtf.a2 = {a2}\n")
    rc = ls.parse_scenario(MINIMAL + "rtf.a1 = 0.5\nrtf.a2 = 2.0\n").rtf
    assert (rc.a1, rc.a2) == (0.5, 2.0)


@pytest.mark.parametrize("alpha", [0.5, 2.45, 5.0])
def test_build_loop_shares_one_barrier(two_disks, alpha):
    # the recurrent barrier exists exactly when beta = 2.45 exceeds alpha,
    # and then reads the law's own barrier
    scn = two_disks.with_alpha(alpha)
    loop = ls.build_loop(scn)
    assert (loop.rcbf is None) == (not scn.rcbf_hypothesis_ok) == (alpha >= 2.45)
    if loop.rcbf is not None:
        assert loop.rcbf.barrier is loop.law.barrier
    assert loop.dist.kind == scn.disturbance.kind


def test_negative_disturbance_seed():
    # refused at load, naming the key, not when the run seeds its generator
    text = MINIMAL + "disturbance.kind = random\ndisturbance.amplitude = 0.1\n"
    with pytest.raises(ls.ScenarioError, match="disturbance.seed must be >= 0, got -1"):
        ls.parse_scenario(text + "disturbance.seed = -1\n")
    with pytest.raises(ls.ConfigurationError, match="disturbance.seed must be >= 0"):
        ls.DisturbanceSpec(kind="constant", seed=-1)


def test_disturbance_ranges_checked_at_load():
    # refused at load with the key and its line, not when the run builds the signal
    text = MINIMAL + "disturbance.kind = random\ndisturbance.amplitude = 0.1\n"
    for line, expected in (
        ("disturbance.segment = -1", "disturbance.segment must be finite and > 0, got -1.0"),
        ("disturbance.segment = 0", "disturbance.segment must be finite and > 0, got 0.0"),
        ("disturbance.frequency = 0", "disturbance.frequency must be finite and > 0, got 0.0"),
    ):
        with pytest.raises(ls.ScenarioError, match=f"line 10: {expected}") as ei:
            ls.parse_scenario(text + line + "\n")
        assert ei.value.line == 10
    constant = MINIMAL + "disturbance.kind = constant\ndisturbance.amplitude = -0.1\n"
    with pytest.raises(ls.ScenarioError, match="line 9: disturbance.amplitude must be finite"):
        ls.parse_scenario(constant)
    # a spec built in code must echo lines that parse again
    for bad in (
        dict(kind="random", amplitude=0.1, segment=float("inf")),
        dict(kind="sine", amplitude=0.1, frequency=float("nan")),
        dict(kind="constant", amplitude=float("inf")),
    ):
        name = next(k for k in ("segment", "frequency", "amplitude") if k in bad)
        with pytest.raises(ls.ConfigurationError, match=f"disturbance.{name} must be finite"):
            ls.DisturbanceSpec(**bad)


def test_obstacle_indices_sort_numerically():
    text = MINIMAL + (
        "obstacle.10.center = 5, 5\nobstacle.10.radius = 0.3\n"
        "obstacle.2.center = -2, -2\nobstacle.2.radius = 0.2\n"
    )
    scn = ls.parse_scenario(text)
    assert np.array_equal(scn.field.centers, [[0.5, 0.1], [-2, -2], [5, 5]])
    assert np.array_equal(scn.field.radii, [0.4, 0.2, 0.3])
    with pytest.raises(ls.ScenarioError, match="duplicate key 'obstacle.1.radius'"):
        ls.parse_scenario(MINIMAL + "obstacle.1.radius = 0.5\n")


def test_with_variants_do_not_mutate(two_disks):
    base_digest = two_disks.digest()
    hot = two_disks.with_alpha(5.0)
    assert hot.gains.alpha == 5.0
    assert hot.gains.k_p == two_disks.gains.k_p
    assert not hot.rcbf_hypothesis_ok
    assert two_disks.gains.alpha == 0.5 and two_disks.rcbf_hypothesis_ok
    short = two_disks.with_horizon(2.0)
    assert short.integrator.horizon == 2.0
    assert short.integrator.dt == two_disks.integrator.dt
    quiet = two_disks.with_disturbance(ls.DisturbanceSpec())
    assert quiet.disturbance.kind == "none"
    rest = dataclasses.replace(two_disks, velocity_mode="zero")
    assert rest.velocity_mode == "zero"
    assert two_disks.digest() == base_digest
    with pytest.raises(ls.ConfigurationError):
        two_disks.with_alpha(-1.0)
    with pytest.raises(ls.ConfigurationError):
        dataclasses.replace(two_disks, velocity_mode="sideways")


def test_initial_state_modes(two_disks, td):
    law = td["law"]
    scn = two_disks
    x0 = ls.initial_state(scn, law)
    assert x0.shape == (4,)
    assert np.array_equal(x0[:2], scn.start)
    # the scenario declares a safe start: zero initial tracking error
    im = law.evaluate(x0[None, :])
    assert np.array_equal(im.z_dot_s[0], x0[2:])

    rest = ls.initial_states(scn, law, scn.start[None], mode="zero")[0]
    assert np.array_equal(rest[2:], [0.0, 0.0])

    pull = ls.initial_states(scn, law, scn.start[None], mode="desired")[0]
    want = scn.gains.k_p * (scn.goal - scn.start)
    assert np.allclose(pull[2:], want, atol=1e-12)

    # near an obstacle the filter bends the start velocity away from it
    z_near = scn.field.centers[0] + [0.0, scn.field.radii[0] + 0.05]
    safe = ls.initial_states(scn, law, z_near[None], mode="safe")[0]
    des = ls.initial_states(scn, law, z_near[None], mode="desired")[0]
    assert not np.allclose(safe[2:], des[2:], atol=1e-6)

    batch = ls.initial_states(scn, law, np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert batch.shape == (2, 4)
    with pytest.raises(ls.ConfigurationError):
        ls.initial_states(scn, law, np.zeros((3, 3)))
    with pytest.raises(ls.ConfigurationError):
        ls.initial_states(scn, law, scn.start[None], mode="sideways")


def test_bundled_path_and_load_errors(tmp_path):
    assert ls.bundled_scenario_path("two_disks.scn").is_file()
    with pytest.raises(ls.ScenarioError, match="no bundled scenario"):
        ls.bundled_scenario_path("nosuch.scn")
    with pytest.raises(ls.ScenarioError, match="no such scenario file"):
        ls.load_scenario(tmp_path / "missing.scn")
    p = tmp_path / "ok.scn"
    p.write_text(MINIMAL)
    ls.load_scenario(p)
