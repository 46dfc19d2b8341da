"""Growth-envelope estimation and verification."""

from skewflow.growth import OMEGA_LADDER, estimate_growth, verify_growth
from skewflow.probes import ratio_data

from conftest import exponential_system, shift_cocycle


def test_pure_contraction_gets_bottom_rung():
    s = exponential_system(-1.0)
    env = estimate_growth(s, "uniform")
    assert env.omega == 0.25
    assert env.M == 1.0
    assert not env.dubious


def test_estimate_then_verify_roundtrip(systems):
    for name, s in systems.items():
        data = ratio_data(s, lag_max=10.0)
        env = estimate_growth(s, "uniform", data=data)
        if not env.dubious:
            assert verify_growth(s, env, data) is None, name


def test_envelope_m_monotone_in_omega():
    s = exponential_system(0.9)
    data = ratio_data(s, lag_max=10.0)
    entries = [(p.log_ratio, p.lag) for p in data.probes]
    ms = [max(lr - w * h for lr, h in entries) for w in OMEGA_LADDER]
    assert ms == sorted(ms, reverse=True)


def test_spike_growth_flagged_dubious(systems):
    env = estimate_growth(systems["spike"], "uniform")
    assert env.dubious
    assert env.M > 1e3


def test_shifted_omega_never_larger(systems):
    for name in ("scalar_decay", "bounded_ratio", "tsint"):
        s = systems[name]
        env = estimate_growth(s, "uniform")
        env_shifted = estimate_growth(shift_cocycle(s, 0.5), "uniform")
        assert env_shifted.omega <= env.omega, name


def test_growing_system_needs_matching_rung():
    s = exponential_system(1.8)
    env = estimate_growth(s, "uniform")
    assert env.omega == 2.0
    assert not env.dubious


def test_verify_reports_witness():
    from skewflow.growth import GrowthEnvelope
    s = exponential_system(1.0)
    bad = GrowthEnvelope("uniform", M=1.0, omega=0.5)
    data = ratio_data(s, lag_max=10.0)
    witness = verify_growth(s, bad, data)
    assert witness is not None
    assert witness.lag >= 0.1


def test_nonuniform_bins(systems):
    env = estimate_growth(systems["tsint"], "nonuniform")
    assert env.kind == "nonuniform"
    assert set(env.M_by_s) == set(env.omega_by_s)
    assert all(m >= 1.0 for m in env.M_by_s.values())


def test_omega_const_collapse(systems):
    env = estimate_growth(systems["tsint"], "nonuniform", omega_const=True)
    assert len(set(env.omega_by_s.values())) == 1
