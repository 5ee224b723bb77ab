"""Tests for the heralded-source photon-number statistics."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsync.photon_stats import (
    IDEAL_SINGLE_EXCITATION,
    FockDistribution,
    SourceParams,
    alpha_of,
    emission_distribution,
    herald_probability,
    heralded_excitation_distribution,
    retrieve,
    solve_chi_for_herald,
)

# ---------------------------------------------------------------------------
# independent oracles: explicit enumeration over detection/survival patterns


def bucket_click_enum(dist, eta, dark=0.0):
    """P(herald click) by enumerating detector outcomes per photon."""
    total = 0.0
    for n, pn in enumerate(dist.p):
        p_all_missed = (1.0 - eta) ** n
        total += pn * (1.0 - (1.0 - dark) * p_all_missed)
    return total


def retrieve_enum(dist, gamma):
    """Survivor-count distribution by enumerating per-excitation outcomes."""
    out = [0.0, 0.0, 0.0]
    for n, qn in enumerate(dist.p):
        if qn == 0.0:
            continue
        for pattern in itertools.product((0, 1), repeat=n):
            prob = qn
            for survived in pattern:
                prob *= gamma if survived else (1.0 - gamma)
            out[sum(pattern)] += prob
    return out


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
chis = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)


def dist_strategy():
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).filter(lambda w: sum(w) > 1e-9).map(
        lambda w: FockDistribution(tuple(x / math.fsum(w) for x in w))
    )


# ---------------------------------------------------------------------------
# emission_distribution


def test_emission_vacuum_only():
    assert emission_distribution(0.0).p == (1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "chi,expected",
    [
        (0.1, (0.9009009009009009, 0.09009009009009009, 0.009009009009009009)),
        (0.5, (0.5714285714285714, 0.2857142857142857, 0.14285714285714285)),
    ],
)
def test_emission_frozen(chi, expected):
    dist = emission_distribution(chi)
    for got, want in zip(dist.p, expected):
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("chi", [-0.1, 1.0, 1.5, float("nan")])
def test_emission_rejects_bad_chi(chi):
    with pytest.raises(ValueError):
        emission_distribution(chi)


@given(chis)
def test_emission_normalized(chi):
    dist = emission_distribution(chi)
    assert abs(math.fsum(dist.p) - 1.0) <= 1e-12
    assert all(p >= 0.0 for p in dist.p)


# ---------------------------------------------------------------------------
# herald_probability


def test_herald_blind_detector():
    assert herald_probability(emission_distribution(0.3), 0.0) == 0.0


def test_herald_frozen_values():
    dist = emission_distribution(0.1)
    assert herald_probability(dist, 1.0) == pytest.approx(0.0990990990990991, abs=1e-12)
    assert herald_probability(dist, 0.5) == pytest.approx(0.0518018018018018, abs=1e-12)


@given(chis, probabilities)
def test_herald_matches_enumeration(chi, eta):
    dist = emission_distribution(chi)
    assert herald_probability(dist, eta) == pytest.approx(
        bucket_click_enum(dist, eta), abs=1e-12
    )


@given(chis, st.floats(min_value=0.0, max_value=0.99))
def test_herald_monotone_in_eta(chi, eta):
    dist = emission_distribution(chi)
    assert herald_probability(dist, eta + 0.01) >= herald_probability(dist, eta)


@given(st.floats(min_value=0.0, max_value=0.89), probabilities)
def test_herald_monotone_in_chi(chi, eta):
    low = herald_probability(emission_distribution(chi), eta)
    high = herald_probability(emission_distribution(chi + 0.01), eta)
    assert high >= low - 1e-15


# ---------------------------------------------------------------------------
# heralded_excitation_distribution


def test_heralded_frozen():
    q = heralded_excitation_distribution(emission_distribution(0.1), 1.0)
    assert q[0] == 0.0
    assert q[1] == pytest.approx(0.9090909090909091, abs=1e-12)
    assert q[2] == pytest.approx(0.09090909090909091, abs=1e-12)


def test_heralded_small_eta_limit():
    # q2/q1 -> 2*chi as the detector efficiency vanishes
    chi = 1e-3
    q = heralded_excitation_distribution(emission_distribution(chi), 1e-6)
    assert q[2] / q[1] == pytest.approx(2.0 * chi, rel=1e-3)


def test_heralded_impossible_conditioning():
    with pytest.raises(ValueError):
        heralded_excitation_distribution(FockDistribution((1.0, 0.0, 0.0)), 0.5)


def test_heralded_dark_click_leaves_vacuum():
    q = heralded_excitation_distribution(emission_distribution(0.01), 0.5, dark_click=0.01)
    assert q[0] > 0.0
    assert abs(math.fsum(q.p) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# retrieve


@given(dist_strategy())
def test_retrieve_identity_and_total_loss(q):
    assert retrieve(q, 1.0).p == pytest.approx(q.p, abs=1e-15)
    lost = retrieve(q, 0.0)
    assert lost[0] == pytest.approx(1.0, abs=1e-12)
    assert lost[1] == 0.0 and lost[2] == 0.0


def test_retrieve_frozen_binomial():
    q = heralded_excitation_distribution(emission_distribution(0.1), 1.0)
    out = retrieve(q, 0.08)
    assert out[1] == pytest.approx(0.08610909090909091, abs=1e-12)
    assert out[2] == pytest.approx(0.0005818181818181818, abs=1e-12)


@given(dist_strategy(), probabilities)
def test_retrieve_matches_enumeration(q, gamma):
    got = retrieve(q, gamma)
    want = retrieve_enum(q, gamma)
    for g, w in zip(got.p, want):
        assert g == pytest.approx(w, abs=1e-12)


@given(dist_strategy(), probabilities, probabilities)
def test_retrieve_loss_composition(q, g1, g2):
    two_step = retrieve(retrieve(q, g1), g2)
    one_step = retrieve(q, g1 * g2)
    for a, b in zip(two_step.p, one_step.p):
        assert a == pytest.approx(b, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.01, max_value=1.0))
def test_retrieve_no_feed_down_without_doubles(q1, gamma):
    # q2 = 0 stays alpha = 0 under any retrieval loss
    q = FockDistribution((1.0 - q1, q1, 0.0))
    assert alpha_of(retrieve(q, gamma)) == 0.0


# ---------------------------------------------------------------------------
# alpha_of


def test_alpha_ideal_single_photon():
    assert alpha_of(FockDistribution((0.0, 1.0, 0.0))) == 0.0


@pytest.mark.parametrize("x", [0.05, 0.1, 0.3, 0.49])
def test_alpha_poissonian_benchmark(x):
    dist = FockDistribution((1.0 - x - x * x / 2.0, x, x * x / 2.0))
    assert alpha_of(dist) == pytest.approx(1.0, abs=1e-12)


def test_alpha_frozen_chain_value():
    q = heralded_excitation_distribution(emission_distribution(0.1), 1.0)
    out = retrieve(q, 0.08)
    # same order as typical measured single-photon qualities (0.12 - 0.17)
    assert alpha_of(out) == pytest.approx(0.15693438, abs=1e-6)


def test_alpha_rejects_zero_p1():
    with pytest.raises(ValueError):
        alpha_of(FockDistribution((1.0, 0.0, 0.0)))


@given(
    st.floats(min_value=1e-4, max_value=0.01),
    st.floats(min_value=1e-3, max_value=0.1),
)
@settings(max_examples=200)
def test_alpha_small_chi_expansion(chi, eta):
    # alpha of the retrieved field tracks 2*chi*(2 - eta) within 10%
    q = heralded_excitation_distribution(emission_distribution(chi), eta)
    alpha = alpha_of(retrieve(q, 1.0))
    target = 2.0 * chi * (2.0 - eta)
    assert 0.9 * target <= alpha <= 1.1 * target


# ---------------------------------------------------------------------------
# SourceParams


def test_source_requires_rate():
    with pytest.raises(ValueError):
        SourceParams(gamma0=0.08)


def test_source_chi_requires_eta():
    with pytest.raises(ValueError):
        SourceParams(gamma0=0.08, chi=0.1)


def test_source_direct_p_as_is_idealized():
    src = SourceParams(gamma0=0.08, p_as=2.0e-3)
    assert src.herald_prob == 2.0e-3
    assert src.heralded_shape().p == IDEAL_SINGLE_EXCITATION.p
    assert src.alpha_at(0.08) == 0.0


def test_source_microscopic_path():
    src = SourceParams(gamma0=0.08, chi=0.1, eta_as=0.5)
    expected = herald_probability(emission_distribution(0.1), 0.5)
    assert src.herald_prob == pytest.approx(expected, abs=1e-15)
    q = src.heralded_shape()
    assert q[2] > 0.0


def test_source_p_as_with_eta_solves_chi():
    src = SourceParams(gamma0=0.08, p_as=2.0e-3, eta_as=0.4)
    chi = src.effective_chi
    assert chi is not None
    # solved chi reproduces the requested herald probability
    assert herald_probability(emission_distribution(chi), 0.4) == pytest.approx(
        2.0e-3, rel=1e-12
    )
    assert src.heralded_shape()[2] > 0.0


@pytest.mark.parametrize(
    "given,herald_hex,chi,shape",
    [
        pytest.param({"p_as": 2e-3}, "0x1.0624dd2f1a9fcp-9", None, (0.0, 1.0, 0.0), id="p_as"),
        pytest.param(
            {"p_as": 2e-3, "dark_click_prob": 1e-4},
            "0x1.133998a802122p-9",
            None,
            (0.047528336032002905, 0.9524716639679971, 0.0),
            id="p_as-dark",
        ),
        pytest.param(
            {"p_as": 2e-3, "eta_as": 0.5},
            "0x1.0624dd2f1a9fcp-9",
            0.003992126642178436,
            (0.0, 0.9940474550069158, 0.0059525449930841684),
            id="p_as-eta_as",
        ),
        pytest.param(
            {"chi": 0.05, "eta_as": 0.4},
            "0x1.503de0b87747dp-6",
            0.05,
            (0.0, 0.9259259259259259, 0.07407407407407408),
            id="chi-eta_as",
        ),
        pytest.param(
            {"chi": 0.05, "eta_as": 0.4, "dark_click_prob": 3e-3},
            "0x1.80628e61e583cp-6",
            0.05,
            (0.12149339683388206, 0.8136007807975636, 0.06490582236855429),
            id="chi-eta_as-dark",
        ),
        pytest.param({"p_as": 0.0}, "0x0.0p+0", None, None, id="p_as-zero"),
        pytest.param({"p_as": 1.0}, "0x1.0000000000000p+0", None, (0.0, 1.0, 0.0), id="p_as-one"),
    ],
)
def test_source_resolution_pinned(given, herald_hex, chi, shape):
    # each way to give a source, resolved bit for bit as before the values
    # were set when the source is built
    source = SourceParams(gamma0=0.08, **given)
    assert source.herald_prob.hex() == herald_hex
    assert source.effective_chi == chi
    if shape is None:
        with pytest.raises(ValueError, match="herald probability is zero"):
            source.heralded_shape()
    else:
        assert source.heralded_shape().p == shape


def test_source_rejects_unreachable_p_as_when_built():
    with pytest.raises(ValueError, match=r"^p_as = 0\.9 is not reachable"):
        SourceParams(gamma0=0.08, p_as=0.9, eta_as=0.5)


def test_source_alpha_override_wins():
    src = SourceParams(gamma0=0.08, p_as=2.0e-3, alpha_override=0.17)
    assert src.alpha_at(0.08) == 0.17


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_source_rejects_non_finite_alpha_override(value):
    with pytest.raises(ValueError, match="alpha_override"):
        SourceParams(gamma0=0.1, p_as=0.01, alpha_override=value)


def test_source_dark_click_changes_rates():
    src = SourceParams(gamma0=0.08, p_as=2.0e-3, dark_click_prob=1e-3)
    assert src.herald_prob == pytest.approx(2.0e-3 + 1e-3 - 2.0e-6, abs=1e-15)
    q = src.heralded_shape()
    assert q[0] > 0.0  # dark heralds hold vacuum


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma0=1.5, p_as=0.1),
        dict(gamma0=0.5, p_as=-0.1),
        dict(gamma0=0.5, chi=1.0, eta_as=0.5),
        dict(gamma0=0.5, p_as=0.1, dark_click_prob=1.0),
        dict(gamma0=0.5, p_as=0.1, alpha_override=-0.2),
    ],
)
def test_source_validation(kwargs):
    with pytest.raises(ValueError):
        SourceParams(**kwargs)


# ---------------------------------------------------------------------------
# solve_chi_for_herald


@given(
    st.floats(min_value=1e-6, max_value=0.6),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=200)
def test_solve_chi_round_trip(p_as, eta):
    supremum = eta * (3.0 - eta) / 3.0
    if p_as >= 0.99 * supremum:
        p_as = 0.99 * supremum
    chi = solve_chi_for_herald(p_as, eta)
    assert 0.0 <= chi < 1.0
    assert herald_probability(emission_distribution(chi), eta) == pytest.approx(
        p_as, rel=1e-10
    )


def test_solve_chi_against_root_finder():
    from scipy.optimize import brentq

    p_as, eta = 0.05, 0.3
    chi = solve_chi_for_herald(p_as, eta)
    reference = brentq(
        lambda c: herald_probability(emission_distribution(c), eta) - p_as,
        0.0,
        0.999999,
        xtol=1e-14,
    )
    assert chi == pytest.approx(reference, abs=1e-10)


def test_solve_chi_unreachable():
    with pytest.raises(ValueError):
        solve_chi_for_herald(0.9, 0.5)
    with pytest.raises(ValueError):
        solve_chi_for_herald(0.1, 0.0)


def test_solve_chi_zero():
    assert solve_chi_for_herald(0.0, 0.5) == 0.0


@pytest.mark.parametrize("exponent", range(6, 18))
def test_solve_chi_tiny_p_as_round_trips(exponent):
    # the conjugate root does not cancel: the herald probability comes back
    # to within rounding all the way down to 1e-17
    p_as = 10.0**-exponent
    chi = solve_chi_for_herald(p_as, 0.5)
    assert abs(herald_probability(emission_distribution(chi), 0.5) - p_as) < 1e-15 * p_as


def test_source_tiny_p_as_with_eta_builds():
    source = SourceParams(gamma0=0.08, p_as=1e-17, eta_as=0.5)
    assert source.herald_prob == 1e-17
    assert source.heralded_shape()[0] == 0.0
