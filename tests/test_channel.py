"""Channel-law tests: CDF closed forms, sampler consistency, coupling, the unheard atom."""

from __future__ import annotations

import numpy as np
import pytest

from chronomesh import channel
from chronomesh.channel import (
    _BISECT_BLOCK,
    ChannelModel,
    DelayDistribution,
    PathlossDistribution,
    sample_fix,
)
from chronomesh.errors import ConfigurationError, DomainError
from chronomesh.geometry import NodePosition, Region, disk_intersection_area
from channel_oracle import delay_cdf, invert_delay, outage_probability, pathloss_cdf

CENTER = NodePosition(0.5, 0.5)
EDGE = NodePosition(0.1, 0.3)        # its coverage disk crosses the left edge


def center_model(max_range=0.25, wave_speed=1.0):
    return ChannelModel(Region(1.0, 1.0), max_range, wave_speed)


def one_shot_inversion(dist: PathlossDistribution, target: np.ndarray) -> np.ndarray:
    # Reference oracle: bisect the coverage area of every target at once.
    lo = np.zeros_like(target)
    hi = np.full_like(target, dist.effective_range)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = disk_intersection_area(dist.model.region, dist.receiver, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo < 1e-12):
            break
    return 0.5 * (lo + hi)


def empirical_cdf(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(samples), grid, side="right") / samples.size


class TestPathlossCdf:
    def test_closed_form_center_receiver(self):
        # Coverage disks around the centre stay inside the unit square, so
        # F(k) = 1 - pi (R (1-k))^2 for the linear gain map.
        law = PathlossDistribution(center_model(), CENTER)
        assert pathloss_cdf(law, 0.0) == pytest.approx(1 - np.pi / 16, abs=1e-10)
        assert pathloss_cdf(law, 0.5) == pytest.approx(1 - np.pi / 64, abs=1e-10)
        assert pathloss_cdf(law, 1.0) == 1.0
        assert pathloss_cdf(law, -0.3) == 0.0
        assert pathloss_cdf(law, 1.7) == 1.0
        grid = np.array([-0.3, 0.0, 0.5, 1.0, 1.7])
        assert np.array_equal(pathloss_cdf(law, grid), [pathloss_cdf(law, k) for k in grid])
        # A cutoff past the farthest corner: R (1 - k) saturates at the reach
        # until k = 1 - reach / R; once R (1 - k) < 0.5 the disk is inside
        # the square again and F = 1 - pi (R (1 - k))^2.
        wide = PathlossDistribution(ChannelModel(Region(1.0, 1.0), 3.0), CENTER)
        assert pathloss_cdf(wide, 0.0) == 0.0
        assert pathloss_cdf(wide, 0.5) == 0.0
        assert pathloss_cdf(wide, 0.9) == pytest.approx(1 - np.pi * 0.09, abs=1e-10)
        assert pathloss_cdf(wide, 1.0) == 1.0

    def test_unit_gain_is_point_mass_at_one(self):
        law = PathlossDistribution(ChannelModel(Region(1.0, 1.0), np.inf), CENTER)
        assert pathloss_cdf(law, 0.999999) == pytest.approx(0.0, abs=1e-9)
        assert pathloss_cdf(law, 1.0) == 1.0
        # R = inf meets 1 - k = 0 at k = 1 without an inf * 0 warning
        assert np.array_equal(pathloss_cdf(law, np.array([-0.3, 0.0, 0.5, 1.0, 1.7])),
                              [0.0, 0.0, 0.0, 1.0, 1.0])
        gains = law.sample(np.random.default_rng(3), size=1000)
        assert np.all(gains == 1.0)

    def test_cdf_monotone_and_bounded(self):
        model = center_model()
        dist = PathlossDistribution(model, NodePosition(0.1, 0.3))
        grid = np.linspace(-0.2, 1.2, 701)
        values = pathloss_cdf(dist, grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_outage_atom_frequency(self):
        model = center_model()
        dist = PathlossDistribution(model, CENTER)
        gains = dist.sample(np.random.default_rng(11), size=1_000_000)
        assert abs(np.mean(gains == 0.0) - outage_probability(dist)) < 0.005

    def test_sampler_matches_cdf_ks(self):
        model = center_model()
        for rx, seed in ((CENTER, 5), (NodePosition(0.1, 0.3), 6)):
            dist = PathlossDistribution(model, rx)
            gains = dist.sample(np.random.default_rng(seed), size=1_000_000)
            grid = np.linspace(0.0, 1.0, 2001)
            ks = np.max(np.abs(empirical_cdf(gains, grid) - pathloss_cdf(dist, grid)))
            assert ks < 0.005, (rx, ks)

    @pytest.mark.parametrize("size", [_BISECT_BLOCK - 1, _BISECT_BLOCK, _BISECT_BLOCK + 1,
                                      3 * _BISECT_BLOCK + 5])
    def test_block_inversion_matches_one_shot_bisection(self, size):
        dist = PathlossDistribution(center_model(), EDGE)
        assert not dist._interior
        target = np.random.default_rng(size).uniform(0.0, dist.area_at_range, size)
        assert np.array_equal(dist._invert_coverage(target), one_shot_inversion(dist, target))

    @pytest.mark.parametrize("region, receiver, max_range, rounds", [
        (Region(), NodePosition(0.890, 0.540), 0.25, 38),
        (Region(1e6, 1e6), NodePosition(8.9e5, 5.4e5), 2.5e5, 58)],
        ids=["unit_square", "wide_region"])
    def test_bisection_runs_the_rounds_its_brackets_need(self, monkeypatch, region, receiver,
                                                          max_range, rounds):
        # Every bracket halves from [0, R] alike, so one block takes
        # floor(log2(R / 1e-12)) + 1 area evaluations. On the wide region the
        # tolerance is finer than the spacing of representable radii, and the
        # reference bisection runs to its cap of 120 rounds for the same gains.
        dist = PathlossDistribution(ChannelModel(region, max_range), receiver)
        assert not dist._interior
        calls = []

        def counted(*args):
            calls.append(args)
            return disk_intersection_area(*args)

        monkeypatch.setattr(channel, "disk_intersection_area", counted)
        gains = dist.sample(np.random.default_rng(0), 20_000)
        monkeypatch.undo()
        target = (1.0 - np.random.default_rng(0).uniform(size=20_000)) * dist.area_total
        heard = target < dist.area_at_range
        assert 0 < heard.sum() <= _BISECT_BLOCK
        assert len(calls) == rounds
        expected = np.zeros(20_000)
        expected[heard] = dist.model.gain(one_shot_inversion(dist, target[heard]))
        assert np.array_equal(gains, expected)

    def test_gains_are_the_gain_map_of_the_inverted_draws(self):
        dist = PathlossDistribution(center_model(), EDGE)
        gains = dist.sample(np.random.default_rng(4), size=5000)
        target = (1.0 - np.random.default_rng(4).uniform(size=5000)) * dist.area_total
        heard = target < dist.area_at_range
        expected = np.zeros(5000)
        expected[heard] = dist.model.gain(one_shot_inversion(dist, target[heard]))
        assert 0 < heard.sum() < 5000
        assert np.array_equal(gains, expected)

    def test_sample_mean_against_analytic_integral(self):
        # E K = (1/A_T) int_0^R (1 - r/R) 2 pi r dr for an interior receiver.
        law = PathlossDistribution(center_model(), CENTER)
        gains = law.sample(np.random.default_rng(17), size=1_000_000)
        exact = 2 * np.pi * (0.25**2 / 2 - 0.25**2 / 3)
        assert gains.mean() == pytest.approx(exact, abs=7e-4)


class TestDelayCdf:
    def test_closed_form_body_and_atom(self):
        law = DelayDistribution(center_model(max_range=0.25, wave_speed=1.0),
                                CENTER)
        contact = np.pi / 16
        assert delay_cdf(law, -1e-9) == 0.0
        assert delay_cdf(law, 0.1) == pytest.approx(np.pi * 0.01, abs=1e-10)
        assert delay_cdf(law, np.nextafter(0.25, 0.0)) == pytest.approx(contact, abs=1e-10)
        # every unheard transmitter arrives at delay(R)
        assert delay_cdf(law, 0.25) == 1.0
        assert delay_cdf(law, 0.4) == 1.0

    def test_wave_speed_rescales_body(self):
        law = DelayDistribution(center_model(max_range=0.25, wave_speed=2.0), CENTER)
        assert delay_cdf(law, 0.05) == pytest.approx(np.pi * 0.01, abs=1e-10)
        assert delay_cdf(law, 0.125) == 1.0

    def test_cdf_continuous_below_the_atom_and_jumps_by_the_outage_mass(self):
        model = center_model()
        dist = DelayDistribution(model, NodePosition(0.2, 0.85))
        atom = model.delay(dist.pathloss.effective_range)
        grid = np.linspace(-0.05, atom, 4001)[:-1]
        values = delay_cdf(dist, grid)
        assert np.all(np.diff(values) >= -1e-12)
        # No jumps below the atom: increments bounded by the density's sup,
        # 2 pi delay(R) at unit speed and area, times the step.
        step = grid[1] - grid[0]
        assert np.max(np.diff(values)) < 2 * np.pi * atom * step * 3
        below = delay_cdf(dist, np.nextafter(atom, 0.0))
        assert below == pytest.approx(dist.pathloss.area_at_range / dist.pathloss.area_total,
                                      abs=1e-10)
        jump = delay_cdf(dist, atom) - below
        assert jump == pytest.approx(outage_probability(dist.pathloss), abs=1e-10)
        assert jump > 0.5

    def test_sampler_matches_cdf_ks(self):
        model = center_model()
        dist = DelayDistribution(model, CENTER)
        delays, _ = dist.sample(np.random.default_rng(23), size=1_000_000)
        grid = np.linspace(0.0, model.delay(dist.pathloss.effective_range), 2001)
        ks = np.max(np.abs(empirical_cdf(delays, grid) - delay_cdf(dist, grid)))
        assert ks < 0.005, ks


class TestCoupling:
    def test_pair_gain_equals_composed_map_exactly(self):
        model = center_model()
        delays, gains = DelayDistribution(model, CENTER).sample(
            np.random.default_rng(31), size=10_000)
        recomputed = model.gain(invert_delay(model, delays))
        assert np.array_equal(gains, recomputed)

    @pytest.mark.parametrize("receiver", ["edge", "center"])
    def test_one_distance_gives_delay_and_gain(self, receiver):
        # At a wave speed whose inverse is inexact, each pair maps the same
        # inverted distance through both laws, and every unheard transmitter
        # is the atom at the range, silent. The edge receiver's bisected radii
        # have short mantissas that survive delay and its inverse; the centre
        # receiver's closed-form radii do not, so a gain taken back through
        # the delay shows there.
        model = center_model(wave_speed=3.0)
        dist = DelayDistribution(model, EDGE if receiver == "edge" else CENTER)
        delays, gains = dist.sample(np.random.default_rng(37), size=20_000)
        target = np.random.default_rng(37).uniform(size=20_000) * dist.pathloss.area_total
        heard = target < dist.pathloss.area_at_range
        assert 0 < heard.sum() < 20_000
        radii = (one_shot_inversion(dist.pathloss, target[heard]) if receiver == "edge"
                 else np.sqrt(target[heard] / np.pi))
        assert np.array_equal(delays[heard], model.delay(radii))
        assert np.array_equal(gains[heard], model.gain(radii))
        assert np.all(delays[~heard] == model.delay(dist.pathloss.effective_range))
        assert np.all(gains[~heard] == 0.0)


class TestFixCompensation:
    def test_fix_samples_negative_with_consistent_gain(self):
        model = center_model()
        d_fix, k_fix = sample_fix(DelayDistribution(model, CENTER), np.random.default_rng(41),
                                  size=50_000)
        assert np.all(d_fix <= 0.0)
        assert np.array_equal(k_fix, model.gain(invert_delay(model, -d_fix)))

    def test_fix_plus_delay_is_symmetric_about_zero(self):
        # The compensation offset is a reflected interior delay, so the sum
        # with an independent interior delay must be symmetric about zero.
        model = center_model()
        rng = np.random.default_rng(43)
        n = 1_000_000
        d_fix, _ = sample_fix(DelayDistribution(model, CENTER), rng, size=n)
        delays, _ = DelayDistribution(model, CENTER).sample(rng, size=n)
        total = d_fix + delays
        hi = np.max(np.abs(total))
        grid = np.linspace(-hi, hi, 2001)
        g = empirical_cdf(total, grid)
        g_reflected = empirical_cdf(total, -grid)
        residual = np.max(np.abs(g + g_reflected - 1.0))
        assert residual < 0.01, residual
        assert abs(total.mean()) < 4.0 * total.std() / np.sqrt(n)

    def test_interior_guard(self):
        model = center_model()
        with pytest.raises(DomainError):
            sample_fix(DelayDistribution(model, NodePosition(0.1, 0.5)),
                       np.random.default_rng(1), 1)
        with pytest.raises(DomainError):
            sample_fix(DelayDistribution(ChannelModel(Region(1.0, 1.0), np.inf), CENTER),
                       np.random.default_rng(1), 1)


class TestModelValidation:
    def test_bad_parameters_rejected(self):
        region = Region(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ChannelModel(region, -0.5)
        with pytest.raises(ConfigurationError):
            ChannelModel(region, 0.25, wave_speed=0.0)
        for kwargs in ({"max_range": np.nan}, {"wave_speed": np.nan}, {"gate": np.nan}):
            with pytest.raises(ConfigurationError):
                ChannelModel(region, **{"max_range": 0.25, **kwargs})
        # an infinite speed would put every arrival at delay zero
        with pytest.raises(ConfigurationError):
            ChannelModel(region, 0.25, wave_speed=np.inf)

    def test_receiver_outside_region_rejected(self):
        with pytest.raises(DomainError):
            pathloss_cdf(PathlossDistribution(center_model(), NodePosition(1.5, 0.5)), 0.5)
