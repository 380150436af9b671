//! Log-distance path-loss channel with shadowing and SNR-derived PER.
//!
//! Received power follows the standard log-distance model
//! `P_rx = P_tx − PL₀ − 10·n·log₁₀(d/d₀) − X_σ − L_obs`, where `X_σ` is
//! log-normal shadowing and `L_obs` penetration loss applied when the
//! line of sight is blocked. The bit-error rate uses the coherent-BPSK
//! approximation `BER ≈ ½·e^(−SNR/2)`, and the packet-error rate follows as
//! `PER = 1 − (1 − BER)^bits`. The absolute numbers are not calibrated to a
//! specific radio, but the *shape* — a sharp range cliff whose knee moves
//! with obstacle loss and frame size — is what the orchestration experiments
//! depend on.

use serde::{Deserialize, Serialize};

/// Parameters of the path-loss + PER model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Path-loss exponent `n` (2 free space, 2.7–3.5 urban).
    pub path_loss_exponent: f64,
    /// Reference path loss at 1 m, dB.
    pub reference_loss_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Thermal-noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Extra penetration loss when line of sight is blocked, dB.
    pub obstacle_loss_db: f64,
}

impl Default for ChannelModel {
    /// The 802.11p/DSRC-like profile; see [`crate::profiles::dsrc`].
    fn default() -> Self {
        crate::profiles::dsrc().0
    }
}

impl ChannelModel {
    /// At or above this SNR (dB), [`Self::per`] is exactly 0.0 for every
    /// frame size: the BER is below 2⁻⁵⁴, so `1 − BER` rounds to 1.0. The
    /// exact boundary is 18.66 dB.
    pub(crate) const SNR_PER_ZERO_DB: f64 = 19.0;

    /// At or below this SNR (dB), [`Self::per`] is exactly 1.0 for a frame
    /// of `bits`: the success probability `(1 − BER)^bits` is at most
    /// 2⁻⁵⁶, a factor of 4 under the 2⁻⁵⁴ where `1 − ok` rounds to 1.0,
    /// which absorbs the rounding of `powf` and `exp`. −∞ when no finite
    /// SNR gets there (frames of at most 7 B). An SNR of −∞, which only
    /// an infinite loss produces, is outside the claim: there `per` is
    /// `1 − 2^−bits`, below 1.0 for frames under 54 bits.
    pub(crate) fn snr_per_one_db(bits: u64) -> f64 {
        // The BER at which `ok` is 2⁻⁵⁶, doubled: `BER = ½·e^(−SNR/2)`.
        let twice_ber = 2.0 * -(-56.0 * std::f64::consts::LN_2 / bits as f64).exp_m1();
        if twice_ber >= 1.0 {
            return f64::NEG_INFINITY;
        }
        10.0 * (-2.0 * twice_ber.ln()).log10()
    }

    /// [`Self::per`] at `snr_db` when the SNR lies past a cut — at or above
    /// [`Self::SNR_PER_ZERO_DB`], or at or below `per_one_db`, the frame's
    /// [`Self::snr_per_one_db`] — and `None` between the cuts.
    pub(crate) fn settled_per(snr_db: f64, per_one_db: f64) -> Option<f64> {
        if snr_db >= Self::SNR_PER_ZERO_DB {
            Some(0.0)
        } else if snr_db <= per_one_db {
            Some(1.0)
        } else {
            None
        }
    }

    /// Path loss at `distance` metres, dB; distances below 1 m are
    /// clamped to 1 m.
    fn path_loss_db(&self, distance: f64) -> f64 {
        self.reference_loss_db + 10.0 * self.path_loss_exponent * distance.max(1.0).log10()
    }

    /// Mean received power at `distance` metres, dBm (before shadowing).
    ///
    /// Distances below 1 m are clamped to 1 m.
    pub fn mean_rx_power_dbm(&self, distance: f64, line_of_sight: bool) -> f64 {
        let obs = if line_of_sight {
            0.0
        } else {
            self.obstacle_loss_db
        };
        self.tx_power_dbm - self.path_loss_db(distance) - obs
    }

    /// Signal-to-noise ratio in dB for a given received power.
    pub fn snr_db(&self, rx_power_dbm: f64) -> f64 {
        rx_power_dbm - self.noise_floor_dbm
    }

    /// Packet-error rate for a frame of `bits` at the given SNR (dB).
    ///
    /// Monotone non-decreasing in frame size and non-increasing in SNR.
    pub fn per(&self, snr_db: f64, bits: u64) -> f64 {
        let snr = 10f64.powf(snr_db / 10.0);
        let ber = 0.5 * (-snr / 2.0).exp();
        let ok = (1.0 - ber).powf(bits as f64);
        (1.0 - ok).clamp(0.0, 1.0)
    }

    /// SNR in dB at `distance` with a concrete shadowing draw
    /// (`shadow_db`, positive = deeper fade): the value [`Self::per_at`]
    /// feeds to [`Self::per`].
    pub fn snr_at(&self, distance: f64, line_of_sight: bool, shadow_db: f64) -> f64 {
        self.snr_db(self.mean_rx_power_dbm(distance, line_of_sight) - shadow_db)
    }

    /// [`Self::snr_at`] with line of sight and with it blocked, `(clear,
    /// blocked)`, from one `log10`: bit for bit the two values `snr_at`
    /// returns.
    pub(crate) fn snr_clear_and_blocked(&self, distance: f64, shadow_db: f64) -> (f64, f64) {
        let pl = self.path_loss_db(distance);
        let snr = |obs: f64| self.snr_db(self.tx_power_dbm - pl - obs - shadow_db);
        (snr(0.0), snr(self.obstacle_loss_db))
    }

    /// End-to-end PER at `distance` with a concrete shadowing draw
    /// (`shadow_db`, positive = deeper fade) for a frame of `bits`.
    pub fn per_at(&self, distance: f64, line_of_sight: bool, shadow_db: f64, bits: u64) -> f64 {
        self.per(self.snr_at(distance, line_of_sight, shadow_db), bits)
    }

    /// Approximate communication range: the distance where mean-SNR PER for
    /// a 256-byte frame crosses 50 % (bisection, no shadowing).
    pub fn nominal_range(&self, line_of_sight: bool) -> f64 {
        let bits = 256 * 8;
        let per_of = |d: f64| {
            let rx = self.mean_rx_power_dbm(d, line_of_sight);
            self.per(self.snr_db(rx), bits)
        };
        let (mut lo, mut hi) = (1.0, 100_000.0);
        if per_of(lo) > 0.5 {
            return 0.0;
        }
        if per_of(hi) < 0.5 {
            return hi;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if per_of(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ChannelModel {
        ChannelModel {
            tx_power_dbm: 23.0,
            path_loss_exponent: 2.75,
            reference_loss_db: 47.0,
            shadowing_sigma_db: 3.0,
            noise_floor_dbm: -95.0,
            obstacle_loss_db: 15.0,
        }
    }

    #[test]
    fn power_decreases_with_distance() {
        let m = model();
        let p10 = m.mean_rx_power_dbm(10.0, true);
        let p100 = m.mean_rx_power_dbm(100.0, true);
        let p300 = m.mean_rx_power_dbm(300.0, true);
        assert!(p10 > p100 && p100 > p300);
        // Decade of distance = 10·n dB.
        assert!((p10 - p100 - 27.5).abs() < 1e-9);
    }

    #[test]
    fn sub_metre_distances_clamp() {
        let m = model();
        assert_eq!(
            m.mean_rx_power_dbm(0.0, true),
            m.mean_rx_power_dbm(1.0, true)
        );
    }

    #[test]
    fn obstacle_costs_fixed_loss() {
        let m = model();
        let los = m.mean_rx_power_dbm(50.0, true);
        let nlos = m.mean_rx_power_dbm(50.0, false);
        assert!((los - nlos - 15.0).abs() < 1e-12);
    }

    #[test]
    fn per_monotone_in_snr_and_size() {
        let m = model();
        assert!(m.per(30.0, 1000) < 1e-9, "high SNR ≈ lossless");
        assert!(m.per(-10.0, 1000) > 0.99, "negative SNR ≈ hopeless");
        let mut last = 0.0;
        for snr in (-10..=30).rev() {
            let p = m.per(snr as f64, 2048);
            assert!(p >= last - 1e-15, "PER must not decrease as SNR drops");
            last = p;
        }
        assert!(
            m.per(8.0, 16_000) >= m.per(8.0, 1_000),
            "bigger frames fail more"
        );
    }

    #[test]
    fn per_bounds() {
        let m = model();
        for snr in [-50.0, 0.0, 7.0, 50.0] {
            for bits in [1u64, 8_000, 1_000_000] {
                let p = m.per(snr, bits);
                assert!((0.0..=1.0).contains(&p), "per({snr},{bits}) = {p}");
            }
        }
    }

    #[test]
    fn nominal_range_is_plausible_and_shrinks_without_los() {
        let m = model();
        let los = m.nominal_range(true);
        let nlos = m.nominal_range(false);
        assert!(los > 100.0 && los < 2_000.0, "LOS range {los}");
        assert!(nlos < los, "NLOS {nlos} must be shorter than LOS {los}");
    }

    /// `settled_per` is exact: for every frame of 1–6000 B, `per` is
    /// exactly 1.0 at the frame's `snr_per_one_db`, at the four floats
    /// below it and on a 0.05 dB ladder for 10 dB below that, and exactly
    /// 0.0 from `SNR_PER_ZERO_DB` up. Only frames of at most 7 B have no
    /// finite one-cut.
    #[test]
    fn per_is_exact_past_the_cuts() {
        let m = model();
        let zero = ChannelModel::SNR_PER_ZERO_DB;
        // A cut, its next four floats outward, then `step`-dB rungs.
        let ladder = |cut: f64, next: fn(f64) -> f64, step: f64, rungs: u32| {
            std::iter::successors(Some(cut), move |&s| Some(next(s)))
                .take(5)
                .chain((1..=rungs).map(move |k| cut + step * f64::from(k)))
        };
        for bytes in 1..=6000u64 {
            let bits = bytes * 8;
            let one = ChannelModel::snr_per_one_db(bits);
            for s in ladder(zero, f64::next_up, 0.05, 400) {
                assert_eq!(m.per(s, bits), 0.0, "{bytes} B at {s} dB");
                assert_eq!(ChannelModel::settled_per(s, one), Some(0.0));
            }
            assert_eq!(ChannelModel::settled_per(zero.next_down(), one), None);
            if one == f64::NEG_INFINITY {
                assert!(bytes <= 7, "{bytes} B has no one-cut");
                continue;
            }
            for s in ladder(one, f64::next_down, -0.05, 200) {
                assert_eq!(m.per(s, bits), 1.0, "{bytes} B at {s} dB");
                assert_eq!(ChannelModel::settled_per(s, one), Some(1.0));
            }
            assert_eq!(ChannelModel::settled_per(one.next_up(), one), None);
        }
    }

    /// The cuts are tight enough to fire: for 60–1600 B frames the
    /// one-cut lies within 0.1 dB of the first SNR where `per < 1.0`, and
    /// for every frame `per` is still above 0.0 at 0.4 dB under the
    /// zero-cut.
    #[test]
    fn per_cuts_are_tight() {
        let m = model();
        for bytes in 1..=6000u64 {
            let bits = bytes * 8;
            assert!(m.per(ChannelModel::SNR_PER_ZERO_DB - 0.4, bits) > 0.0);
            if !(60..=1600).contains(&bytes) {
                continue;
            }
            let one = ChannelModel::snr_per_one_db(bits);
            let (mut lo, mut hi) = (one, one + 2.0);
            assert!(m.per(hi, bits) < 1.0);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if m.per(mid, bits) == 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            assert!(
                hi - one <= 0.1,
                "{bytes} B: cut {one} dB, per < 1 from {hi} dB"
            );
        }
    }

    proptest::proptest! {
        /// Random SNRs, and SNRs just past either cut, settle to exactly
        /// what `per` returns.
        #[test]
        fn settled_per_matches_per(
            bytes in 1u64..=6000,
            snr in -60.0f64..80.0,
            past in 0.0f64..0.5,
        ) {
            let m = model();
            let bits = bytes * 8;
            let one = ChannelModel::snr_per_one_db(bits);
            for s in [snr, one - past, ChannelModel::SNR_PER_ZERO_DB + past] {
                if let Some(p) = ChannelModel::settled_per(s, one) {
                    proptest::prop_assert_eq!(m.per(s, bits), p, "{} B at {} dB", bytes, s);
                }
            }
        }
    }

    /// `snr_clear_and_blocked` is `snr_at` for both states of the line of
    /// sight, bit for bit, and `per_at` is `per` of `snr_at`.
    #[test]
    fn snr_pair_matches_snr_at() {
        let mut m = model();
        for loss in [15.0, 0.0, 200.0, -3.0] {
            m.obstacle_loss_db = loss;
            for k in 0..2_000 {
                let d = k as f64 * 0.37;
                let shadow = (k as f64 * 0.731).sin() * 9.0;
                let (clear, blocked) = m.snr_clear_and_blocked(d, shadow);
                assert_eq!(clear.to_bits(), m.snr_at(d, true, shadow).to_bits());
                assert_eq!(blocked.to_bits(), m.snr_at(d, false, shadow).to_bits());
                assert_eq!(m.per_at(d, false, shadow, 2048), m.per(blocked, 2048));
            }
        }
    }

    #[test]
    fn shadowing_draw_shifts_per() {
        let m = model();
        let d = m.nominal_range(true);
        let faded = m.per_at(d, true, 10.0, 2048);
        let boosted = m.per_at(d, true, -10.0, 2048);
        assert!(faded > 0.5 && boosted < 0.5);
    }
}
