//! Property-based tests for the simulation substrate.

use airdnd_sim::{percentile, OnlineStats, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    /// Time arithmetic: (t + d) − t == d for any representable values that
    /// do not saturate.
    #[test]
    fn time_addition_round_trips(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t0 + dur) - t0, dur);
        prop_assert_eq!((t0 + dur).saturating_since(t0), dur);
    }

    /// Durations scale linearly: d*k / k == d (within integer division).
    #[test]
    fn duration_scaling_consistent(nanos in 0u64..1 << 40, k in 1u64..1000) {
        let d = SimDuration::from_nanos(nanos);
        prop_assert_eq!((d * k) / k, d);
    }

    /// The same seed always produces the same stream; different streams
    /// from the same parent fork are independent but reproducible.
    #[test]
    fn rng_reproducibility(seed in any::<u64>(), tag in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut fork1 = a.fork(tag);
        let mut fork2 = b.fork(tag);
        for _ in 0..16 {
            prop_assert_eq!(fork1.next_u64(), fork2.next_u64());
        }
    }

    /// Uniform draws stay in [0, 1) regardless of seed.
    #[test]
    fn unit_interval_holds(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..256 {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn online_stats_match_two_pass(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut online = OnlineStats::new();
        for &x in &xs {
            online.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let scale = mean.abs().max(1.0);
        prop_assert!((online.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((online.variance() - var).abs() / var.max(1.0) < 1e-6);
    }

    /// Percentile of a constant vector is that constant at any q.
    #[test]
    fn percentile_of_constant(c in -1e6f64..1e6, n in 1usize..50, q in 0.0f64..=1.0) {
        let xs = vec![c; n];
        prop_assert_eq!(percentile(&xs, q), Some(c));
    }
}
