//! Cross-crate property-based tests: invariants that must hold for any
//! input, not just the scripted cases.

use airdnd::data::{DataCatalog, DataQuery, DataType, QualityDescriptor};
use airdnd::scenario::fuse_max;
use airdnd::sim::{percentile, SimTime};
use airdnd::task::library;
use airdnd::task::vm::{execute, verify, ExecLimits, Instr, Program, Trap};
use airdnd::trust::{digest_outputs, majority_vote, Verdict};
use proptest::prelude::*;

fn arb_instr(code_len: u32) -> impl Strategy<Value = Instr> {
    use Instr::*;
    prop_oneof![
        (-64i64..64).prop_map(Push),
        Just(Pop),
        Just(Dup),
        Just(Swap),
        Just(Over),
        Just(Add),
        Just(Sub),
        Just(Mul),
        Just(Div),
        Just(Rem),
        Just(Min),
        Just(Max),
        Just(Not),
        Just(Eq),
        Just(Lt),
        (0..code_len).prop_map(Jmp),
        (0..code_len).prop_map(Jz),
        (0..code_len).prop_map(Jnz),
        Just(Load),
        Just(Store),
        Just(Input),
        Just(InputLen),
        Just(Output),
        Just(Halt),
    ]
}

proptest! {
    /// The verifier's core soundness promise: a verified program can trap
    /// on *data* (division, bounds, gas) but never on the stack — the
    /// interpreter would panic on stack underflow, so simply not panicking
    /// (and not hitting an impossible state) is the property.
    #[test]
    fn verified_programs_never_stack_fault(
        code in proptest::collection::vec(arb_instr(40), 1..40),
        inputs in proptest::collection::vec(-8i64..8, 0..8),
    ) {
        let program = Program::new(code, 16);
        if let Ok(verified) = verify(program) {
            // Tight gas so even infinite loops terminate quickly.
            let limits = ExecLimits { max_gas: 2_000, max_outputs: 64 };
            match execute(&verified, &inputs, limits) {
                Ok(_) => {}
                Err(
                    Trap::OutOfGas { .. }
                    | Trap::DivByZero { .. }
                    | Trap::MemOutOfBounds { .. }
                    | Trap::InputOutOfBounds { .. }
                    | Trap::OutputLimit { .. },
                ) => {}
            }
        }
    }

    /// Executing the shipped grid_fuse kernel on the receiving node gives
    /// bit-identical results to the native fusion the ego would compute —
    /// the equivalence the offloading story rests on.
    #[test]
    fn vm_grid_fuse_matches_native_fusion(
        a in proptest::collection::vec(-1i64..=1, 1..64),
    ) {
        let cells = a.len();
        let b: Vec<i64> = a.iter().rev().copied().collect();
        let kernel = library::grid_fuse(cells as u32);
        let mut inputs = a.clone();
        inputs.extend_from_slice(&b);
        let vm_out = execute(&kernel, &inputs, ExecLimits::default())
            .expect("fuse kernel never traps on valid grids")
            .outputs;
        let mut native = a.clone();
        fuse_max(&mut native, &b);
        prop_assert_eq!(vm_out, native);
    }

    /// Deterministic execution ⇒ honest executors always agree: any
    /// majority vote over identical outputs accepts with no dissenters.
    #[test]
    fn honest_replicas_always_verify(
        outputs in proptest::collection::vec(any::<i64>(), 0..32),
        replicas in 1usize..6,
    ) {
        let digest = digest_outputs(&outputs);
        let votes: Vec<(u64, _)> = (0..replicas as u64).map(|n| (n, digest)).collect();
        match majority_vote(&votes, 1) {
            Verdict::Accepted { dissenting, agreeing, .. } => {
                prop_assert!(dissenting.is_empty());
                prop_assert_eq!(agreeing.len(), replicas);
            }
            Verdict::Inconclusive { .. } => prop_assert!(false, "unanimity must verify"),
        }
    }

    /// Catalog matching never returns an item violating its own query.
    #[test]
    fn catalog_matches_satisfy_their_query(
        ages in proptest::collection::vec(0u64..20, 1..16),
        max_age in 1u64..20,
    ) {
        let now = SimTime::from_secs(20);
        let mut catalog = DataCatalog::new(16);
        for &age in &ages {
            catalog.insert(
                DataType::DetectionList,
                100,
                QualityDescriptor::basic(SimTime::from_secs(20 - age), 0.9, 1.0),
            );
        }
        let mut query = DataQuery::of_type(DataType::DetectionList);
        query.requirement.max_age = airdnd::sim::SimDuration::from_secs(max_age);
        for item in catalog.find(&query, now) {
            prop_assert!(query.requirement.is_satisfied_by(&item.quality, now));
        }
    }

    /// Percentile is monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone_and_bounded(
        values in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&values, lo).expect("non-empty");
        let p_hi = percentile(&values, hi).expect("non-empty");
        prop_assert!(p_lo <= p_hi + 1e-9);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min - 1e-9 && p_hi <= max + 1e-9);
    }
}

/// Non-proptest invariant: the byzantine corruption used in experiments is
/// always detectable by digest comparison against an honest replica.
#[test]
fn corruption_always_changes_the_digest() {
    for outputs in [vec![], vec![0i64], vec![1, 2, 3], vec![-1; 50]] {
        let honest = digest_outputs(&outputs);
        let mut corrupted = outputs.clone();
        for w in &mut corrupted {
            *w ^= 0x0BAD;
        }
        if corrupted.is_empty() {
            corrupted.push(0x0BAD);
        }
        assert_ne!(honest, digest_outputs(&corrupted));
    }
}
