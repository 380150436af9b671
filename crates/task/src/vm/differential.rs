//! Differential tests of the lowering: the block-metered interpreter must
//! match a plain loop over the per-instruction step function exactly —
//! outputs, gas, steps and the precise trap — for every verified program
//! and every limit.

use super::exec::{execute, execute_stepwise, ExecLimits, Trap};
use super::isa::{Instr, Program};
use super::lower::Op;
use super::verify::{verify, VerifiedProgram};
use crate::library;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;
use Instr::*;

/// Runs both interpreters and requires identical results.
fn check(program: &VerifiedProgram, inputs: &[i64], limits: ExecLimits) -> Result<(), Trap> {
    let lowered = execute(program, inputs, limits);
    let reference = execute_stepwise(program, inputs, limits);
    assert_eq!(
        lowered,
        reference,
        "limits {limits:?}, inputs {inputs:?}, code {:?}",
        program.program().code()
    );
    lowered.map(|_| ())
}

/// A constant: usually small, sometimes at either edge of `i32` (where
/// the loop latch stops fusing) or anywhere in `i64`.
fn constant(rng: &mut TestRng) -> i64 {
    const EDGES: [i64; 4] = [
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
    ];
    match rng.below(8) {
        0 => rng.next_u64() as i64,
        1 => pick(rng, &EDGES),
        _ => rng.below(9) as i64 - 4,
    }
}

/// An address: usually a declared word, sometimes just outside memory.
fn address(rng: &mut TestRng, memory_words: u32) -> i64 {
    rng.below(u64::from(memory_words) + 3) as i64 - 1
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

const BINOPS: [Instr; 18] = [
    Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
];
const COMPARISONS: [Instr; 6] = [Eq, Ne, Lt, Le, Gt, Ge];

/// A program that verifies by construction, rich in the assembler's
/// idioms. Instructions only pop what the straight-line stack height
/// holds, and every jump lands on an instruction (or `code.len()`) whose
/// straight-line height equals the jump's height after its pop, so every
/// join agrees.
fn random_program(rng: &mut TestRng) -> Program {
    let memory_words = rng.below(5) as u32;
    let target_len = 1 + rng.below(40) as usize;
    let mut code: Vec<Instr> = Vec::new();
    let mut heights: Vec<u32> = Vec::new(); // height before each instruction
    let mut h = 0u32;
    while code.len() < target_len {
        let a = address(rng, memory_words);
        let c = constant(rng);
        let binop = pick(rng, &BINOPS);
        let cmp = pick(rng, &COMPARISONS);
        let branch = pick(rng, &[Jz(0), Jnz(0)]);
        let chunk = match rng.below(13) {
            0 => vec![Push(a), Load],
            1 if h >= 1 => vec![Push(a), Store],
            2 => vec![Push(c), Push(a), Store],
            3 => vec![Push(a), Load, Push(c), Add, Push(a), Store],
            4 if h >= 1 => vec![Push(c), binop],
            5 if h >= 2 => vec![cmp, branch],
            6 => vec![pick(rng, &[Jmp(0), Jz(0), Jnz(0), Halt])],
            // The idioms of a loop over the inputs: its test against the
            // input length, an indexed read folded into a binop (a
            // `Div`/`Rem` meets zero inputs often) and the step-and-jump
            // latch.
            7 => vec![Push(a), Load, InputLen, cmp, branch],
            8 if h >= 1 => vec![Push(a), Load, Input, binop],
            9 => vec![Push(a), Load, Push(c), Add, Push(a), Store, Jmp(0)],
            _ => {
                let singles = [
                    Push(c),
                    Pop,
                    Dup,
                    Swap,
                    Over,
                    Neg,
                    Abs,
                    Not,
                    binop,
                    Load,
                    Store,
                    Input,
                    InputLen,
                    Output,
                ];
                vec![pick(rng, &singles)]
            }
        };
        let mut after = h;
        let fits = chunk.iter().all(|i| {
            let (pops, pushes) = i.stack_effect();
            let ok = after >= pops && after - pops + pushes <= 6;
            after = after.saturating_sub(pops) + pushes;
            ok
        });
        if !fits {
            continue;
        }
        for instr in chunk {
            heights.push(h);
            let (pops, pushes) = instr.stack_effect();
            h = h - pops + pushes;
            code.push(instr);
        }
    }
    heights.push(h);
    for pc in 0..code.len() {
        let (pops, _) = code[pc].stack_effect();
        let landing = heights[pc] - pops;
        let targets: Vec<u32> = (0..heights.len())
            .filter(|&t| heights[t] == landing)
            .map(|t| t as u32)
            .collect();
        let t = pick(rng, &targets);
        match &mut code[pc] {
            Jmp(to) | Jz(to) | Jnz(to) => *to = t,
            _ => {}
        }
    }
    Program::new(code, memory_words)
}

/// Tight limits, so loops run out of gas and output limits bite.
fn random_limits(rng: &mut TestRng) -> ExecLimits {
    let gas = [rng.below(40), rng.below(400), 2_000];
    let outputs = [rng.below(4) as usize, 64];
    ExecLimits {
        max_gas: pick(rng, &gas),
        max_outputs: pick(rng, &outputs),
    }
}

fn random_inputs(rng: &mut TestRng) -> Vec<i64> {
    (0..rng.below(6))
        .map(|_| rng.below(10) as i64 - 3)
        .collect()
}

proptest! {
    /// Random verified programs, inputs and limits: lowered ≡ stepwise.
    #[test]
    fn lowered_matches_stepwise_on_random_programs(seed in any::<u64>()) {
        let mut rng = TestRng::for_case("lowered_matches_stepwise", seed);
        for _ in 0..64 {
            let program = verify(random_program(&mut rng)).expect("generated programs verify");
            for _ in 0..3 {
                let inputs = random_inputs(&mut rng);
                let _ = check(&program, &inputs, random_limits(&mut rng));
            }
        }
    }
}

/// The generator reaches every trap, every superinstruction and block
/// ends of every kind, so the property above tests what it claims to.
#[test]
fn random_programs_cover_every_trap_and_superinstruction() {
    let mut rng = TestRng::for_case("coverage", 0);
    let mut seen = BTreeSet::new();
    for _ in 0..4_000 {
        let program = verify(random_program(&mut rng)).expect("generated programs verify");
        for op in &program.lowered().ops {
            seen.insert(
                format!("{op:?}")
                    .split([' ', '('])
                    .next()
                    .unwrap()
                    .to_owned(),
            );
        }
        let inputs = random_inputs(&mut rng);
        let outcome = match check(&program, &inputs, random_limits(&mut rng)) {
            Ok(()) => "Ok".to_owned(),
            Err(trap) => format!("{trap:?}").split(' ').next().unwrap().to_owned(),
        };
        seen.insert(outcome);
    }
    for kind in [
        "Ok",
        "OutOfGas",
        "DivByZero",
        "MemOutOfBounds",
        "InputOutOfBounds",
        "OutputLimit",
        "BinConst",
        "LoadVar",
        "StoreVar",
        "SetVar",
        "AddVar",
        "BinInputVar",
        "VarLenBranch",
        "AddVarJump",
        "CmpBranch",
        "Branch",
        "Jump",
        "Halt",
    ] {
        assert!(seen.contains(kind), "{kind} never seen in {seen:?}");
    }
}

/// Every library kernel at every gas limit from 0 to its full gas + 2:
/// pins the `OutOfGas` boundary inside every fused block.
#[test]
fn library_kernels_match_at_every_gas_limit() {
    let kernels = [
        (library::sum_inputs(), vec![3, -1, 4]),
        (library::echo_inputs(), vec![1, 2, 3]),
        (library::grid_fuse(4), vec![1, 0, 5, 0, 0, 2, 3, 9]),
        (library::count_above(2), vec![1, 2, 3, 4, 0]),
        (library::matmul(2), vec![1, 2, 3, 4, 5, 6, 7, 8]),
        (library::burn_and_echo(3), vec![1, 0, -1, 1, 0]),
        (library::checksum(), vec![1, 2, 3]),
    ];
    for (kernel, inputs) in &kernels {
        let full = library::measure_gas(kernel, inputs);
        for max_gas in 0..=full + 2 {
            let limits = ExecLimits {
                max_gas,
                max_outputs: 64,
            };
            let outcome = check(kernel, inputs, limits);
            if max_gas < full {
                assert_eq!(outcome, Err(Trap::OutOfGas { limit: max_gas }));
            } else {
                assert_eq!(outcome, Ok(()));
            }
        }
    }
}

fn run(code: Vec<Instr>, memory_words: u32, inputs: &[i64]) -> Result<Vec<i64>, Trap> {
    let program = verify(Program::new(code, memory_words)).expect("test programs verify");
    check(&program, inputs, ExecLimits::default())?;
    execute(&program, inputs, ExecLimits::default()).map(|e| e.outputs)
}

#[test]
fn jump_into_the_middle_of_a_fusable_pair() {
    // `Push 0; Load` at 7..=8 would fuse into one op, but 5 jumps to the
    // `Load` with address 1 already on the stack.
    let code = vec![
        Push(7),
        Push(1),
        Store, // 0..=2  mem[1] = 7
        Push(1),
        InputLen,
        Jnz(8), // 3..=5  with inputs, load through address 1
        Pop,
        Push(0),
        Load, // 6..=8
        Output,
    ];
    assert_eq!(run(code.clone(), 2, &[]), Ok(vec![0]));
    assert_eq!(run(code, 2, &[5]), Ok(vec![7]));
}

/// `true` if `program` lowers any op `is` accepts.
fn lowers_to(program: &VerifiedProgram, is: impl Fn(&Op) -> bool) -> bool {
    program.lowered().ops.iter().any(is)
}

#[test]
fn jump_into_the_middle_of_a_loop_test() {
    // `Push 0; Load; InputLen; Ge; Jnz` at 4..=8 would fuse into one op,
    // but 2 jumps to the `InputLen` with 9 already on the stack.
    let code = vec![
        Push(9),
        InputLen,
        Jnz(6), // 0..=2  with inputs, test 9 >= len
        Pop,
        Push(0),
        Load,
        InputLen,
        Ge,
        Jnz(11), // 3..=8  mem[0] >= len
        Push(1),
        Output, // 9..=10  only while the test fails
        Push(2),
        Output,
    ];
    let program = verify(Program::new(code.clone(), 1)).unwrap();
    assert!(!lowers_to(&program, |op| matches!(
        op,
        Op::VarLenBranch { .. }
    )));
    assert_eq!(run(code.clone(), 1, &[]), Ok(vec![2]));
    assert_eq!(run(code.clone(), 1, &[4]), Ok(vec![2]));
    // Without the jump the same test fuses, and 0 >= 1 fails.
    let fused: Vec<Instr> = code[4..]
        .iter()
        .map(|&i| match i {
            Jnz(t) => Jnz(t - 4),
            other => other,
        })
        .collect();
    let program = verify(Program::new(fused.clone(), 1)).unwrap();
    assert!(lowers_to(&program, |op| matches!(
        op,
        Op::VarLenBranch { .. }
    )));
    assert_eq!(run(fused, 1, &[4]), Ok(vec![1, 2]));
}

#[test]
fn jump_into_the_middle_of_a_step_and_jump() {
    // `incr_var(0); Jmp` at 7..=13 would fuse into one op, but 5 jumps to
    // its `Push 0; Store` with 40 on the stack.
    let code = vec![
        Push(5),
        Push(0),
        Store, // 0..=2  mem[0] = 5
        Push(40),
        InputLen,
        Jnz(11), // 3..=5  with inputs, mem[0] = 40
        Pop,
        Push(0),
        Load,
        Push(1),
        Add,
        Push(0),
        Store,
        Jmp(14), // 6..=13
        Push(0),
        Load,
        Output,
    ];
    let program = verify(Program::new(code.clone(), 1)).unwrap();
    assert!(!lowers_to(&program, |op| matches!(
        op,
        Op::AddVar { .. } | Op::AddVarJump { .. }
    )));
    assert_eq!(run(code.clone(), 1, &[]), Ok(vec![6]));
    assert_eq!(run(code, 1, &[1]), Ok(vec![40]));
}

#[test]
fn indexed_reads_trap_at_the_input() {
    for index in [2, -1] {
        // `set_var(0, index)`, then an indexed read folded into an `Add`
        // (4..=7) and output.
        let code = vec![
            Push(index),
            Push(0),
            Store,
            Push(3),
            Push(0),
            Load,
            Input,
            Add,
            Output,
        ];
        let program = verify(Program::new(code.clone(), 1)).unwrap();
        assert!(matches!(
            program.lowered().ops[2],
            Op::BinInputVar { addr: 0, pc: 6, .. }
        ));
        assert_eq!(
            run(code, 1, &[7, 8]),
            Err(Trap::InputOutOfBounds { pc: 6, index })
        );
    }
}

#[test]
fn zero_input_divisor_traps_at_the_binop() {
    for binop in [Div, Rem] {
        // 7 ⊕ inputs[mem[0]], the read and the binop at 1..=4.
        let code = vec![Push(7), Push(0), Load, Input, binop, Output];
        let program = verify(Program::new(code.clone(), 1)).unwrap();
        assert!(lowers_to(&program, |op| matches!(
            op,
            Op::BinInputVar { pc: 3, .. }
        )));
        assert_eq!(run(code.clone(), 1, &[0]), Err(Trap::DivByZero { pc: 4 }));
        let expected = if binop == Div { 3 } else { 1 };
        assert_eq!(run(code, 1, &[2]), Ok(vec![expected]));
    }
}

#[test]
fn constants_outside_i32_keep_the_short_ops() {
    // A step-and-jump by a step at each edge of `i32` fuses; by a step
    // just outside it, it stays `AddVar` and `Jump`.
    let edges = [
        (i64::from(i32::MIN) - 1, false),
        (i64::from(i32::MIN), true),
        (i64::from(i32::MAX), true),
        (i64::from(i32::MAX) + 1, false),
    ];
    for (c, fuses) in edges {
        let code = vec![
            Push(0),
            Load,
            Push(c),
            Add,
            Push(0),
            Store,
            Jmp(7),
            Push(0),
            Load,
            Output,
        ];
        let program = verify(Program::new(code.clone(), 1)).unwrap();
        let latch = |op: &Op| matches!(op, Op::AddVarJump { .. });
        assert_eq!(lowers_to(&program, latch), fuses, "step {c}");
        let step = |op: &Op| matches!(op, Op::AddVar { .. });
        assert_eq!(lowers_to(&program, step), !fuses, "step {c}");
        assert_eq!(run(code, 1, &[]), Ok(vec![c]));
    }
}

#[test]
fn jump_to_the_end_halts_cleanly() {
    let program = verify(Program::new(vec![Push(1), Output, Jmp(4), Output], 0)).unwrap();
    let out = execute(&program, &[], ExecLimits::default()).unwrap();
    assert_eq!((out.outputs, out.gas_used, out.steps), (vec![1], 4, 3));
    check(&program, &[], ExecLimits::default()).unwrap();
    // A conditional jump to the end, taken and not taken.
    let code = vec![InputLen, Jnz(4), Push(2), Output];
    assert_eq!(run(code.clone(), 0, &[]), Ok(vec![2]));
    assert_eq!(run(code, 0, &[1]), Ok(vec![]));
}

#[test]
fn halt_mid_block_stops_and_counts_itself() {
    let program = verify(Program::new(
        vec![Push(1), Output, Halt, Push(2), Output],
        0,
    ))
    .unwrap();
    for max_gas in 0..=5 {
        let limits = ExecLimits {
            max_gas,
            max_outputs: 8,
        };
        let _ = check(&program, &[], limits);
    }
    let out = execute(&program, &[], ExecLimits::default()).unwrap();
    assert_eq!((out.outputs, out.gas_used, out.steps), (vec![1], 3, 3));
}

#[test]
fn constant_address_outside_memory_still_traps() {
    // store_var / load_var / incr_var / set_var shapes one word past the
    // end, and a negative address: none may fuse, each traps at its
    // `Load`/`Store`.
    assert_eq!(
        run(vec![Push(5), Push(4), Store], 4, &[]),
        Err(Trap::MemOutOfBounds { pc: 2, addr: 4 })
    );
    assert_eq!(
        run(vec![Push(4), Load, Output], 4, &[]),
        Err(Trap::MemOutOfBounds { pc: 1, addr: 4 })
    );
    assert_eq!(
        run(vec![Push(4), Load, Push(1), Add, Push(4), Store], 4, &[]),
        Err(Trap::MemOutOfBounds { pc: 1, addr: 4 })
    );
    assert_eq!(
        run(vec![Push(9), Push(-1), Store], 4, &[]),
        Err(Trap::MemOutOfBounds { pc: 2, addr: -1 })
    );
    // Without declared memory every constant address is outside it.
    assert_eq!(
        run(vec![Push(0), Load], 0, &[]),
        Err(Trap::MemOutOfBounds { pc: 1, addr: 0 })
    );
    // The same shapes inside memory do fuse.
    let inside = verify(Program::new(
        vec![Push(3), Load, Push(1), Add, Push(3), Store],
        4,
    ))
    .unwrap();
    assert!(matches!(
        inside.lowered().ops[0],
        Op::AddVar { addr: 3, c: 1 }
    ));
}

#[test]
fn zero_divisor_constant_is_not_fused() {
    assert_eq!(
        run(vec![Push(7), Push(0), Div, Output], 0, &[]),
        Err(Trap::DivByZero { pc: 2 })
    );
    assert_eq!(
        run(vec![Push(7), Push(0), Rem, Output], 0, &[]),
        Err(Trap::DivByZero { pc: 2 })
    );
    assert_eq!(
        run(vec![Push(7), Push(2), Div, Output], 0, &[]),
        Ok(vec![3])
    );
}
