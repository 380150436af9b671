//! Lowering: the pre-decoded form [`verify`](super::verify()) builds once
//! per program and the interpreter runs.
//!
//! A [`Lowered`] program has three parts:
//!
//! * **Basic blocks.** A block starts at instruction 0, at every jump
//!   target and right after every jump or `Halt`, and runs to the next
//!   such start. Control enters a block only at its first instruction and
//!   leaves only after its last, so each block carries the summed gas and
//!   instruction count of its original instructions and the interpreter
//!   meters once per block instead of once per instruction.
//! * **A flat op array.** Each block's ops are contiguous and end in
//!   exactly one control op ([`Op::Jump`], [`Op::Branch`],
//!   [`Op::CmpBranch`], [`Op::VarLenBranch`], [`Op::AddVarJump`] or
//!   [`Op::Halt`]); jumps name blocks, not instruction indices. A jump to
//!   `code.len()` names the empty exit block, the last one.
//! * **Superinstructions** for the assembler's own idioms. A
//!   *superinstruction* is one op that stands for several original
//!   instructions:
//!   - `load_var`, `store_var`, `set_var` and `incr_var` on a constant
//!     address inside declared memory ([`Op::LoadVar`], [`Op::StoreVar`],
//!     [`Op::SetVar`], [`Op::AddVar`]);
//!   - `Push c; <binop>` ([`Op::BinConst`]) and `<cmp>; Jz/Jnz`
//!     ([`Op::CmpBranch`]);
//!   - the idioms of a loop over the input words, which the offloaded
//!     kernel runs once per word: its test of a variable against the
//!     input length ([`Op::VarLenBranch`]), an indexed read
//!     `load_var; Input` folded into the binop after it
//!     ([`Op::BinInputVar`]), and its latch `incr_var; Jmp`
//!     ([`Op::AddVarJump`]).
//!
//!   A pattern is fused only inside one block, so a jump into its middle
//!   splits it. The latch carries its step as an `i32`, which keeps
//!   [`Op`] at 16 bytes; a step outside `i32` leaves the latch to
//!   [`Op::AddVar`] and [`Op::Jump`].
//!
//! Ops that can trap on runtime values (memory and input indices,
//! divisors, the output limit) keep the index of their original
//! instruction so the trap reports the same `pc` as the instruction would.
//! A constant address outside declared memory is never fused: it stays a
//! plain `Load`/`Store` and traps at run time, as before.

use super::isa::{gas_cost, Instr};

/// A two-operand operation, `[a, b] → [a ⊕ b]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Bin {
    /// The binary operation `instr` performs, if it is one.
    pub(super) fn of(instr: Instr) -> Option<Bin> {
        Some(match instr {
            Instr::Add => Bin::Add,
            Instr::Sub => Bin::Sub,
            Instr::Mul => Bin::Mul,
            Instr::Div => Bin::Div,
            Instr::Rem => Bin::Rem,
            Instr::Min => Bin::Min,
            Instr::Max => Bin::Max,
            Instr::And => Bin::And,
            Instr::Or => Bin::Or,
            Instr::Xor => Bin::Xor,
            Instr::Shl => Bin::Shl,
            Instr::Shr => Bin::Shr,
            Instr::Eq => Bin::Eq,
            Instr::Ne => Bin::Ne,
            Instr::Lt => Bin::Lt,
            Instr::Le => Bin::Le,
            Instr::Gt => Bin::Gt,
            Instr::Ge => Bin::Ge,
            _ => return None,
        })
    }

    /// `a ⊕ b`, or `None` for division or remainder by zero.
    #[inline(always)]
    pub(super) fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            Bin::Add => a.wrapping_add(b),
            Bin::Sub => a.wrapping_sub(b),
            Bin::Mul => a.wrapping_mul(b),
            Bin::Div if b == 0 => return None,
            Bin::Div => a.wrapping_div(b),
            Bin::Rem if b == 0 => return None,
            Bin::Rem => a.wrapping_rem(b),
            Bin::Min => a.min(b),
            Bin::Max => a.max(b),
            Bin::And => a & b,
            Bin::Or => a | b,
            Bin::Xor => a ^ b,
            Bin::Shl => a.wrapping_shl(b as u32 & 63),
            Bin::Shr => a.wrapping_shr(b as u32 & 63),
            Bin::Eq => (a == b) as i64,
            Bin::Ne => (a != b) as i64,
            Bin::Lt => (a < b) as i64,
            Bin::Le => (a <= b) as i64,
            Bin::Gt => (a > b) as i64,
            Bin::Ge => (a >= b) as i64,
        })
    }

    /// The comparison under which `<self>; Jz/Jnz` jumps: `self` for
    /// `Jnz`, its negation for `Jz`; `None` unless `self` compares.
    fn jump_test(self, jnz: bool) -> Option<Bin> {
        let (holds, fails) = match self {
            Bin::Eq => (Bin::Eq, Bin::Ne),
            Bin::Ne => (Bin::Ne, Bin::Eq),
            Bin::Lt => (Bin::Lt, Bin::Ge),
            Bin::Ge => (Bin::Ge, Bin::Lt),
            Bin::Le => (Bin::Le, Bin::Gt),
            Bin::Gt => (Bin::Gt, Bin::Le),
            _ => return None,
        };
        Some(if jnz { holds } else { fails })
    }
}

/// One lowered operation. Fields named `pc` are the index of the original
/// instruction a trap reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Op {
    Push(i64),
    Pop,
    Dup,
    Swap,
    Over,
    Neg,
    Abs,
    Not,
    Bin {
        op: Bin,
        pc: u32,
    },
    Load {
        pc: u32,
    },
    Store {
        pc: u32,
    },
    Input {
        pc: u32,
    },
    InputLen,
    Output {
        pc: u32,
    },
    /// `Push c; <binop>` where the binop cannot trap on `c`: `[a] → [a ⊕ c]`.
    BinConst {
        op: Bin,
        c: i64,
    },
    /// `Push addr; Load`: `[] → [mem[addr]]`.
    LoadVar {
        addr: u32,
    },
    /// `Push addr; Store`: `[v] → []`, `mem[addr] = v`.
    StoreVar {
        addr: u32,
    },
    /// `Push c; Push addr; Store`: `mem[addr] = c`.
    SetVar {
        addr: u32,
        c: i64,
    },
    /// `Push addr; Load; Push c; Add; Push addr; Store`: `mem[addr] += c`.
    AddVar {
        addr: u32,
        c: i64,
    },
    /// `Push addr; Load; Input; <binop>`: `[a] → [a ⊕ inputs[mem[addr]]]`.
    /// `pc` is the `Input`'s; the binop's is `pc + 1`.
    BinInputVar {
        op: Bin,
        addr: u32,
        pc: u32,
    },
    /// Continue at block `to`: an original `Jmp`, or falling into the next
    /// block.
    Jump {
        to: u32,
    },
    /// Original `Jz`/`Jnz`: pop `c`; continue at block `to` if
    /// `(c != 0) == nonzero`, else at the next block.
    Branch {
        nonzero: bool,
        to: u32,
    },
    /// `<cmp>; Jz/Jnz`: pop `b`, `a`; continue at block `to` if
    /// `a <cmp> b`, else at the next block. `cmp` is the jump's condition:
    /// the original comparison under `Jnz`, its negation under `Jz`, so
    /// the op tests no polarity at run time.
    CmpBranch {
        cmp: Bin,
        to: u32,
    },
    /// `Push addr; Load; InputLen; <cmp>; Jz/Jnz`: continue at block `to`
    /// if `mem[addr] <cmp> inputs.len()`, else at the next block; `cmp` as
    /// in [`Op::CmpBranch`].
    VarLenBranch {
        cmp: Bin,
        addr: u32,
        to: u32,
    },
    /// [`Op::AddVar`] followed by `Jmp`: `mem[addr] += c`, then continue
    /// at block `to`.
    AddVarJump {
        addr: u32,
        c: i32,
        to: u32,
    },
    /// Stop: an original `Halt`, or the end of the code.
    Halt,
}

// `AddVarJump` carries an `i32` step so that an op stays this size.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// One basic block: where it starts and what it costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Block {
    /// Index of the block's first original instruction, where a replay
    /// starts.
    pub pc: u32,
    /// Index of the block's first op in [`Lowered::ops`].
    pub op: u32,
    /// Gas of all the block's original instructions.
    pub gas: u32,
    /// Number of the block's original instructions.
    pub steps: u32,
}

/// A program lowered to blocks and ops; execution starts at block 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct Lowered {
    pub blocks: Vec<Block>,
    pub ops: Vec<Op>,
}

/// Lowers `code`, whose jump targets the verifier has already bounded by
/// `code.len()`. Addresses in `0..memory_words` are inside declared memory.
pub(super) fn lower(code: &[Instr], memory_words: u32) -> Lowered {
    let n = code.len();
    let mut starts_block = vec![false; n + 1];
    starts_block[0] = true;
    starts_block[n] = true; // the exit block
    for (pc, &instr) in code.iter().enumerate() {
        match instr {
            Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) => {
                starts_block[t as usize] = true;
                starts_block[pc + 1] = true;
            }
            Instr::Halt => starts_block[pc + 1] = true,
            _ => {}
        }
    }
    // Blocks are numbered in code order, so the block after a conditional
    // jump (its fall-through) is always the next number.
    let mut block_at = vec![u32::MAX; n + 1];
    let mut count = 0u32;
    for (pc, _) in starts_block.iter().enumerate().filter(|(_, &s)| s) {
        block_at[pc] = count;
        count += 1;
    }

    let mut lowered = Lowered {
        blocks: Vec::with_capacity(count as usize),
        ops: Vec::with_capacity(n + count as usize),
    };
    let mut start = 0;
    while start < n {
        let end = (start + 1..=n)
            .find(|&pc| starts_block[pc])
            .expect("code.len() starts the exit block");
        let body = &code[start..end];
        lowered.blocks.push(Block {
            pc: start as u32,
            op: lowered.ops.len() as u32,
            gas: body.iter().map(|&i| gas_cost(i) as u32).sum(),
            steps: body.len() as u32,
        });
        let next_block = lowered.blocks.len() as u32;
        let mut i = 0;
        while i < body.len() {
            let (op, len) = lower_one(&body[i..], start + i, memory_words, &block_at);
            lowered.ops.push(op);
            i += len;
        }
        if !matches!(
            lowered.ops.last(),
            Some(
                Op::Jump { .. }
                    | Op::Branch { .. }
                    | Op::CmpBranch { .. }
                    | Op::VarLenBranch { .. }
                    | Op::AddVarJump { .. }
                    | Op::Halt
            )
        ) {
            lowered.ops.push(Op::Jump { to: next_block });
        }
        start = end;
    }
    lowered.blocks.push(Block {
        pc: n as u32,
        op: lowered.ops.len() as u32,
        gas: 0,
        steps: 0,
    });
    lowered.ops.push(Op::Halt);
    lowered
}

/// Lowers the longest idiom at the head of `rest` (the remainder of one
/// block, starting at instruction `pc`); returns the op and how many
/// instructions it covers.
fn lower_one(rest: &[Instr], pc: usize, memory_words: u32, block_at: &[u32]) -> (Op, usize) {
    use Instr::*;
    // A constant address inside declared memory; such an access cannot trap.
    let var = |addr: i64| (0..i64::from(memory_words)).contains(&addr);
    let pc32 = pc as u32;
    // The comparison under which `<cmp>; Jz/Jnz` jumps.
    let test = |cmp: Instr, jump: Instr| Bin::of(cmp)?.jump_test(matches!(jump, Jnz(_)));
    let to = |t: u32| block_at[t as usize];
    match *rest {
        [Push(a), Load, Push(c), Add, Push(b), Store, Jmp(t), ..]
            if a == b && var(a) && i32::try_from(c).is_ok() =>
        {
            (
                Op::AddVarJump {
                    addr: a as u32,
                    c: i32::try_from(c).expect("guarded"),
                    to: to(t),
                },
                7,
            )
        }
        [Push(a), Load, Push(c), Add, Push(b), Store, ..] if a == b && var(a) => {
            (Op::AddVar { addr: a as u32, c }, 6)
        }
        [Push(a), Load, InputLen, cmp, jump @ (Jz(t) | Jnz(t)), ..]
            if var(a) && test(cmp, jump).is_some() =>
        {
            (
                Op::VarLenBranch {
                    cmp: test(cmp, jump).expect("guarded"),
                    addr: a as u32,
                    to: to(t),
                },
                5,
            )
        }
        // A zero input to `Div`/`Rem` traps at the binop's own pc, which
        // the op derives from the `Input`'s.
        [Push(a), Load, Input, next, ..] if var(a) && Bin::of(next).is_some() => (
            Op::BinInputVar {
                op: Bin::of(next).expect("guarded"),
                addr: a as u32,
                pc: pc32 + 2,
            },
            4,
        ),
        [Push(c), Push(a), Store, ..] if var(a) => (Op::SetVar { addr: a as u32, c }, 3),
        [Push(a), Load, ..] if var(a) => (Op::LoadVar { addr: a as u32 }, 2),
        [Push(a), Store, ..] if var(a) => (Op::StoreVar { addr: a as u32 }, 2),
        // `eval(_, c)` fails only for a zero divisor, which must stay a
        // runtime trap at the divide's own pc.
        [Push(c), next, ..] if Bin::of(next).is_some_and(|op| op.eval(0, c).is_some()) => {
            let op = Bin::of(next).expect("guarded");
            (Op::BinConst { op, c }, 2)
        }
        [cmp, jump @ (Jz(t) | Jnz(t)), ..] if test(cmp, jump).is_some() => (
            Op::CmpBranch {
                cmp: test(cmp, jump).expect("guarded"),
                to: to(t),
            },
            2,
        ),
        [instr, ..] => {
            let op = match instr {
                Push(c) => Op::Push(c),
                Pop => Op::Pop,
                Dup => Op::Dup,
                Swap => Op::Swap,
                Over => Op::Over,
                Neg => Op::Neg,
                Abs => Op::Abs,
                Not => Op::Not,
                Load => Op::Load { pc: pc32 },
                Store => Op::Store { pc: pc32 },
                Input => Op::Input { pc: pc32 },
                InputLen => Op::InputLen,
                Output => Op::Output { pc: pc32 },
                Jmp(t) => Op::Jump { to: to(t) },
                Jz(t) | Jnz(t) => Op::Branch {
                    nonzero: matches!(instr, Jnz(_)),
                    to: to(t),
                },
                Halt => Op::Halt,
                _ => Op::Bin {
                    op: Bin::of(instr).expect("every other instruction is a binary operation"),
                    pc: pc32,
                },
            };
            (op, 1)
        }
        [] => unreachable!("blocks are never empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    /// The block that holds op `i`.
    fn block_of(blocks: &[Block], i: usize) -> usize {
        blocks.partition_point(|b| b.op as usize <= i) - 1
    }

    #[test]
    fn burn_and_echo_inner_loop_lowers_to_six_ops() {
        const FNV_PRIME: i64 = 0x100000001b3;
        let kernel = library::burn_and_echo(150);
        let Lowered { blocks, ops } = kernel.lowered();
        // Block 2 is the inner loop's test (instructions 8..=12), block 3
        // its body and latch (13..=29), block 4 the outer latch.
        assert_eq!((blocks[2].pc, blocks[3].pc, blocks[4].pc), (8, 13, 30));
        let inner = &ops[blocks[2].op as usize..blocks[4].op as usize];
        assert_eq!(
            inner,
            [
                Op::VarLenBranch {
                    cmp: Bin::Ge,
                    addr: 1,
                    to: 4,
                },
                Op::LoadVar { addr: 2 },
                Op::BinInputVar {
                    op: Bin::Xor,
                    addr: 1,
                    pc: 17,
                },
                // The FNV prime is outside `i32`; its multiply stays short.
                Op::BinConst {
                    op: Bin::Mul,
                    c: FNV_PRIME,
                },
                Op::StoreVar { addr: 2 },
                Op::AddVarJump {
                    addr: 1,
                    c: 1,
                    to: 2,
                },
            ]
        );
    }

    #[test]
    fn burn_and_echo_word_loop_tests_are_one_op() {
        let kernel = library::burn_and_echo(150);
        let Lowered { blocks, ops } = kernel.lowered();
        // A loop's test block is the target of a backward jump.
        let mut tests: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match *op {
                Op::Jump { to } | Op::AddVarJump { to, .. }
                    if to as usize <= block_of(blocks, i) =>
                {
                    Some(to as usize)
                }
                _ => None,
            })
            .collect();
        tests.sort_unstable();
        tests.dedup();
        // The round loop (block 0) tests once a round; the hash loop
        // (block 2) and the echo loop (block 6) test once per input word.
        assert_eq!(tests, [0, 2, 6]);
        for b in [2, 6] {
            let test = &ops[blocks[b].op as usize..blocks[b + 1].op as usize];
            assert!(
                matches!(test, [Op::VarLenBranch { addr: 1, .. }]),
                "the loop test at block {b} lowers to {test:?}"
            );
        }
    }
}
