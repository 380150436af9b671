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
//!   [`Op::CmpBranch`] or [`Op::Halt`]); jumps name blocks, not
//!   instruction indices. A jump to `code.len()` names the empty exit
//!   block, the last one.
//! * **Superinstructions** for the assembler's own idioms: `load_var`,
//!   `store_var`, `set_var` and `incr_var` on a constant address inside
//!   declared memory, `Push c; <binop>`, and `<cmp>; Jz/Jnz`. A pattern is
//!   fused only inside one block, so a jump into its middle splits it.
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

    fn is_comparison(self) -> bool {
        matches!(
            self,
            Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge
        )
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
    /// `<cmp>; Jz/Jnz`: pop `b`, `a`; branch on `a <cmp> b` as
    /// [`Op::Branch`] does on `c`.
    CmpBranch {
        cmp: Bin,
        nonzero: bool,
        to: u32,
    },
    /// Stop: an original `Halt`, or the end of the code.
    Halt,
}

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
            Some(Op::Jump { .. } | Op::Branch { .. } | Op::CmpBranch { .. } | Op::Halt)
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
    match *rest {
        [Push(a), Load, Push(c), Add, Push(b), Store, ..] if a == b && var(a) => {
            (Op::AddVar { addr: a as u32, c }, 6)
        }
        [Push(c), Push(a), Store, ..] if var(a) => (Op::SetVar { addr: a as u32, c }, 3),
        [Push(a), Load, ..] if var(a) => (Op::LoadVar { addr: a as u32 }, 2),
        [Push(a), Store, ..] if var(a) => (Op::StoreVar { addr: a as u32 }, 2),
        // `eval(_, c)` fails only for a zero divisor, which must stay a
        // runtime trap at the divide's own pc.
        [Push(c), next, ..] if Bin::of(next).is_some_and(|op| op.eval(0, c).is_some()) => {
            let op = Bin::of(next).expect("guarded");
            (Op::BinConst { op, c }, 2)
        }
        [cmp, Jz(t) | Jnz(t), ..] if Bin::of(cmp).is_some_and(Bin::is_comparison) => (
            Op::CmpBranch {
                cmp: Bin::of(cmp).expect("guarded"),
                nonzero: matches!(rest[1], Jnz(_)),
                to: block_at[t as usize],
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
                Jmp(t) => Op::Jump {
                    to: block_at[t as usize],
                },
                Jz(t) | Jnz(t) => Op::Branch {
                    nonzero: matches!(instr, Jnz(_)),
                    to: block_at[t as usize],
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
