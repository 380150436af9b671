//! The TaskVM instruction set and program container.
//!
//! A deliberately small ISA: stack manipulation, two's-complement `i64`
//! arithmetic, comparisons, absolute jumps, word-addressed memory, and
//! explicit input/output channels. Everything a perception kernel needs,
//! nothing that could touch the host.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum instructions per program.
pub const MAX_CODE_LEN: usize = 65_536;
/// Maximum memory words a program may declare (8 MiB).
pub const MAX_MEMORY_WORDS: u32 = 1 << 20;
/// Maximum operand-stack depth.
pub const MAX_STACK: usize = 1_024;

/// One TaskVM instruction.
///
/// Stack effects are written `[before] → [after]` with the top of stack on
/// the right.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// `[] → [c]` — push a constant.
    Push(i64),
    /// `[a] → []`.
    Pop,
    /// `[a] → [a, a]`.
    Dup,
    /// `[a, b] → [b, a]`.
    Swap,
    /// `[a, b] → [a, b, a]`.
    Over,

    /// `[a, b] → [a + b]` (wrapping).
    Add,
    /// `[a, b] → [a − b]` (wrapping).
    Sub,
    /// `[a, b] → [a × b]` (wrapping).
    Mul,
    /// `[a, b] → [a ÷ b]`; traps on division by zero.
    Div,
    /// `[a, b] → [a mod b]`; traps on division by zero.
    Rem,
    /// `[a] → [−a]` (wrapping).
    Neg,
    /// `[a] → [|a|]` (wrapping).
    Abs,
    /// `[a, b] → [min(a, b)]`.
    Min,
    /// `[a, b] → [max(a, b)]`.
    Max,

    /// `[a, b] → [a & b]`.
    And,
    /// `[a, b] → [a | b]`.
    Or,
    /// `[a, b] → [a ^ b]`.
    Xor,
    /// `[a] → [!a]` (bitwise).
    Not,
    /// `[a, s] → [a << (s & 63)]`.
    Shl,
    /// `[a, s] → [a >> (s & 63)]` (arithmetic).
    Shr,

    /// `[a, b] → [a == b]` (1/0).
    Eq,
    /// `[a, b] → [a != b]`.
    Ne,
    /// `[a, b] → [a < b]`.
    Lt,
    /// `[a, b] → [a <= b]`.
    Le,
    /// `[a, b] → [a > b]`.
    Gt,
    /// `[a, b] → [a >= b]`.
    Ge,

    /// `[] → []` — jump to instruction index.
    Jmp(u32),
    /// `[c] → []` — jump if `c == 0`.
    Jz(u32),
    /// `[c] → []` — jump if `c != 0`.
    Jnz(u32),

    /// `[addr] → [mem[addr]]`; traps out of bounds.
    Load,
    /// `[value, addr] → []` — `mem[addr] = value`; traps out of bounds.
    Store,

    /// `[i] → [inputs[i]]`; traps out of bounds.
    Input,
    /// `[] → [inputs.len()]`.
    InputLen,
    /// `[v] → []` — append `v` to the output stream.
    Output,

    /// Stop successfully.
    Halt,
}

impl Instr {
    /// `(pops, pushes)` stack effect, used by the verifier.
    pub const fn stack_effect(self) -> (u32, u32) {
        use Instr::*;
        match self {
            Push(_) => (0, 1),
            Pop => (1, 0),
            Dup => (1, 2),
            Swap => (2, 2),
            Over => (2, 3),
            Add | Sub | Mul | Div | Rem | Min | Max | And | Or | Xor | Shl | Shr => (2, 1),
            Neg | Abs | Not => (1, 1),
            Eq | Ne | Lt | Le | Gt | Ge => (2, 1),
            Jmp(_) => (0, 0),
            Jz(_) | Jnz(_) => (1, 0),
            Load => (1, 1),
            Store => (2, 0),
            Input => (1, 1),
            InputLen => (0, 1),
            Output => (1, 0),
            Halt => (0, 0),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Push(c) => write!(f, "push {c}"),
            Instr::Jmp(t) => write!(f, "jmp @{t}"),
            Instr::Jz(t) => write!(f, "jz @{t}"),
            Instr::Jnz(t) => write!(f, "jnz @{t}"),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

/// Gas charged per instruction. Memory and I/O cost more than pure stack
/// work; multiplication/division cost more than addition — coarse but
/// monotone with real cost, which is all the scheduling experiments need.
pub const fn gas_cost(instr: Instr) -> u64 {
    use Instr::*;
    match instr {
        Mul | Div | Rem => 4,
        Load | Store => 3,
        Input | InputLen | Output => 2,
        Halt => 0,
        _ => 1,
    }
}

/// An unverified TaskVM program: code plus a declared memory size.
///
/// Run [`crate::vm::verify`](crate::vm::verify()) to obtain a [`crate::vm::VerifiedProgram`]
/// before execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    code: Vec<Instr>,
    memory_words: u32,
}

impl Program {
    /// Creates a program. Limits are checked by the verifier, not here, so
    /// that malformed wire data can still be represented and rejected with
    /// a proper error.
    pub fn new(code: Vec<Instr>, memory_words: u32) -> Self {
        Program { code, memory_words }
    }

    /// The instruction sequence.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Declared memory size in 8-byte words.
    pub fn memory_words(&self) -> u32 {
        self.memory_words
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_effects_are_consistent_with_docs() {
        assert_eq!(Instr::Push(1).stack_effect(), (0, 1));
        assert_eq!(Instr::Store.stack_effect(), (2, 0));
        assert_eq!(Instr::Over.stack_effect(), (2, 3));
        assert_eq!(Instr::Halt.stack_effect(), (0, 0));
    }

    #[test]
    fn gas_ordering() {
        assert!(gas_cost(Instr::Mul) > gas_cost(Instr::Add));
        assert!(gas_cost(Instr::Load) > gas_cost(Instr::Add));
        assert_eq!(gas_cost(Instr::Halt), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Instr::Push(-3).to_string(), "push -3");
        assert_eq!(Instr::Jz(7).to_string(), "jz @7");
        assert_eq!(Instr::Add.to_string(), "add");
    }
}
