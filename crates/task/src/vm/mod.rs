//! TaskVM: the portable execution substrate for offloaded tasks.
//!
//! TaskVM is a stack machine over `i64` words with a bounded word-addressed
//! memory, explicit inputs/outputs and deterministic gas metering. Programs
//! are [verified](verify()) before execution — verification proves stack
//! safety and jump validity once, so the interpreter's per-step work stays
//! small and a malicious task cannot corrupt the host.
//!
//! Verification also lowers the program, once, into basic blocks of
//! pre-decoded ops with fused superinstructions. The interpreter meters gas
//! per block rather than per instruction, and replays a block one
//! instruction at a time when it would cross the gas limit, so outputs,
//! gas, step counts and traps are exactly those of a per-instruction
//! interpreter.
//!
//! The module split mirrors the lifecycle:
//! [`isa`] (what programs are) → [`asm`] (how they are written) →
//! [`verify`](verify()) (what a receiving node checks, and the lowering it
//! builds) → [`exec`] (how they run).

pub mod asm;
#[cfg(test)]
mod differential;
pub mod exec;
pub mod isa;
mod lower;
pub mod verify;

pub use asm::{AsmError, Assembler, Label};
pub use exec::{execute, ExecLimits, Execution, Trap};
pub use isa::{gas_cost, Instr, Program, MAX_CODE_LEN, MAX_MEMORY_WORDS, MAX_STACK};
pub use verify::{verify, VerifiedProgram, VerifyError};
