//! The TaskVM interpreter: gas-metered execution of verified programs.
//!
//! Execution is fully deterministic: the same program, inputs and limits
//! produce the same outputs and gas usage on any node — which is what lets
//! AirDnD verify results by redundant execution (RQ3).
//!
//! [`execute`] runs the program's lowered form (see [`VerifiedProgram`]):
//! it charges a whole basic block's gas and instruction count on entry,
//! then runs the block's ops without touching the meter. The result is
//! still exactly what a per-instruction meter gives, for every program and
//! limit:
//!
//! * A block that fits the remaining gas cannot run out of gas anywhere
//!   inside it. It either runs to its last instruction (a `Halt` always is
//!   one) or stops at a trap, and a trap reports no gas or steps. The
//!   other traps depend only on runtime values, which the ops check as the
//!   instructions would, at the instruction's own `pc`.
//! * A block that would cross `max_gas` is replayed from its first
//!   instruction one original instruction at a time, from the identical
//!   state, by the per-instruction reference semantics. The replay charges
//!   each instruction before running it, so `OutOfGas`, or an earlier trap
//!   or `Halt`, happens exactly where the reference puts it.
//!
//! Both paths share one set of machine helpers for every value-dependent
//! check: memory addresses, input indices, divisors and the output limit.

use super::isa::{gas_cost, Instr};
use super::lower::{Bin, Lowered, Op};
use super::verify::VerifiedProgram;
use std::error::Error;
use std::fmt;

/// Runtime resource limits for one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum gas; execution traps with [`Trap::OutOfGas`] beyond it.
    pub max_gas: u64,
    /// Maximum output words a program may emit.
    pub max_outputs: usize,
}

impl Default for ExecLimits {
    /// 10 M gas and 64 Ki output words — generous for perception kernels.
    fn default() -> Self {
        ExecLimits {
            max_gas: 10_000_000,
            max_outputs: 65_536,
        }
    }
}

/// A successful execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Execution {
    /// The program's output stream.
    pub outputs: Vec<i64>,
    /// Gas consumed.
    pub gas_used: u64,
    /// Instructions executed.
    pub steps: u64,
}

/// A runtime failure. Traps abort the execution; no partial outputs are
/// returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// The gas limit was exhausted.
    OutOfGas {
        /// The configured limit.
        limit: u64,
    },
    /// Division or remainder by zero.
    DivByZero {
        /// Instruction index.
        pc: usize,
    },
    /// Memory access outside the declared region.
    MemOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// The offending address.
        addr: i64,
    },
    /// Input index outside the provided inputs.
    InputOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// The offending index.
        index: i64,
    },
    /// The program emitted more than `max_outputs` words.
    OutputLimit {
        /// Instruction index.
        pc: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfGas { limit } => write!(f, "out of gas (limit {limit})"),
            Trap::DivByZero { pc } => write!(f, "division by zero at {pc}"),
            Trap::MemOutOfBounds { pc, addr } => {
                write!(f, "memory access {addr} out of bounds at {pc}")
            }
            Trap::InputOutOfBounds { pc, index } => {
                write!(f, "input index {index} out of bounds at {pc}")
            }
            Trap::OutputLimit { pc } => write!(f, "output limit exceeded at {pc}"),
        }
    }
}

impl Error for Trap {}

/// Executes a verified program against `inputs`.
///
/// Runs the program's lowered blocks, charging each block's gas and steps
/// on entry. A block that would cross `limits.max_gas` is instead replayed
/// one original instruction at a time from its first instruction, so the
/// trap lands exactly where a per-instruction meter would put it.
///
/// # Errors
///
/// Returns a [`Trap`] on any runtime failure; see the trap variants.
pub fn execute(
    program: &VerifiedProgram,
    inputs: &[i64],
    limits: ExecLimits,
) -> Result<Execution, Trap> {
    let Lowered { blocks, ops } = program.lowered();
    let mut m = Machine::new(program, inputs, limits);
    let mut block = 0usize;
    loop {
        let entry = blocks[block];
        // `m.gas <= max_gas` always holds, so the subtraction cannot wrap.
        if u64::from(entry.gas) > limits.max_gas - m.gas {
            return m.run_from(program.program().code(), entry.pc as usize);
        }
        m.gas += u64::from(entry.gas);
        m.steps += u64::from(entry.steps);
        let mut next = ops[entry.op as usize..].iter().copied();
        block = loop {
            let Some(op) = next.next() else {
                unreachable!("every block ends in a control op")
            };
            match op {
                Op::Push(c) => m.push(c),
                Op::Pop => {
                    m.pop();
                }
                Op::Dup => m.dup(),
                Op::Swap => m.swap(),
                Op::Over => m.over(),
                Op::Neg => m.unary(i64::wrapping_neg),
                Op::Abs => m.unary(i64::wrapping_abs),
                Op::Not => m.unary(|a| !a),
                Op::Bin { op, pc } => m.binary(op, pc as usize)?,
                Op::Load { pc } => m.load(pc as usize)?,
                Op::Store { pc } => m.store(pc as usize)?,
                Op::Input { pc } => m.input(pc as usize)?,
                Op::InputLen => m.push(inputs.len() as i64),
                Op::Output { pc } => m.output(pc as usize)?,
                Op::BinConst { op, c } => {
                    let top = m.top();
                    *top = op.eval(*top, c).expect("lowering fuses no zero divisor");
                }
                Op::LoadVar { addr } => m.push(m.memory[addr as usize]),
                Op::StoreVar { addr } => {
                    let v = m.pop();
                    m.memory[addr as usize] = v;
                }
                Op::SetVar { addr, c } => m.memory[addr as usize] = c,
                Op::AddVar { addr, c } => m.add_var(addr, c),
                Op::BinInputVar { op, addr, pc } => {
                    let v = m.input_at(m.memory[addr as usize], pc as usize)?;
                    let top = m.top();
                    *top = op.eval(*top, v).ok_or(Trap::DivByZero {
                        pc: pc as usize + 1,
                    })?;
                }
                Op::Jump { to } => break to as usize,
                Op::Branch { nonzero, to } => {
                    break branch((m.pop() != 0) == nonzero, to, block);
                }
                Op::CmpBranch { cmp, to } => {
                    let b = m.pop();
                    let a = m.pop();
                    break branch(compare(cmp, a, b), to, block);
                }
                Op::VarLenBranch { cmp, addr, to } => {
                    let a = m.memory[addr as usize];
                    break branch(compare(cmp, a, inputs.len() as i64), to, block);
                }
                Op::AddVarJump { addr, c, to } => {
                    m.add_var(addr, i64::from(c));
                    break to as usize;
                }
                Op::Halt => return Ok(m.finish()),
            }
        };
    }
}

/// The block a branch from `block` continues at: `to` if taken, else the
/// next block.
#[inline(always)]
fn branch(taken: bool, to: u32, block: usize) -> usize {
    if taken {
        to as usize
    } else {
        block + 1
    }
}

/// `a <cmp> b` as a truth value.
#[inline(always)]
fn compare(cmp: Bin, a: i64, b: i64) -> bool {
    cmp.eval(a, b).expect("comparisons never trap") != 0
}

/// Executes one original instruction at a time from the start: the
/// reference the lowered interpreter must match exactly.
#[cfg(test)]
pub(super) fn execute_stepwise(
    program: &VerifiedProgram,
    inputs: &[i64],
    limits: ExecLimits,
) -> Result<Execution, Trap> {
    Machine::new(program, inputs, limits).run_from(program.program().code(), 0)
}

/// Interpreter state shared by the block loop and [`Machine::step`]. Both
/// go through the same helpers, so an op and the instructions it stands
/// for compute the same values and traps.
struct Machine<'a> {
    /// The operand stack is `stack[..sp]`; its length is the proven
    /// maximum height, so it never grows.
    stack: Vec<i64>,
    sp: usize,
    memory: Vec<i64>,
    inputs: &'a [i64],
    outputs: Vec<i64>,
    limits: ExecLimits,
    gas: u64,
    steps: u64,
}

// The helpers are forced inline: the block loop only keeps the machine in
// registers when none of its fields escapes into a call.
impl<'a> Machine<'a> {
    fn new(program: &VerifiedProgram, inputs: &'a [i64], limits: ExecLimits) -> Self {
        Machine {
            stack: vec![0; program.max_stack() as usize],
            sp: 0,
            memory: vec![0; program.program().memory_words() as usize],
            inputs,
            outputs: Vec::new(),
            limits,
            gas: 0,
            steps: 0,
        }
    }

    fn finish(self) -> Execution {
        Execution {
            outputs: self.outputs,
            gas_used: self.gas,
            steps: self.steps,
        }
    }

    // Stack accesses need no checks of their own: the verifier proved
    // every height, so `sp` stays within `0..=stack.len()`.
    #[inline(always)]
    fn push(&mut self, v: i64) {
        self.stack[self.sp] = v;
        self.sp += 1;
    }

    #[inline(always)]
    fn pop(&mut self) -> i64 {
        self.sp -= 1;
        self.stack[self.sp]
    }

    #[inline(always)]
    fn top(&mut self) -> &mut i64 {
        &mut self.stack[self.sp - 1]
    }

    #[inline(always)]
    fn dup(&mut self) {
        let a = *self.top();
        self.push(a);
    }

    #[inline(always)]
    fn swap(&mut self) {
        self.stack.swap(self.sp - 1, self.sp - 2);
    }

    #[inline(always)]
    fn over(&mut self) {
        let a = self.stack[self.sp - 2];
        self.push(a);
    }

    #[inline(always)]
    fn unary(&mut self, f: impl FnOnce(i64) -> i64) {
        let top = self.top();
        *top = f(*top);
    }

    #[inline(always)]
    fn binary(&mut self, op: Bin, pc: usize) -> Result<(), Trap> {
        let b = self.pop();
        let top = self.top();
        *top = op.eval(*top, b).ok_or(Trap::DivByZero { pc })?;
        Ok(())
    }

    #[inline(always)]
    fn load(&mut self, pc: usize) -> Result<(), Trap> {
        let addr = self.pop();
        let Some(&v) = usize::try_from(addr).ok().and_then(|a| self.memory.get(a)) else {
            return Err(Trap::MemOutOfBounds { pc, addr });
        };
        self.push(v);
        Ok(())
    }

    #[inline(always)]
    fn store(&mut self, pc: usize) -> Result<(), Trap> {
        let addr = self.pop();
        let value = self.pop();
        let Some(slot) = usize::try_from(addr)
            .ok()
            .and_then(|a| self.memory.get_mut(a))
        else {
            return Err(Trap::MemOutOfBounds { pc, addr });
        };
        *slot = value;
        Ok(())
    }

    /// `inputs[index]`, or the trap an `Input` at `pc` raises.
    #[inline(always)]
    fn input_at(&self, index: i64, pc: usize) -> Result<i64, Trap> {
        match usize::try_from(index).ok().and_then(|i| self.inputs.get(i)) {
            Some(&v) => Ok(v),
            None => Err(Trap::InputOutOfBounds { pc, index }),
        }
    }

    #[inline(always)]
    fn input(&mut self, pc: usize) -> Result<(), Trap> {
        let index = self.pop();
        let v = self.input_at(index, pc)?;
        self.push(v);
        Ok(())
    }

    /// `mem[addr] += c` at an address the lowering proved in bounds.
    #[inline(always)]
    fn add_var(&mut self, addr: u32, c: i64) {
        let slot = &mut self.memory[addr as usize];
        *slot = slot.wrapping_add(c);
    }

    #[inline(always)]
    fn output(&mut self, pc: usize) -> Result<(), Trap> {
        let v = self.pop();
        if self.outputs.len() >= self.limits.max_outputs {
            return Err(Trap::OutputLimit { pc });
        }
        self.outputs.push(v);
        Ok(())
    }

    /// Charges, counts and executes the original instruction `code[pc]`;
    /// returns the next `pc`, or `None` once the program halts.
    fn step(&mut self, code: &[Instr], pc: usize) -> Result<Option<usize>, Trap> {
        let instr = code[pc];
        self.gas += gas_cost(instr);
        if self.gas > self.limits.max_gas {
            return Err(Trap::OutOfGas {
                limit: self.limits.max_gas,
            });
        }
        self.steps += 1;
        match instr {
            Instr::Push(c) => self.push(c),
            Instr::Pop => {
                self.pop();
            }
            Instr::Dup => self.dup(),
            Instr::Swap => self.swap(),
            Instr::Over => self.over(),
            Instr::Neg => self.unary(i64::wrapping_neg),
            Instr::Abs => self.unary(i64::wrapping_abs),
            Instr::Not => self.unary(|a| !a),
            Instr::Jmp(t) => return Ok(Some(t as usize)),
            Instr::Jz(t) | Instr::Jnz(t) => {
                if (self.pop() != 0) == matches!(instr, Instr::Jnz(_)) {
                    return Ok(Some(t as usize));
                }
            }
            Instr::Load => self.load(pc)?,
            Instr::Store => self.store(pc)?,
            Instr::Input => self.input(pc)?,
            Instr::InputLen => self.push(self.inputs.len() as i64),
            Instr::Output => self.output(pc)?,
            Instr::Halt => return Ok(None),
            _ => {
                let op = Bin::of(instr).expect("every other instruction is a binary operation");
                self.binary(op, pc)?;
            }
        }
        Ok(Some(pc + 1))
    }

    /// Runs original instructions one at a time from `pc` until the
    /// program halts or traps.
    fn run_from(mut self, code: &[Instr], mut pc: usize) -> Result<Execution, Trap> {
        while pc < code.len() {
            match self.step(code, pc)? {
                Some(next) => pc = next,
                None => break,
            }
        }
        Ok(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::isa::{Instr::*, Program};
    use crate::vm::verify::verify;

    fn run(code: Vec<Instr>, mem: u32, inputs: &[i64]) -> Result<Execution, Trap> {
        let v = verify(Program::new(code, mem)).expect("test programs verify");
        execute(&v, inputs, ExecLimits::default())
    }

    #[test]
    fn arithmetic_basics() {
        let out = run(vec![Push(7), Push(5), Sub, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![2]);
        let out = run(vec![Push(7), Push(5), Mul, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![35]);
        let out = run(vec![Push(-7), Abs, Output, Push(3), Neg, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![7, -3]);
        let out = run(
            vec![Push(9), Push(4), Div, Output, Push(9), Push(4), Rem, Output],
            0,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![2, 1]);
    }

    #[test]
    fn comparisons_and_logic() {
        let out = run(
            vec![
                Push(3),
                Push(5),
                Lt,
                Output,
                Push(3),
                Push(5),
                Ge,
                Output,
                Push(0b1100),
                Push(0b1010),
                And,
                Output,
                Push(0b1100),
                Push(0b1010),
                Xor,
                Output,
                Push(1),
                Push(3),
                Shl,
                Output,
            ],
            0,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![1, 0, 0b1000, 0b0110, 8]);
    }

    #[test]
    fn stack_shuffles() {
        let out = run(vec![Push(1), Push(2), Swap, Output, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1, 2]);
        let out = run(vec![Push(1), Push(2), Over, Output, Output, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1, 2, 1]);
    }

    #[test]
    fn memory_round_trip() {
        let out = run(
            vec![
                Push(42),
                Push(3),
                Store,
                Push(3),
                Load,
                Output,
                Push(0),
                Load,
                Output,
            ],
            8,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![42, 0], "memory is zero-initialized");
    }

    #[test]
    fn inputs_are_readable() {
        let out = run(
            vec![
                InputLen,
                Output,
                Push(0),
                Input,
                Push(2),
                Input,
                Add,
                Output,
            ],
            0,
            &[10, 20, 30],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![3, 40]);
    }

    #[test]
    fn loop_sums_inputs() {
        // acc lives in mem[0], i in mem[1]; while i < len: acc += input[i].
        let code = vec![
            Push(1),
            Load,
            InputLen,
            Ge,
            Jnz(20), // 0..=4   exit when i >= len
            Push(0),
            Load,
            Push(1),
            Load,
            Input,
            Add,
            Push(0),
            Store, // 5..=12  acc += input[i]
            Push(1),
            Load,
            Push(1),
            Add,
            Push(1),
            Store,  // 13..=18  i += 1
            Jmp(0), // 19
            Push(0),
            Load,
            Output, // 20..=22  emit acc
        ];
        let out = run(code, 2, &[5, 6, 7, 8]).unwrap();
        assert_eq!(out.outputs, vec![26]);
    }

    #[test]
    fn div_by_zero_traps() {
        assert_eq!(
            run(vec![Push(1), Push(0), Div, Output], 0, &[]),
            Err(Trap::DivByZero { pc: 2 })
        );
        assert_eq!(
            run(vec![Push(1), Push(0), Rem, Output], 0, &[]),
            Err(Trap::DivByZero { pc: 2 })
        );
    }

    #[test]
    fn memory_bounds_trap() {
        let r = run(vec![Push(99), Load, Output], 8, &[]);
        assert_eq!(r, Err(Trap::MemOutOfBounds { pc: 1, addr: 99 }));
        let r = run(vec![Push(1), Push(-1), Store], 8, &[]);
        assert_eq!(r, Err(Trap::MemOutOfBounds { pc: 2, addr: -1 }));
    }

    #[test]
    fn input_bounds_trap() {
        let r = run(vec![Push(5), Input, Output], 0, &[1, 2]);
        assert_eq!(r, Err(Trap::InputOutOfBounds { pc: 1, index: 5 }));
        let r = run(vec![Push(-1), Input, Output], 0, &[1, 2]);
        assert_eq!(r, Err(Trap::InputOutOfBounds { pc: 1, index: -1 }));
    }

    #[test]
    fn gas_limit_stops_infinite_loop() {
        let v = verify(Program::new(vec![Jmp(0)], 0)).unwrap();
        let r = execute(
            &v,
            &[],
            ExecLimits {
                max_gas: 1_000,
                max_outputs: 16,
            },
        );
        assert_eq!(r, Err(Trap::OutOfGas { limit: 1_000 }));
    }

    #[test]
    fn output_limit_enforced() {
        let code = vec![Push(1), Output, Jmp(0)];
        let v = verify(Program::new(code, 0)).unwrap();
        let r = execute(
            &v,
            &[],
            ExecLimits {
                max_gas: 1_000_000,
                max_outputs: 3,
            },
        );
        assert_eq!(r, Err(Trap::OutputLimit { pc: 1 }));
    }

    #[test]
    fn gas_accounting_matches_costs() {
        let out = run(vec![Push(2), Push(3), Mul, Output], 0, &[]).unwrap();
        // push(1) + push(1) + mul(4) + output(2) = 8
        assert_eq!(out.gas_used, 8);
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn falling_off_the_end_halts_cleanly() {
        let out = run(vec![Push(1), Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1]);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        let out = run(vec![Push(i64::MAX), Push(1), Add, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
        let out = run(vec![Push(i64::MIN), Neg, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
        let out = run(vec![Push(i64::MIN), Push(-1), Div, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
    }

    #[test]
    fn determinism() {
        let code = vec![Push(0), Input, Push(1), Input, Mul, Output];
        let a = run(code.clone(), 0, &[123, 456]).unwrap();
        let b = run(code, 0, &[123, 456]).unwrap();
        assert_eq!(a, b);
    }
}
