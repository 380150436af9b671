//! # airdnd-task — Model 2: the Task Description
//!
//! The paper's Model 2 demands a task representation that is "formal and
//! abstract in a way that it could work on the receiving node". Opaque
//! closures cannot be shipped between heterogeneous nodes, so this crate
//! makes offloading *real*: tasks are programs for **TaskVM**, a small
//! verified, gas-metered stack machine. A receiving node can
//!
//! 1. statically [`verify`](vm::verify()) the program (type/stack safety,
//!    bounded memory, valid jumps) — the feasibility half of RQ3,
//! 2. bound its cost via the declared [`ResourceRequirements`] and the gas
//!    meter, and
//! 3. [`execute`](vm::execute) it against locally held data without
//!    trusting the sender.
//!
//! The crate also provides:
//!
//! * [`spec`] — declarative task metadata: resource requirements, deadline,
//!   priority and the Model-3 [`DataQuery`](airdnd_data::DataQuery) inputs,
//! * [`vm`] — ISA, assembler, verifier (which also lowers each program
//!   once into basic blocks of pre-decoded ops) and the block-metered
//!   interpreter,
//! * [`library`] — ready-made perception kernels (occupancy-grid fusion,
//!   detection thresholding, matrix multiply, checksums) used by examples
//!   and benchmarks,
//! * [`wire`] — a checksummed binary wire format for programs and specs.
//!
//! ## Example
//!
//! ```
//! use airdnd_task::vm::{execute, ExecLimits};
//! use airdnd_task::library;
//!
//! // Fuse two 4-cell occupancy grids on the "receiving node".
//! let program = library::grid_fuse(4);
//! let inputs = [1, 0, 5, 0, /* grid B */ 0, 2, 3, 9];
//! let out = execute(&program, &inputs, ExecLimits::default())?;
//! assert_eq!(out.outputs, vec![1, 2, 5, 9]);
//! # Ok::<(), airdnd_task::vm::Trap>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod library;
pub mod spec;
pub mod vm;
pub mod wire;

pub use spec::{Priority, ResourceRequirements, TaskId, TaskSpec};
pub use vm::{Instr, Program, VerifiedProgram};
