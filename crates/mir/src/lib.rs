//! # gallium-mir — the middlebox intermediate representation
//!
//! The paper runs Clang on C++/Click middlebox sources and performs all of
//! its analyses "on LLVM Intermediate Representation … because LLVM's syntax
//! is simpler than C++" and "LLVM IR itself is in a Static Single Assignment
//! (SSA) form" (§5). This crate is the equivalent substrate for the Rust
//! reproduction: a small SSA IR whose instruction inventory is exactly the
//! vocabulary the paper's passes consume after inlining —
//!
//! * ALU operations (add, sub, bitwise ops, shifts, comparisons — plus the
//!   deliberately *unsupported* mul/div/mod, which force statements onto the
//!   middlebox server just as they do in the paper's MiniLB example),
//! * packet-header reads/writes and payload inspection,
//! * abstract-data-structure calls: `HashMap::find/insert/remove`,
//!   `Vector::operator[]`, `Vector::size()` — the two Click structures the
//!   paper supports (§7) — and registers with a fused fetch-add (the NAT's
//!   port-allocation counter, which Tofino's stateful ALU executes as a
//!   single table access),
//! * control flow (branches, loops, φ-nodes) and packet actions
//!   (send/drop).
//!
//! Alongside the IR live:
//!
//! * a [`builder::FuncBuilder`] used by the Click-element frontend,
//! * a structural + SSA [`validate`] pass,
//! * a [`printer`]/[`parser`] pair for a stable textual form,
//! * a reference [`interp`]reter — the functional-equivalence oracle that
//!   plays the role of the unmodified input middlebox in every experiment,
//! * a runtime [`state::StateStore`] holding the global maps / vectors /
//!   registers a middlebox keeps across packets,
//! * the [`lpm::LpmIndex`] serving longest-prefix-match tables (shared with
//!   the switch simulator) and the [`fasthash`] hasher behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod fasthash;
pub mod func;
pub mod inst;
pub mod interp;
pub mod lpm;
pub mod parser;
pub mod printer;
pub mod state;
pub mod types;
pub mod validate;

pub use builder::FuncBuilder;
pub use func::{BasicBlock, BlockId, Function, Program, Terminator, ValueId};
pub use inst::{BinOp, HeaderField, Inst, Loc, Op};
pub use interp::{ExecResult, Interpreter, PacketAction, RegFile, RtVal, StateMutation};
pub use lpm::LpmIndex;
pub use state::{GlobalState, StateId, StateKind, StateStore};
pub use types::Ty;

/// Errors raised while constructing, validating, parsing, or executing MIR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirError {
    /// A ValueId/BlockId/StateId referred to an entity that does not exist.
    DanglingRef(String),
    /// SSA or type discipline violated; the string names the rule.
    Invalid(String),
    /// The textual parser rejected the input.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token within that line.
        col: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The builder was driven through an ill-typed or ill-formed sequence.
    Build {
        /// Index of the instruction at (or just after) which the mistake
        /// occurred — the builder's equivalent of a source span.
        inst: u32,
        /// Human-readable description.
        msg: String,
    },
    /// The interpreter exceeded its step budget (runaway loop).
    StepBudgetExceeded,
    /// The interpreter hit a dynamic fault (e.g. vector index out of range).
    Fault(String),
    /// An LPM install named a prefix longer than the table's key width.
    PrefixTooLong {
        /// Requested prefix length in bits.
        len: u8,
        /// The table's key width in bits.
        key_width: u8,
    },
}

impl std::fmt::Display for MirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MirError::DanglingRef(s) => write!(f, "dangling reference: {s}"),
            MirError::Invalid(s) => write!(f, "invalid MIR: {s}"),
            MirError::Parse { line, col, msg } => {
                write!(f, "parse error at line {line}, column {col}: {msg}")
            }
            MirError::Build { inst, msg } => {
                write!(f, "builder error at instruction %{inst}: {msg}")
            }
            MirError::StepBudgetExceeded => write!(f, "interpreter step budget exceeded"),
            MirError::Fault(s) => write!(f, "runtime fault: {s}"),
            MirError::PrefixTooLong { len, key_width } => {
                write!(f, "prefix length {len} exceeds key width {key_width}")
            }
        }
    }
}

impl std::error::Error for MirError {}

impl From<lpm::PrefixTooLong> for MirError {
    fn from(e: lpm::PrefixTooLong) -> Self {
        MirError::PrefixTooLong {
            len: e.len,
            key_width: e.key_width,
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MirError>;
