//! # gallium-server — the middlebox-server runtime
//!
//! Executes the **non-offloaded partition** of a compiled middlebox, the
//! role played by the DPDK application in the paper's deployment:
//!
//! * [`executor`] walks the original CFG executing only server-assigned
//!   instructions, sourcing cross-partition values from the transfer
//!   header and producing the server→switch header for post-processing;
//! * [`runtime`] wraps the executor with packet encap/decap, the
//!   **state-synchronization engine** (write-back staging + atomic bit
//!   flip + main-table fold, §4.3.3), and **output commit** (a packet that
//!   updated replicated state is held until the switch acknowledges the
//!   updates);
//! * [`cost`] is the cycle-cost model used for both the Gallium server and
//!   the FastClick baseline, calibrated so the evaluation reproduces the
//!   paper's Figure 7 / Table 2 shapes;
//! * [`parallel`] is a genuinely multi-threaded FastClick-style runner
//!   (flow-hash sharding over OS threads), used for wall-clock baseline
//!   measurements and shard-vs-sequential equivalence tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod executor;
pub mod parallel;
pub mod plan;
pub mod runtime;

pub use cost::CostModel;
pub use executor::{
    execute_server_partition, execute_server_partition_into, execute_server_partition_planned,
    ExecError, ExecScratch, ServerExec,
};
pub use parallel::{ParallelReference, ParallelStats};
pub use plan::ServerPlan;
pub use runtime::{MiddleboxServer, ReferenceServer, ServerOutput, ServerStats, SwitchResident};
