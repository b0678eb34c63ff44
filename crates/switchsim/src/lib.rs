//! # gallium-switchsim — the programmable-switch simulator
//!
//! A bmv2-class software switch standing in for the paper's Barefoot Tofino.
//! It loads a generated [`gallium_p4::P4Program`], **enforces the abstract
//! resource model at load time** (a program that exceeds table SRAM or
//! pipeline depth fails to load, as on real silicon), and then processes
//! packets through the parser → match-action pipeline → deparser path:
//!
//! * packets from the network run the **pre-processing** traversal;
//!   packets from the server port run **post-processing** (the ingress
//!   dispatch of §4.3.1);
//! * a pre traversal that encounters later-stage work encapsulates the
//!   packet in the synthesized transfer header and forwards it to the
//!   middlebox server — otherwise the packet takes the **fast path** and
//!   never leaves the data plane;
//! * each offloaded table has a **write-back shadow** plus a global
//!   visibility bit implementing the atomic-update protocol of §4.3.3;
//! * the control-plane API ([`Switch::control`]) models the management-CPU
//!   latency the paper measures in Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub use gallium_mir::fasthash;
pub mod loader;
pub mod plan;
#[doc(hidden)]
pub mod plan_testing;
pub mod switch;
pub mod symcheck;
pub mod table;
pub mod view;

pub use control::{control_op_latency_ns, ControlError, ControlPlane};
pub use fasthash::{FastBuildHasher, FxHasher64};
pub use loader::{load_check, LoadError};
pub use plan::{expr_check, ExecPlan, PlanError, PlanExprStats, PlanOptions};
pub use switch::{
    Switch, SwitchConfig, SwitchStats, FLAG_CACHE_MISS, FLAG_PASSTHROUGH, FLAG_RUN_POST,
};
pub use symcheck::{check_plan, SymCheckError, SymProof};
pub use table::{KeyBuf, RtTable, TableCounter, TableError, TableStats, INLINE_KEY_WORDS};
pub use view::{CondSrc, MicroOp, OpView, PlanView, StoreView, TraversalView, ValRef};
