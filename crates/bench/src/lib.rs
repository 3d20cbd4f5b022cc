//! # oodb-bench — the paper's figures and experiment tables
//!
//! Regenerates every figure of the paper ([`figures`]: FIG1–FIG8 plus the
//! added-relation GAP witness) and runs the quantitative experiments
//! ([`quant`]: B1–B16; B2, B3, B7, B12, B13 and B15 are retired). The
//! `experiments` binary prints any of them:
//!
//! ```text
//! cargo run -p oodb-bench --bin experiments -- fig8
//! cargo run -p oodb-bench --bin experiments -- all
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod quant;
pub mod table;
