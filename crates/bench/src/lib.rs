//! # oodb-bench — the paper's figures and experiment tables
//!
//! Regenerates every figure of the paper ([`figures`]: FIG1–FIG8 plus the
//! added-relation GAP witness) and runs the quantitative experiments
//! ([`quant`]: B1, B4, B5, B8 and B14, counts over audited engine runs;
//! every other B-id is retired). No table reads a clock: wall-clock
//! numbers are the repository benchmark's (`benchmark/`). The
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
