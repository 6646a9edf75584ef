//! The `fpbench` suites, one module each. A suite runs its cases, keeps
//! its determinism asserts and reports rows, constants and gates through
//! [`crate::harness::Run`]; its `SUITE` declares the artifact layout the
//! harness checks those against.

mod cspp;
mod geom;
mod netlist;
mod parallel;
mod persist;
mod serve;
mod session;
mod trace;

use crate::harness::Suite;

/// Every suite, by command-line name.
pub(crate) const SUITES: [Suite; 8] = [
    cspp::SUITE,
    geom::SUITE,
    netlist::SUITE,
    parallel::SUITE,
    persist::SUITE,
    serve::SUITE,
    session::SUITE,
    trace::SUITE,
];
