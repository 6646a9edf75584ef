//! `fpbench`: every benchmark suite behind one harness
//! ([`fp_bench::harness`]).
//!
//! ```sh
//! cargo run --release -p fp-bench --bin fpbench -- <suite> [--smoke] [--out PATH]
//! cargo run --release -p fp-bench --bin fpbench -- parallel --all
//! cargo run --release -p fp-bench --bin fpbench -- serve --tcp 127.0.0.1:7878
//! cargo run --release -p fp-bench --bin fpbench -- session --threads 2
//! ```
//!
//! Suites: `cspp`, `geom`, `netlist`, `parallel`, `persist`, `serve`,
//! `session`, `trace`. Each writes `BENCH_<suite>.json` by default.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(fp_bench::harness::main(&args))
}
