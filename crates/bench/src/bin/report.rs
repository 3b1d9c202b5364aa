//! Regenerates the measured section of `EXPERIMENTS.md`:
//!
//! ```sh
//! cargo run -p pgq-bench --bin report
//! ```
//!
//! Every experiment asserts its claim internally; reaching the end of
//! the output means every check passed.

fn main() {
    println!("# Experiment report (generated by `cargo run -p pgq-bench --bin report`)\n");
    print!("{}", pgq_bench::full_report());
    println!("\nall experiment assertions passed.");
}
