//! Fig. 12 harness: generic vs extended cache interface.
use blueprint_bench::{figures::fig12, Run};
fn main() {
    let run = Run::from_args();
    run.emit(&fig12::print(&fig12::run(run)), "fig12.txt", "ci_fig12.txt");
}
