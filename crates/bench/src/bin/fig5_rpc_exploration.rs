//! Fig. 5 harness: RPC framework / client pool / monolith exploration.
use blueprint_bench::{figures::fig5, Run};
fn main() {
    let run = Run::from_args();
    run.emit(&fig5::print(&fig5::run(run)), "fig5.txt", "ci_fig5.txt");
}
