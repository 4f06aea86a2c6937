//! Fig. 11 harness: Blueprint vs original-implementation profiles.
use blueprint_bench::{figures::fig11, Run};
fn main() {
    let run = Run::from_args();
    run.emit(&fig11::print(&fig11::run(run)), "fig11.txt", "ci_fig11.txt");
}
