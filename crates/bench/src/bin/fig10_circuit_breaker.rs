//! Fig. 10 harness: circuit breaker vs Type-1 metastability.
use blueprint_bench::{figures::fig10, Run};
fn main() {
    let run = Run::from_args();
    run.emit(&fig10::print(&fig10::run(run)), "fig10.txt", "ci_fig10.txt");
}
