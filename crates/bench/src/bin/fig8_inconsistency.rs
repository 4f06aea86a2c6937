//! Fig. 8 harness: cross-system inconsistency vs wait time. The full run
//! takes well under a second, so `--smoke` runs it too.
use blueprint_bench::{figures::fig8, Run};
fn main() {
    Run::from_args().emit(&fig8::print(&fig8::run()), "fig8.txt", "fig8.txt");
}
