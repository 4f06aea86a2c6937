//! Fig. 6 harness: the four metastability failure types. Pass `type1`..
//! `type4` to run some, or none for all; each type writes its own report.
use blueprint_bench::{figures::fig6, Run};
fn main() {
    let (run, picked) = Run::from_args_with(&fig6::TYPES);
    for (t, r) in fig6::run(run, &picked) {
        let (full, smoke) = (format!("fig6_{t}.txt"), format!("ci_fig6_{t}.txt"));
        run.emit(&fig6::print(&r), &full, &smoke);
    }
}
