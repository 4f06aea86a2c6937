//! Tab. 5 harness: service instances per generated system, next to the
//! paper's generation time. It has no separate smoke size.
use blueprint_bench::{tables, Run};
fn main() {
    let run = Run::from_args();
    let name = "table5_gentime.txt";
    run.emit(
        &tables::table5(blueprint_apps::alibaba::PAPER_SCALE),
        name,
        name,
    );
}
